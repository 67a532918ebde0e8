"""Traced run: timing wrappers at the periodika module boundaries.

``Tracer.install`` replaces each public function in the namespace of every
periodika module -- the function's own module and every module that imports
it -- with a wrapper that records a span (id, name, start, end, parent, op
id).  Calls between modules, and calls a module makes to its own public
functions through its globals, then pass through the wrappers;
``Tracer.restore`` puts the originals back.  The constructors of the two
configuration classes are wrapped the same way.

The runner opens a ``bench.op`` span around each op, so the ``bench`` layer
holds the benchmark's own time inside ops.  A span's self time is its
duration minus the time its child spans cover.  Spans stay in memory (up
to ``SPAN_CAP``) and are written out at the end.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from types import FunctionType

LAYERS = ("rules", "configs", "engine", "additive", "periodicity", "oracles", "cli")
# Per-cell and per-letter helpers are left alone: wrapping them would time
# the wrapper.  The two step kernels are the body of engine.step, which
# carries their time as its own.
UNWRAPPED = frozenset({
    "value_at", "encode_word", "decode_word", "primitive_root",
    "crt_join_letter", "crt_split_letter", "gcd_all", "step_cyclic", "step_ep",
})
TABLE_BUILDERS = frozenset({
    "rules.compose_table", "rules.canonicalize_table", "rules.pad_table", "rules.table_from_additive",
})
SPAN_CAP = 100_000


def _cells(config) -> int:
    if hasattr(config, "word"):
        return len(config.word)
    return len(config.left) + len(config.mid) + len(config.right)


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # the periodika modules, by layer name
        self.saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = -1
        self.reset_counters()

    def reset_counters(self):
        self.stack: list[list] = []  # [span id, name, start, child time, steps at start]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.steps = 0

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [self.next_id, name, time.perf_counter(), 0.0, self.steps]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        sid, name, start, child, _ = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def _account(self, name: str, frame: list, args, result) -> None:
        """Counters read off a finished call at its layer boundary."""
        c = self.counts
        if name in TABLE_BUILDERS:
            c["rules.table_cells_built"] += len(result.table)
        elif name == "engine.step":
            self.steps += 1
            c["engine.cells_out"] += _cells(result)
        elif name == "engine.temporal_cycle":
            states = self.steps - frame[4] + 1
            c["engine.states_kept_max"] = max(c["engine.states_kept_max"], states)
        elif name == "oracles.equicontinuity_oracle":
            if hasattr(result, "q"):
                c["oracles.certificates"] += 1
                c["oracles.powers_computed"] += result.q + result.p
            else:
                c["oracles.powers_computed"] += result.powers_computed
        elif name == "periodicity.jointly_periodic_points":
            c["periodicity.census_words"] += args[0].alphabet_size ** args[1]
        elif name == "periodicity.stp_empty_scan":
            c["periodicity.scan_examined"] += result.examined
            c["periodicity.scan_violations"] += len(result.violations)
            c["periodicity.scan_steps"] += self.steps - frame[4]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer._account(name, frame, args, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if (
                    not isinstance(obj, FunctionType)
                    or attr.startswith("_")
                    or attr in UNWRAPPED
                    or not obj.__module__.startswith("periodika.")
                ):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.split(".")[1]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self.saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        configs = self.modules["configs"]
        for cls in (configs.CyclicConfig, configs.EpConfig):
            original = cls.__dict__["__post_init__"]
            self.saved.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self._wrap(f"configs.{cls.__name__}.__post_init__", original))

    def restore(self) -> None:
        for owner, attr, obj in reversed(self.saved):
            setattr(owner, attr, obj)
        self.saved.clear()

    # -- results -------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer figures for the calls recorded since ``reset_counters``."""
        s, n, c = self.self_s, self.calls, self.counts
        constructs = [k for k in s if k.startswith("configs.") and k.endswith(".__post_init__")]
        out = {
            "rules.compose_table.calls": n["rules.compose_table"],
            "rules.compose_table.self_s": s["rules.compose_table"],
            "rules.canonicalize_table.self_s": s["rules.canonicalize_table"],
            "rules.table_cells_built": c["rules.table_cells_built"],
            "rules.compose_additive.calls": n["rules.compose_additive"],
            "oracles.equicontinuity_oracle.self_s": s["oracles.equicontinuity_oracle"],
            "oracles.powers_computed": c["oracles.powers_computed"],
            "oracles.cert_ratio": c["oracles.certificates"] / max(1, n["oracles.equicontinuity_oracle"]),
            "oracles.surjectivity_oracle.self_s": s["oracles.surjectivity_oracle"],
            "additive.classify_additive.self_s": s["additive.classify_additive"],
            "additive.permutative_power.self_s": s["additive.permutative_power"],
            "additive.identity_power.self_s": s["additive.identity_power"],
            "additive.report_to_json.self_s": s["additive.report_to_json"],
            "engine.step.calls": n["engine.step"],
            "engine.step.self_s": s["engine.step"],
            "engine.cells_out": c["engine.cells_out"],
            "engine.temporal_cycle.self_s": s["engine.temporal_cycle"],
            "engine.space_time.self_s": s["engine.space_time"],
            "engine.states_kept_max": c["engine.states_kept_max"],
            "configs.constructed": sum(n[k] for k in constructs),
            "configs.construct_self_s": sum(s[k] for k in constructs),
            "periodicity.jointly_periodic_points.self_s": s["periodicity.jointly_periodic_points"],
            "periodicity.census_words": c["periodicity.census_words"],
            "periodicity.stp_empty_scan.self_s": s["periodicity.stp_empty_scan"],
            "periodicity.scan_examined": c["periodicity.scan_examined"],
            "periodicity.scan_steps": c["periodicity.scan_steps"],
            "periodicity.scan_hit_ratio": c["periodicity.scan_violations"] / max(1, c["periodicity.scan_examined"]),
            "periodicity.blocking_word_search.self_s": s["periodicity.blocking_word_search"],
            "periodicity.stp_witness.self_s": s["periodicity.stp_witness"],
        }
        for layer in LAYERS + ("bench",):
            out[f"layer.{layer}.self_s"] = 0.0
        for name, t in s.items():
            out[f"layer.{name.split('.')[0]}.self_s"] += t
        return out

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "dropped": self.dropped,
        }
