"""Benchmark of periodika: one workload for one seed, end to end or traced.

    python3 perfbench/run.py --workload orbit --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The run

1. times ``SETUP_RUNS`` fresh interpreters that import ``periodika.cli`` and
   build the workload's inputs (``setup_s``, the median; not in traced runs);
2. builds the same inputs in this process and runs every op once as a
   warm-up pass, checking each output against ``reference``;
3. feeds the checker one deliberately wrong output and requires it to be
   counted as a failure;
4. repeats the op list, in a new order each pass, until ``--seconds`` have
   passed, comparing every output with the verified warm-up output.  With ``--trace 1`` the passes
   alternate untraced and traced, and the per-layer figures come from the
   traced ones.

An op's latency is the fastest of its measured passes (one pass = the
workload's op list); ``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` are
taken over those per-op latencies.  Per-layer figures are medians over the
traced passes.  The last line of stdout is one JSON object; the lines
before it are a readable report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from tracing import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_RUNS = 7
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    """Import ``periodika.cli`` (and with it every layer) from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "periodika", "cli.py")):
        raise SystemExit(f"error: no periodika package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    importlib.import_module("periodika.cli")
    import_s = time.perf_counter() - t0
    modules = {name: sys.modules[f"periodika.{name}"] for name in LAYERS}
    if not os.path.abspath(modules["cli"].__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: periodika was imported from {modules['cli'].__file__}, not from {SRC}")
    return argparse.Namespace(**modules), import_s


def _build(name: str, P, seed: int):
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name](P, random.Random(f"{name}:{seed}"))


def _setup_seconds(args) -> list[float]:
    """Wall times of fresh interpreters that set the workload up and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for i in range(SETUP_RUNS + 1):  # the first one also writes the bytecode caches
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    return times


def _tail_percentile(samples: int) -> float:
    """Highest of the usual percentiles that leaves at least 10 samples beyond it."""
    return max(p for p in (0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999) if samples * (1 - p) >= 10)


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(pct * len(sorted_values)) - 1)]


def _check(check, out) -> str | None:
    """A check's verdict; a check that cannot read the output rejects it."""
    try:
        return check(out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


class Runner:
    """Runs passes over a workload's ops and keeps score."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.shuffler = random.Random(f"passes:{seed}")
        self.verified: list = []  # warm-up outputs that passed their check, or None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"op {i} ({self.workload.ops[i].stratum}): {reason}")

    def _call(self, i: int, tracer=None):
        op = self.workload.ops[i]
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = i
            frame = tracer.enter("bench.op")
        t0 = time.perf_counter()
        try:
            return op.run(), time.perf_counter() - t0
        except Exception as exc:  # any exception is a failed op, and the run goes on
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.exit(frame)

    def warm_up(self) -> None:
        outputs = []
        for i in range(len(self.workload.ops)):
            out, _ = self._call(i)
            reason = None if out is None else _check(self.workload.ops[i].check, out)
            if reason is not None:
                self._fail(i, reason)
            outputs.append(out)
            self.verified.append(out if reason is None else None)
        if self.workload.check_pass is not None:
            reason = _check(self.workload.check_pass, outputs)
            if reason is not None:
                self._fail(0, reason)

    def selftest(self) -> str | None:
        """Feed the checker one wrong output; return a problem, or None."""
        i, tamper = self.workload.selftest
        good = self.verified[i]
        if good is None:
            return f"self-test op {i} has no verified output"
        wrong = tamper(good)
        if wrong == good:
            return "self-test could not alter the output"
        if _check(self.workload.ops[i].check, wrong) is None:
            return f"checker passed a deliberately wrong output for op {i}"
        return None

    def measured_pass(self, tracer=None) -> list[float]:
        """Op latencies, indexed by op.  Each pass runs the ops in a new
        order, so a slow spell of the host does not hit the same ops every
        pass."""
        order = list(range(len(self.workload.ops)))
        self.shuffler.shuffle(order)
        latencies = [0.0] * len(order)
        for i in order:
            out, latencies[i] = self._call(i, tracer)
            if out is not None and (self.verified[i] is None or out != self.verified[i]):
                self._fail(i, "output differs from the verified warm-up output")
        return latencies


def _environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"nproc {os.cpu_count()}  python {sys.version.split()[0]}  cpu {cpu}"


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        P, _ = _import_package()
        _build(args.workload, P, args.seed)
        return 0
    P, import_s = _import_package()
    setup = [] if args.trace else _setup_seconds(args)
    workload = _build(args.workload, P, args.seed)
    runner = Runner(workload, args.seed)
    runner.warm_up()
    selftest_problem = runner.selftest()

    tracer = Tracer(vars(P)) if args.trace else None
    passes: list[list[float]] = []  # op latencies of each untraced pass
    walls: dict[bool, list[float]] = {False: [], True: []}  # pass wall times, untraced / traced
    layer_passes: list[dict] = []
    # a pass (or an untraced + traced pair) starts only if it should end in time
    t_start = time.perf_counter()
    round_s = 0.0
    while not passes or time.perf_counter() - t_start + round_s <= args.seconds:
        t_round = t0 = time.perf_counter()
        passes.append(runner.measured_pass())
        walls[False].append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.reset_counters()
            tracer.install()
            t0 = time.perf_counter()
            try:
                runner.measured_pass(tracer)
            finally:
                tracer.restore()
            walls[True].append(time.perf_counter() - t0)
            layer_passes.append(tracer.pass_metrics())
        round_s = time.perf_counter() - t_round

    n_ops = len(workload.ops)
    correct = runner.failed == 0 and selftest_problem is None
    print(f"workload {workload.name}  seed {args.seed}  ops/pass {n_ops}  "
          f"passes {len(passes)}{' + ' + str(len(layer_passes)) + ' traced' if args.trace else ''} (+1 warm-up)  "
          f"{_environment()}")
    strata = Counter(op.stratum for op in workload.ops)
    print("strata " + "  ".join(f"{k}={v}" for k, v in strata.items()))
    for line in runner.failures:
        print(f"FAILED {line}")
    print("selftest " + (selftest_problem or "a deliberately wrong output was counted as a failure"))

    if args.trace:
        metrics = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        metrics["cli.import_s"] = import_s
        untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
        os.makedirs(OUT_DIR, exist_ok=True)
        side = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
        with open(side, "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed, "metrics": metrics, **tracer.dump()}, fh)
        layers = {k.split(".")[1]: v for k, v in metrics.items() if k.startswith("layer.")}
        total = sum(layers.values()) or 1.0
        print("self-time share per pass  " + "  ".join(f"{k} {v / total:.4f}" for k, v in layers.items()))
        print(f"tracing overhead {traced - untraced:.4f} s per pass "
              f"({untraced:.4f} s untraced, {traced:.4f} s traced); spans in {os.path.relpath(side, ROOT)}")
        result = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
    else:
        # Each op's latency is its fastest measured pass: load from other
        # tenants of the host only ever adds time, and shifts the median pass
        # by as much as a fifth between runs.
        best = sorted(min(op) for op in zip(*passes))
        tail_pct = _tail_percentile(n_ops)
        tail = _percentile(best, tail_pct)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": n_ops / sum(best), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }
        samples = f"{n_ops} samples, each an op's fastest of {len(passes)} passes"
        print(f"setup_s       {result['setup_s']['value']:.4f} s    median of {len(setup)} fresh interpreters "
              f"(import alone {import_s:.4f} s in this one)")
        print(f"ops_per_s     {result['ops_per_s']['value']:.3f} 1/s  {n_ops} ops over their summed latencies")
        print(f"op_p50_ms     {result['op_p50_ms']['value']:.4f} ms   {samples}")
        print(f"op_tail_ms    {tail * 1e3:.4f} ms   p{tail_pct * 100:g}, "
              f"{sum(1 for t in best if t > tail)} samples beyond it, {samples}")
        print(f"peak_rss_mib  {rss_mib:.2f} MiB")
        print(f"fail_ratio    {runner.failed / runner.attempted:g}   ({runner.failed} failed of {runner.attempted} attempted)")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
