"""Command-line interface.

Seven batch-oriented subcommands::

    classify   additive-rule verdicts (surjectivity, sensitivity, factors, stp)
    simulate   space-time traces over a coordinate window
    jp         census of jointly periodic points for one spatial period
    blocking   bounded blocking-word search
    witness    strictly temporally periodic witness construction
    scan       falsification scan for empty-STP verdicts
    sweep      exhaustive classification of all rules for one (m, r)

Each ``_cmd_*`` returns ``(payload, text)``: its JSON payload and its other
format (for ``simulate`` the ASCII text or the PGM bytes).  ``main`` alone
renders the format asked for and writes it, to ``--output`` or to stdout.

Exit status: 0 on success; 1 when valid input is refused (a witness asked
of a rule that is not surjective, or a seed word that dissolves into its
background); 2 on unparseable input, a negative step budget or a ``sweep``
family out of range (``--m`` below 2, ``--r`` negative); 3 when a
resource cap stops an exact computation or a ``sweep`` family exceeds the
table cap.  All searches follow the fixed lexicographic orders of their
modules, so output is deterministic given the same flags; JSON output
re-parses and re-serializes byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict

from .additive import classify_additive, enumerate_additive_rules, report_to_dict
from .configs import _text_to_word, _word_to_text, parse_config, render_config
from .engine import ascii_render, pgm_render, space_time
from .oracles import EquicontinuityCert, equicontinuity_oracle, surjectivity_oracle
from .periodicity import (
    BlockingCert,
    DegenerateUError,
    WitnessMiss,
    blocking_word_search,
    jointly_periodic_points,
    stp_empty_scan,
    stp_witness,
    stp_witness_additive,
)
from .rules import (
    AdditiveRule,
    NotSurjectiveError,
    ResourceCapError,
    RuleSpecError,
    TableRule,
    _table_size,
    parse_rule_spec,
    table_from_additive,
)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _as_table(rule: TableRule | AdditiveRule) -> TableRule:
    if isinstance(rule, AdditiveRule):
        return table_from_additive(rule)
    return rule


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"window must look like LO:HI, got {text!r}")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i > hi_i:
        raise ValueError(f"window bounds out of order: {text!r}")
    return lo_i, hi_i


# ---------------------------------------------------------------------------
# commands: each returns (JSON payload, text)


def _cmd_classify(args):
    rule = parse_rule_spec(args.rule)
    if not isinstance(rule, AdditiveRule):
        raise RuleSpecError("classify works on additive rules; pass an additive: spec")
    d = report_to_dict(classify_additive(rule))
    lines = [f"rule: {d['rule']}"]
    for key in ("surjective", "sensitive", "equicontinuous", "transitive", "positively_expansive"):
        lines.append(f"{key}: {str(d[key]).lower()}")
    lines.append(f"stp: {d['stp']}")
    for f in d["factors"]:
        lines.append(f"factor p={f['p']} k={f['k']}: {f['class']} (L={f['L']}, R={f['R']}, h={f['h']})")
    return d, "\n".join(lines) + "\n"


def _cmd_simulate(args):
    rule = _as_table(parse_rule_spec(args.rule))
    config = parse_config(args.config, rule.alphabet_size)
    lo, hi = _parse_window(args.window or "-8:8")
    trace = space_time(rule, config, args.steps, lo, hi)
    payload = {
        "rule": args.rule,
        "config": render_config(config),
        "steps": args.steps,
        "window": [lo, hi],
        "rows": [list(row) for row in trace.rows],
    }
    return payload, pgm_render(trace) if args.format == "pgm" else ascii_render(trace) + "\n"


def _cmd_jp(args):
    census = jointly_periodic_points(_as_table(parse_rule_spec(args.rule)), args.length, args.t_max)
    points = [{"config": render_config(cfg), "period": t} for cfg, t in census.points]
    payload = {"rule": args.rule, "length": census.length, "t_max": census.t_max, "points": points}
    return payload, "".join(f"{p['config']} period={p['period']}\n" for p in points)


def _cmd_blocking(args):
    rule = _as_table(parse_rule_spec(args.rule))
    res = blocking_word_search(rule, args.k_max, args.bg_period, args.steps)
    if not isinstance(res, BlockingCert):
        payload = {"rule": args.rule, "found": False, "bounds": asdict(res)}
        return payload, "no blocking word within bounds\n"
    payload = {
        "rule": args.rule,
        "found": True,
        "word": _word_to_text(res.word, rule.alphabet_size),
        "offset": res.offset,
        "width": res.width,
        "status": res.status.value,
        "verified_steps": res.verified_steps,
        "verified_background_period": res.verified_background_period,
    }
    text = f"word={payload['word']} offset={res.offset} width={res.width} status={payload['status']}\n"
    return payload, text


def _cmd_witness(args):
    rule = parse_rule_spec(args.rule)
    if args.u is None:
        if not isinstance(rule, AdditiveRule):
            raise RuleSpecError("witness without --u needs an additive rule")
        res = stp_witness_additive(rule, args.t_max)
    else:
        table = _as_table(rule)
        u = _text_to_word(args.u, table.alphabet_size, "seed word")
        if args.t_max < 0:
            raise ValueError("t_max must be non-negative")
        cert = blocking_word_search(table, args.k_max, args.bg_period, args.steps)
        if isinstance(cert, BlockingCert):
            res = stp_witness(table, cert, u, args.t_max)
        else:
            res = WitnessMiss(args.t_max, "no blocking word within bounds")
    if isinstance(res, WitnessMiss):
        return {"rule": args.rule, "found": False, "reason": res.reason}, f"no witness: {res.reason}\n"
    config = render_config(res.config)
    payload = {"rule": args.rule, "found": True, "config": config, "period": res.period}
    return payload, f"{config} period={res.period}\n"


def _cmd_scan(args):
    # additive rules go through unexpanded: the scan can then prune via
    # their prime-power factorisation
    rule = parse_rule_spec(args.rule)
    res = stp_empty_scan(
        rule, args.tail_period_max, args.mid_len_max, args.t_max, args.max_violations
    )
    violations = [{"config": render_config(w.config), "period": w.period} for w in res.violations]
    payload = {
        "rule": args.rule,
        "bounds": asdict(res.bounds),
        "examined": res.examined,
        "truncated": res.truncated,
        "violations": violations,
    }
    lines = [f"examined {res.examined} configurations, {len(violations)} violations"]
    lines += [f"{v['config']} period={v['period']}" for v in violations]
    return payload, "\n".join(lines) + "\n"


def _sweep_one(rule: AdditiveRule, check_oracles: bool) -> dict:
    """The verdict and named flags of one rule (worker-safe: picklable
    values in and out)."""
    report = classify_additive(rule)
    row = {"stp": report.stp.value, "surjective": report.surjective, "sensitive": report.sensitive}
    if check_oracles:
        table = table_from_additive(rule)
        row["surjectivity_disagreements"] = surjectivity_oracle(table) != report.surjective
        certified = isinstance(equicontinuity_oracle(table), EquicontinuityCert)
        row["equicontinuous_without_cert"] = report.equicontinuous and not certified
        row["sensitive_with_cert"] = report.sensitive and certified
    return row


def _resolve_workers(requested: int) -> int:
    """``--workers``, capped by the CPU count."""
    return max(1, min(requested, os.cpu_count() or 1))


def _cmd_sweep(args):
    if args.m < 2:
        raise ValueError(f"--m must be at least 2, got {args.m}")
    if args.r < 0:
        raise ValueError(f"--r must be non-negative, got {args.r}")
    # one rule per entry of an m^(2r+1) table: refuse before enumerating
    _table_size(args.m, 2 * args.r + 1)
    rules = list(enumerate_additive_rules(args.m, args.r))
    checks = [args.check_oracles] * len(rules)
    workers = _resolve_workers(args.workers)
    if workers > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, rules, checks, chunksize=64))
    else:
        rows = list(map(_sweep_one, rules, checks))

    def total(key: str) -> int:
        return sum(row[key] for row in rows)

    payload = {
        "m": args.m,
        "r": args.r,
        "rules": len(rules),
        "surjective": total("surjective"),
        "sensitive": total("sensitive"),
        "stp": dict(sorted(Counter(row["stp"] for row in rows).items())),
    }
    if args.check_oracles:
        names = ("surjectivity_disagreements", "equicontinuous_without_cert", "sensitive_with_cert")
        payload["oracle_checks"] = {name: total(name) for name in names}
    lines = [f"{k}: {v}" for k, v in payload.items() if not isinstance(v, dict)]
    lines += [f"stp {k}: {v}" for k, v in payload["stp"].items()]
    lines += [f"{k}: {v}" for k, v in payload.get("oracle_checks", {}).items()]
    return payload, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodika",
        description="Exact tooling for periodic orbits of one-dimensional cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="write the artifact to this path")

    p = sub.add_parser("classify", help="classify an additive rule")
    p.add_argument("--rule", required=True)
    common(p, ["json", "text"])
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("simulate", help="render a space-time trace")
    p.add_argument("--rule", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--window", default=None, help="coordinate window LO:HI (default -8:8)")
    common(p, ["ascii", "json", "pgm"])
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("jp", help="census of jointly periodic points")
    p.add_argument("--rule", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--t-max", type=int, default=64)
    common(p, ["json", "text"])
    p.set_defaults(fn=_cmd_jp)

    p = sub.add_parser("blocking", help="bounded blocking-word search")
    p.add_argument("--rule", required=True)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--bg-period", type=int, default=2)
    p.add_argument("--steps", type=int, default=16)
    common(p, ["json", "text"])
    p.set_defaults(fn=_cmd_blocking)

    p = sub.add_parser("witness", help="construct a strictly temporally periodic point")
    p.add_argument("--rule", required=True)
    p.add_argument("--u", default=None, help="seed word letters; defaults to the additive construction")
    p.add_argument("--t-max", type=int, default=64)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--bg-period", type=int, default=2)
    p.add_argument("--steps", type=int, default=16)
    common(p, ["json", "text"])
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("scan", help="falsification scan for empty-STP verdicts")
    p.add_argument("--rule", required=True)
    p.add_argument("--tail-period-max", type=int, default=2)
    p.add_argument("--mid-len-max", type=int, default=3)
    p.add_argument("--t-max", type=int, default=32)
    p.add_argument("--max-violations", type=int, default=100)
    common(p, ["json", "text"])
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("sweep", help="classify every additive rule for one (m, r)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--check-oracles", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    common(p, ["json", "text"])
    p.set_defaults(fn=_cmd_sweep)

    return parser


def _merge_window_flag(argv: list[str]) -> list[str]:
    """Join ``--window -3:3`` into ``--window=-3:3`` so the negative lower
    bound is not mistaken for an option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            out.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _write(path: str | None, out: str | bytes) -> None:
    """The one write of a command's output: to ``path``, else to stdout."""
    if path:
        with open(path, "wb" if isinstance(out, bytes) else "w") as fh:
            fh.write(out)
    elif isinstance(out, bytes):
        sys.stdout.buffer.write(out)
    else:
        sys.stdout.write(out)


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_window_flag(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        payload, text = args.fn(args)
        _write(args.output, json.dumps(payload, indent=2) + "\n" if args.format == "json" else text)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NotSurjectiveError, DegenerateUError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
