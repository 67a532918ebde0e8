"""Command-line interface.

Seven batch-oriented subcommands::

    classify   additive-rule verdicts (surjectivity, sensitivity, factors, stp)
    simulate   space-time traces over a coordinate window
    jp         census of jointly periodic points for one spatial period
    blocking   bounded blocking-word search
    witness    strictly temporally periodic witness construction
    scan       falsification scan for empty-STP verdicts
    sweep      exhaustive classification of all rules for one (m, r)

Exit status: 0 on success; 1 when valid input is refused (a witness asked
of a rule that is not surjective, or a seed word that dissolves into its
background); 2 on unparseable input or a negative step budget; 3 when a
resource cap stops an exact computation.  All searches follow the fixed
lexicographic orders of their modules, so output is deterministic given
the same flags; JSON output re-parses and re-serializes byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .additive import (
    ClassificationReport,
    classify_additive,
    enumerate_additive_rules,
    report_to_dict,
    report_to_json,
)
from .configs import _text_to_word, _word_to_text, parse_config, render_config
from .engine import ascii_render, pgm_render, space_time
from .oracles import EquicontinuityCert, equicontinuity_oracle, surjectivity_oracle
from .periodicity import (
    BlockingCert,
    DegenerateUError,
    StpWitness,
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
    parse_rule_spec,
    render_rule_spec,
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


def _emit(args, payload: str | bytes) -> None:
    if isinstance(payload, bytes):
        if args.output:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
        return
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# classify


def _text_report(report: ClassificationReport) -> str:
    d = report_to_dict(report)
    lines = [f"rule: {d['rule']}"]
    for key in ("surjective", "sensitive", "equicontinuous", "transitive", "positively_expansive"):
        lines.append(f"{key}: {str(d[key]).lower()}")
    lines.append(f"stp: {d['stp']}")
    for f in d["factors"]:
        lines.append(
            f"factor p={f['p']} k={f['k']}: {f['class']} (L={f['L']}, R={f['R']}, h={f['h']})"
        )
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> int:
    rule = parse_rule_spec(args.rule)
    if not isinstance(rule, AdditiveRule):
        raise RuleSpecError("classify works on additive rules; pass an additive: spec")
    report = classify_additive(rule)
    if args.format == "json":
        _emit(args, report_to_json(report) + "\n")
    else:
        _emit(args, _text_report(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    rule = _as_table(parse_rule_spec(args.rule))
    config = parse_config(args.config, rule.alphabet_size)
    if args.window:
        lo, hi = _parse_window(args.window)
    else:
        lo, hi = -8, 8
    trace = space_time(rule, config, args.steps, lo, hi)
    if args.format == "ascii":
        text = ascii_render(trace)
        _emit(args, text if text.endswith("\n") else text + "\n")
    elif args.format == "pgm":
        _emit(args, pgm_render(trace))
    else:
        payload = {
            "rule": args.rule,
            "config": render_config(config),
            "steps": args.steps,
            "window": [lo, hi],
            "rows": [list(row) for row in trace.rows],
        }
        _emit(args, _json_text(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# jp


def _cmd_jp(args) -> int:
    rule = _as_table(parse_rule_spec(args.rule))
    census = jointly_periodic_points(rule, args.length, args.t_max)
    if args.format == "json":
        payload = {
            "rule": args.rule,
            "length": census.length,
            "t_max": census.t_max,
            "points": [
                {"config": render_config(cfg), "period": t} for cfg, t in census.points
            ],
        }
        _emit(args, _json_text(payload))
    else:
        lines = [f"{render_config(cfg)} period={t}" for cfg, t in census.points]
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# blocking


def _cmd_blocking(args) -> int:
    rule = _as_table(parse_rule_spec(args.rule))
    res = blocking_word_search(rule, args.k_max, args.bg_period, args.steps)
    if isinstance(res, BlockingCert):
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
    else:
        payload = {
            "rule": args.rule,
            "found": False,
            "bounds": {"k_max": res.k_max, "bg_period": res.bg_period, "steps": res.steps},
        }
    if args.format == "json":
        _emit(args, _json_text(payload))
    elif payload["found"]:
        _emit(
            args,
            f"word={payload['word']} offset={payload['offset']} "
            f"width={payload['width']} status={payload['status']}\n",
        )
    else:
        _emit(args, "no blocking word within bounds\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness


def _cmd_witness(args) -> int:
    rule = parse_rule_spec(args.rule)
    if args.u is None:
        if not isinstance(rule, AdditiveRule):
            raise RuleSpecError("witness without --u needs an additive rule")
        res = stp_witness_additive(rule, args.t_max)
    else:
        table = _as_table(rule)
        u = _text_to_word(args.u, table.alphabet_size, "seed word")
        cert = blocking_word_search(table, args.k_max, args.bg_period, args.steps)
        if not isinstance(cert, BlockingCert):
            res = None
        else:
            res = stp_witness(table, cert, u, args.t_max)
    if isinstance(res, StpWitness):
        payload = {
            "rule": args.rule,
            "found": True,
            "config": render_config(res.config),
            "period": res.period,
        }
    elif res is None:
        payload = {"rule": args.rule, "found": False, "reason": "no blocking word within bounds"}
    else:
        payload = {"rule": args.rule, "found": False, "reason": res.reason}
    if args.format == "json":
        _emit(args, _json_text(payload))
    elif payload["found"]:
        _emit(args, f"{payload['config']} period={payload['period']}\n")
    else:
        _emit(args, f"no witness: {payload['reason']}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _cmd_scan(args) -> int:
    # additive rules go through unexpanded: the scan can then prune via
    # their prime-power factorisation
    rule = parse_rule_spec(args.rule)
    res = stp_empty_scan(
        rule, args.tail_period_max, args.mid_len_max, args.t_max, args.max_violations
    )
    payload = {
        "rule": args.rule,
        "bounds": {
            "tail_period_max": res.bounds.tail_period_max,
            "mid_len_max": res.bounds.mid_len_max,
            "t_max": res.bounds.t_max,
        },
        "examined": res.examined,
        "truncated": res.truncated,
        "violations": [
            {"config": render_config(w.config), "period": w.period} for w in res.violations
        ],
    }
    if args.format == "json":
        _emit(args, _json_text(payload))
    else:
        lines = [f"examined {res.examined} configurations, {len(res.violations)} violations"]
        lines += [f"{render_config(w.config)} period={w.period}" for w in res.violations]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _sweep_one(spec: str, check_oracles: bool) -> tuple:
    """Classify one rule (worker-safe: plain values in and out)."""
    rule = parse_rule_spec(spec)
    report = classify_additive(rule)
    surj_disagree = 0
    equi_missing = 0
    sensitive_with_cert = 0
    if check_oracles:
        table = table_from_additive(rule)
        if surjectivity_oracle(table) != report.surjective:
            surj_disagree = 1
        cert = equicontinuity_oracle(table)
        if report.equicontinuous and not isinstance(cert, EquicontinuityCert):
            equi_missing = 1
        if report.sensitive and isinstance(cert, EquicontinuityCert):
            sensitive_with_cert = 1
    return (
        report.surjective,
        report.sensitive,
        report.stp.value,
        surj_disagree,
        equi_missing,
        sensitive_with_cert,
    )


def _resolve_workers(requested: int) -> int:
    """``--workers``, capped by the CPU count."""
    return max(1, min(requested, os.cpu_count() or 1))


def _cmd_sweep(args) -> int:
    specs = [render_rule_spec(r) for r in enumerate_additive_rules(args.m, args.r)]
    workers = _resolve_workers(args.workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, specs, [args.check_oracles] * len(specs), chunksize=64))
    else:
        rows = [_sweep_one(spec, args.check_oracles) for spec in specs]
    stp_counts: dict[str, int] = {}
    surjective = sensitive = 0
    disagreements = [0, 0, 0]
    for surj, sens, stp, d0, d1, d2 in rows:
        surjective += surj
        sensitive += sens
        stp_counts[stp] = stp_counts.get(stp, 0) + 1
        disagreements[0] += d0
        disagreements[1] += d1
        disagreements[2] += d2
    payload = {
        "m": args.m,
        "r": args.r,
        "rules": len(specs),
        "surjective": surjective,
        "sensitive": sensitive,
        "stp": {key: stp_counts[key] for key in sorted(stp_counts)},
    }
    if args.check_oracles:
        payload["oracle_checks"] = {
            "surjectivity_disagreements": disagreements[0],
            "equicontinuous_without_cert": disagreements[1],
            "sensitive_with_cert": disagreements[2],
        }
    if args.format == "json":
        _emit(args, _json_text(payload))
    else:
        lines = [f"{k}: {v}" for k, v in payload.items() if not isinstance(v, dict)]
        lines += [f"stp {k}: {v}" for k, v in payload["stp"].items()]
        if "oracle_checks" in payload:
            lines += [f"{k}: {v}" for k, v in payload["oracle_checks"].items()]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


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
        return args.fn(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NotSurjectiveError, DegenerateUError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
