"""End-to-end command-line checks: every subcommand, both output formats,
artifact files, deterministic JSON, and the exit-code contract."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from periodika.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REFUSED,
    EXIT_RESOURCE,
    _resolve_workers,
    main,
)
from periodika.rules import TableRule, render_rule_spec

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, argv, expect=EXIT_OK):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expect
    return out


def run_json(capsys, argv, expect=EXIT_OK):
    out = run(capsys, argv, expect)
    payload = json.loads(out)
    # JSON artifacts re-serialize byte-identically
    assert json.dumps(payload, indent=2) + "\n" == out
    return payload


# ---------------------------------------------------------------------------
# classify


@pytest.mark.parametrize(
    "spec, golden",
    [
        ("additive:m=2;r=1;c=1,0,1", "classify_m2_radius1_both_sides.json"),
        ("additive:m=4;r=1;c=2,1,2", "classify_m4_radius1_central_unit.json"),
        ("additive:m=2;r=1;c=0,0,1", "classify_m2_shift.json"),
    ],
)
def test_classify_matches_golden_output(capsys, spec, golden):
    out = run(capsys, ["classify", "--rule", spec])
    assert out == (GOLDEN / golden).read_text()


def test_classify_json_fields(capsys):
    payload = run_json(capsys, ["classify", "--rule", "additive:m=2;r=1;c=1,0,1"])
    assert payload["stp"] == "Empty"
    assert payload["transitive"] is True
    assert payload["positively_expansive"] is True
    assert payload["factors"] == [
        {"p": 2, "k": 1, "class": "PositivelyExpansive", "L": -1, "R": 1, "h": 1}
    ]


def test_classify_is_deterministic(capsys):
    argv = ["classify", "--rule", "additive:m=6;r=1;c=4,1,4"]
    assert run(capsys, argv) == run(capsys, argv)


def test_classify_text_format(capsys):
    out = run(capsys, ["classify", "--rule", "additive:m=4;r=1;c=2,1,2", "--format", "text"])
    lines = out.splitlines()
    assert "rule: additive:m=4;r=1;c=2,1,2" in lines
    assert "stp: Residual" in lines
    assert "factor p=2 k=2: Equicontinuous (L=0, R=0, h=2)" in lines


def test_classify_rejects_table_rules(capsys):
    assert main(["classify", "--rule", "wolfram:90"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "additive" in err


def test_classify_writes_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    run(capsys, ["classify", "--rule", "additive:m=2;r=1;c=1,0,1", "--output", str(target)])
    assert target.read_text() == (GOLDEN / "classify_m2_radius1_both_sides.json").read_text()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_ascii_with_negative_window(capsys):
    argv = [
        "simulate",
        "--rule", "wolfram:90",
        "--config", "ep:0|1|0",
        "--steps", "2",
        "--window", "-3:3",
    ]
    assert run(capsys, argv) == "0001000\n0010100\n0100010\n"


def test_simulate_window_equals_form(capsys):
    argv = [
        "simulate",
        "--rule", "wolfram:90",
        "--config", "ep:0|1|0",
        "--steps", "2",
        "--window=-3:3",
    ]
    assert run(capsys, argv) == "0001000\n0010100\n0100010\n"


def test_simulate_json(capsys):
    payload = run_json(
        capsys,
        ["simulate", "--rule", "additive:m=4;r=1;c=2,1,2", "--config", "ep:0|1|0",
         "--steps", "2", "--format", "json", "--window", "-2:2"],
    )
    assert payload["window"] == [-2, 2]
    assert payload["rows"] == [
        [0, 0, 1, 0, 0],
        [0, 2, 1, 2, 0],
        [0, 0, 1, 0, 0],
    ]


def test_simulate_default_window_is_17_cells(capsys):
    payload = run_json(
        capsys,
        ["simulate", "--rule", "wolfram:90", "--config", "cyclic:01",
         "--steps", "1", "--format", "json"],
    )
    assert payload["window"] == [-8, 8]
    assert all(len(row) == 17 for row in payload["rows"])


def test_simulate_pgm_bytes(capsysbinary):
    argv = [
        "simulate",
        "--rule", "wolfram:90",
        "--config", "ep:0|1|0",
        "--steps", "2",
        "--window", "-3:3",
        "--format", "pgm",
    ]
    assert main(argv) == EXIT_OK
    out = capsysbinary.readouterr().out
    assert out.startswith(b"P5\n7 3\n255\n")
    body = out[len(b"P5\n7 3\n255\n"):]
    assert len(body) == 21 and set(body) <= {0, 255}


# recorded before orbit walks stepped packed states: a chaotic rule whose
# mid grows by two cells a step, a 64-cell cyclic word, and a rule whose
# 729-entry table steps tuples rather than bytes
SIMULATE_GOLDENS = [
    ("simulate_wolfram30", "wolfram:30", "ep:0|1|0", "300", "-310:310"),
    (
        "simulate_wolfram110_cyclic64",
        "wolfram:110",
        "cyclic:1011101100001010111101110011100100111001001001001100111101110110",
        "64",
        "0:127",
    ),
    ("simulate_additive_m9", "additive:m=9;r=1;c=3,1,3", "ep:12|4075|863@-3", "60", "-70:70"),
]


@pytest.mark.parametrize("golden, rule, config, steps, window", SIMULATE_GOLDENS)
@pytest.mark.parametrize("fmt, suffix", [("ascii", "txt"), ("pgm", "pgm")])
def test_simulate_matches_golden_bytes(capsysbinary, golden, rule, config, steps, window, fmt, suffix):
    argv = ["simulate", "--rule", rule, "--config", config, "--steps", steps, f"--window={window}"]
    assert main([*argv, "--format", fmt]) == EXIT_OK
    assert capsysbinary.readouterr().out == (GOLDEN / f"{golden}.{suffix}").read_bytes()


def test_simulate_pgm_output_file(capsys, tmp_path):
    target = tmp_path / "trace.pgm"
    argv = [
        "simulate",
        "--rule", "wolfram:90",
        "--config", "ep:0|1|0",
        "--steps", "2",
        "--window", "-3:3",
        "--format", "pgm",
        "--output", str(target),
    ]
    run(capsys, argv)
    assert target.read_bytes().startswith(b"P5\n7 3\n255\n")


def test_simulate_rejects_bad_window(capsys):
    for window in ("3:-3", "3"):
        argv = ["simulate", "--rule", "wolfram:90", "--config", "cyclic:01",
                "--steps", "1", "--window", window]
        assert main(argv) == EXIT_PARSE


# ---------------------------------------------------------------------------
# jp


def test_jp_json(capsys):
    payload = run_json(
        capsys, ["jp", "--rule", "additive:m=2;r=1;c=1,0,1", "--length", "3"]
    )
    assert payload["points"] == [
        {"config": "cyclic:0@0", "period": 1},
        {"config": "cyclic:011@0", "period": 1},
        {"config": "cyclic:101@0", "period": 1},
        {"config": "cyclic:110@0", "period": 1},
    ]


def test_jp_text(capsys):
    out = run(
        capsys,
        ["jp", "--rule", "additive:m=2;r=1;c=0,0,1", "--length", "2", "--format", "text"],
    )
    assert out == "cyclic:0@0 period=1\ncyclic:1@0 period=1\ncyclic:01@0 period=2\ncyclic:10@0 period=2\n"
    # an empty census prints nothing
    argv = ["jp", "--rule", "additive:m=2;r=1;c=0,0,1", "--length", "2", "--t-max", "0",
            "--format", "text"]
    assert run(capsys, argv) == ""


# ---------------------------------------------------------------------------
# blocking


def test_blocking_found(capsys):
    payload = run_json(capsys, ["blocking", "--rule", "additive:m=4;r=1;c=2,1,2"])
    assert payload == {
        "rule": "additive:m=4;r=1;c=2,1,2",
        "found": True,
        "word": "000",
        "offset": 1,
        "width": 1,
        "status": "Exact",
        "verified_steps": 2,
        "verified_background_period": 0,
    }


def test_blocking_miss(capsys):
    payload = run_json(capsys, ["blocking", "--rule", "wolfram:90"])
    assert payload["found"] is False
    assert payload["bounds"] == {"k_max": 4, "bg_period": 2, "steps": 16}


def test_blocking_text(capsys):
    out = run(
        capsys,
        ["blocking", "--rule", "additive:m=4;r=1;c=2,1,2", "--format", "text"],
    )
    assert out == "word=000 offset=1 width=1 status=Exact\n"
    out = run(capsys, ["blocking", "--rule", "wolfram:90", "--format", "text"])
    assert out == "no blocking word within bounds\n"
    # the identity mod 8 and its padding to radius 2 read one kernel
    for spec in ("additive:m=8;r=1;c=0,1,0", "additive:m=8;r=2;c=0,0,1,0,0"):
        out = run(capsys, ["blocking", "--rule", spec, "--format", "text"])
        assert out == "word=0 offset=0 width=1 status=Exact\n"


# ---------------------------------------------------------------------------
# witness


def test_witness_additive_construction(capsys):
    payload = run_json(capsys, ["witness", "--rule", "additive:m=6;r=1;c=4,1,4"])
    assert payload["found"] is True
    assert payload["config"] == "ep:0|3|0@0" and payload["period"] == 1


def test_witness_with_seed_word(capsys):
    payload = run_json(
        capsys, ["witness", "--rule", "additive:m=4;r=1;c=2,1,2", "--u", "1"]
    )
    assert payload["config"] == "ep:0|1|0@0" and payload["period"] == 2
    argv = ["witness", "--rule", "additive:m=4;r=1;c=2,1,2", "--u", "1", "--format", "text"]
    assert run(capsys, argv) == "ep:0|1|0@0 period=2\n"


def test_witness_miss_when_no_blocking_word(capsys):
    payload = run_json(capsys, ["witness", "--rule", "wolfram:90", "--u", "1"])
    assert payload == {
        "rule": "wolfram:90",
        "found": False,
        "reason": "no blocking word within bounds",
    }
    argv = ["witness", "--rule", "wolfram:90", "--u", "1", "--format", "text"]
    assert run(capsys, argv) == "no witness: no blocking word within bounds\n"


def test_witness_additive_miss_reason(capsys):
    payload = run_json(capsys, ["witness", "--rule", "additive:m=2;r=1;c=1,0,1"])
    assert payload["found"] is False and "transitive" in payload["reason"]


def test_witness_table_rule_requires_seed_word(capsys):
    assert main(["witness", "--rule", "wolfram:90"]) == EXIT_PARSE
    assert "additive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scan


def test_scan_empty_verdict_holds(capsys):
    payload = run_json(capsys, ["scan", "--rule", "additive:m=2;r=1;c=1,0,1"])
    assert payload["examined"] == 4
    assert payload["violations"] == [] and payload["truncated"] is False
    assert payload["bounds"] == {"tail_period_max": 2, "mid_len_max": 3, "t_max": 32}


def test_scan_reports_counterexamples(capsys):
    payload = run_json(
        capsys,
        ["scan", "--rule", "additive:m=4;r=1;c=2,1,2",
         "--tail-period-max", "1", "--mid-len-max", "1", "--t-max", "4"],
    )
    assert payload["examined"] == 48 and len(payload["violations"]) == 48
    assert {"config": "ep:0|2|0@0", "period": 1} in payload["violations"]


def test_scan_text(capsys):
    out = run(
        capsys,
        ["scan", "--rule", "additive:m=2;r=1;c=0,0,1", "--format", "text"],
    )
    assert out.splitlines()[0] == "examined 68 configurations, 0 violations"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["scan", "--rule", "wolfram:33"], "scan_wolfram33.json"),
        (["scan", "--rule", "wolfram:22"], "scan_wolfram22.json"),
        (["scan", "--rule", "wolfram:7391763292911;k=3;r=1"], "scan_k3_7391763292911.json"),
        (["blocking", "--rule", "wolfram:37"], "blocking_wolfram37.json"),
        (["blocking", "--rule", "wolfram:90"], "blocking_wolfram90.json"),
    ],
)
def test_search_commands_match_golden_output(capsys, argv, golden):
    # the walked scan and the bounded blocking search step through a
    # successor memo; the files were recorded by walks that stepped every
    # state afresh
    assert run(capsys, argv) == (GOLDEN / golden).read_text()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_m4_counts(capsys):
    payload = run_json(capsys, ["sweep", "--m", "4"])
    assert payload == {
        "m": 4,
        "r": 1,
        "rules": 64,
        "surjective": 56,
        "sensitive": 48,
        "stp": {"Empty": 48, "Residual": 8, "Unknown": 8},
    }


def test_sweep_m2_oracle_checks_are_clean(capsys):
    payload = run_json(capsys, ["sweep", "--m", "2", "--check-oracles"])
    assert payload["rules"] == 8 and payload["surjective"] == 7
    assert payload["sensitive"] == 6
    assert payload["stp"] == {"Empty": 6, "Residual": 1, "Unknown": 1}
    assert payload["oracle_checks"] == {
        "surjectivity_disagreements": 0,
        "equicontinuous_without_cert": 0,
        "sensitive_with_cert": 0,
    }


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 10, 8, 9, 12, 16])
def test_sweep_oracle_checks_read_zero(capsys, m):
    # for m = 8, 9, 12 and 16 the equicontinuity oracle runs out of powers
    # on some equicontinuous rules, so only the surjectivity and
    # sensitivity counters must read 0 (m = 16 runs the surjectivity oracle
    # on 4 096-entry tuple tables)
    checks = run_json(capsys, ["sweep", "--m", str(m), "--check-oracles"])["oracle_checks"]
    names = ["surjectivity_disagreements", "sensitive_with_cert"]
    if m not in (8, 9, 12, 16):
        names.append("equicontinuous_without_cert")
    assert len(checks) == 3 and {name: checks[name] for name in names} == dict.fromkeys(names, 0)


def test_sweep_parallel_output_matches_serial(capsys):
    serial = run(capsys, ["sweep", "--m", "3"])
    parallel = run(capsys, ["sweep", "--m", "3", "--workers", "2"])
    assert serial == parallel


def test_resolve_workers(monkeypatch):
    monkeypatch.setattr("periodika.cli.os.cpu_count", lambda: 4)
    assert [_resolve_workers(n) for n in (0, 1, 3, 4, 8)] == [1, 1, 3, 4, 4]
    monkeypatch.setattr("periodika.cli.os.cpu_count", lambda: None)
    assert _resolve_workers(8) == 1


def test_sweep_text(capsys):
    out = run(capsys, ["sweep", "--m", "2", "--format", "text"])
    lines = out.splitlines()
    assert "rules: 8" in lines and "stp Empty: 6" in lines
    out = run(capsys, ["sweep", "--m", "2", "--check-oracles", "--format", "text"])
    assert out.splitlines()[-3:] == [
        "surjectivity_disagreements: 0",
        "equicontinuous_without_cert: 0",
        "sensitive_with_cert: 0",
    ]


# ---------------------------------------------------------------------------
# more than ten letters

# a pair of 10s spreads; every other window takes the left shift x_{i+1}
ELEVEN = render_rule_spec(
    TableRule(11, 1, tuple(10 if (10, 10) in (w[:2], w[1:]) else w[2]
                           for w in product(range(11), repeat=3)))
)


def test_eleven_letter_words_and_traces(capsys):
    # the blocking word is (10, 10), which digits alone would print as 1010
    argv = ["blocking", "--rule", ELEVEN, "--bg-period", "1", "--format", "text"]
    assert run(capsys, argv) == "word=10.10 offset=0 width=1 status=BoundedVerified\n"
    # the seed (1, 0) parses; the rule is then refused as not surjective
    argv = ["witness", "--rule", ELEVEN, "--bg-period", "1", "--u", "1.0"]
    assert main(argv) == EXIT_REFUSED
    assert "surjective" in capsys.readouterr().err
    argv[-1] = "1.11"
    assert main(argv) == EXIT_PARSE
    assert "bad letter '11'" in capsys.readouterr().err
    # ascii traces separate cells by spaces
    argv = ["simulate", "--rule", ELEVEN, "--config", "ep:0|10.10|1", "--steps", "2",
            "--window", "-2:3"]
    assert run(capsys, argv) == "0 0 10 10 1 1\n0 10 10 10 1 1\n10 10 10 10 1 1\n"


# ---------------------------------------------------------------------------
# README


def _readme_commands() -> list[tuple[list[str], list[str]]]:
    """Each ``periodika`` line of the README's command-line block, as argv,
    with the ``# `` lines right below it: the output the README shows."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands: list[tuple[list[str], list[str]]] = []
    shown = None
    for line in block.splitlines():
        if line.startswith("periodika "):
            shown = []
            commands.append((shlex.split(line)[1:], shown))
        elif shown is not None and line.startswith("# "):
            shown.append(line[2:])
        else:
            shown = None
    return commands


def test_readme_command_lines_run(capsys):
    commands = _readme_commands()
    assert sorted(argv[0] for argv, _ in commands) == sorted(
        ["classify", "simulate", "jp", "blocking", "witness", "scan", "sweep"]
    )
    for argv, shown in commands:
        out = run(capsys, argv)
        if argv[0] == "simulate":
            assert len(shown) == 3 and out.splitlines() == shown
        else:
            assert not shown


# ---------------------------------------------------------------------------
# exit codes


def test_exit_parse_on_bad_rule(capsys):
    assert main(["classify", "--rule", "additive:m=1;r=1;c=0,0,0"]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # every coefficient is even: the rule is not surjective
        ["witness", "--rule", "additive:m=4;r=1;c=2,2,2"],
        # seed word 0 over the blocking word 0 is the constant configuration
        ["witness", "--rule", "additive:m=4;r=1;c=2,1,2", "--u", "0"],
    ],
)
def test_exit_refused_on_valid_input_without_a_witness(capsys, argv):
    assert main(argv) == EXIT_REFUSED
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_exit_parse_on_bad_config(capsys):
    argv = ["simulate", "--rule", "wolfram:90", "--config", "cyclic:", "--steps", "1"]
    assert main(argv) == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rule", "wolfram:90", "--config", "ep:0|1|0", "--steps", "-1"],
        ["jp", "--rule", "wolfram:90", "--length", "3", "--t-max", "-1"],
        # the scan and the witness search hand their budget to temporal_cycle
        ["scan", "--rule", "wolfram:90", "--t-max", "-1"],
        ["witness", "--rule", "additive:m=4;r=1;c=2,1,2", "--t-max", "-1"],
        # the scan and the blocking search check their own bounds up front
        ["scan", "--rule", "wolfram:90", "--tail-period-max", "-1"],
        ["scan", "--rule", "wolfram:90", "--mid-len-max", "-1"],
        ["scan", "--rule", "additive:m=4;r=1;c=2,1,2", "--max-violations", "0"],
        ["blocking", "--rule", "wolfram:90", "--k-max", "-1"],
        ["blocking", "--rule", "wolfram:90", "--steps", "-1"],
        ["blocking", "--rule", "wolfram:90", "--bg-period", "0"],
        ["blocking", "--rule", "additive:m=4;r=1;c=2,1,2", "--bg-period", "0"],
        ["witness", "--rule", "additive:m=4;r=1;c=2,1,2", "--u", "1", "--k-max", "-1"],
    ],
)
def test_exit_parse_on_negative_budgets(capsys, argv):
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_exit_resource_on_huge_census(capsys):
    assert main(["jp", "--rule", "wolfram:90", "--length", "21"]) == EXIT_RESOURCE
    assert "resource cap:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rule",
    [
        "additive:m=9;r=5;c=1,0,0,0,0,0,0,0,0,0,1",  # 9^11 table entries
        "wolfram:0;k=10;r=5",  # 10^11 entries, rule codes up to 10^(10^11)
    ],
)
def test_exit_resource_on_huge_table(capsys, rule):
    argv = ["simulate", "--rule", rule, "--config", "cyclic:0", "--steps", "1"]
    assert main(argv) == EXIT_RESOURCE
    assert "resource cap:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # 2^24 mids, and no drift prune applies to rule 22
        ["scan", "--rule", "wolfram:22", "--mid-len-max", "24"],
        # 2^30 words on the bounded path: rule 90 has no equicontinuity certificate
        ["blocking", "--rule", "wolfram:90", "--k-max", "30"],
        ["witness", "--rule", "wolfram:90", "--u", "1", "--k-max", "30"],
    ],
)
def test_exit_resource_on_search_family_over_the_cap(capsys, argv):
    assert main(argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == "" and "resource cap:" in captured.err


def test_closed_form_searches_take_any_bound(capsys):
    # a pruned scan counts its family; a certified blocking search reads spans
    payload = run_json(
        capsys, ["scan", "--rule", "additive:m=2;r=1;c=1,0,1", "--mid-len-max", "24"]
    )
    assert payload["violations"] == [] and payload["truncated"] is False
    blocking = ["blocking", "--rule", "additive:m=4;r=1;c=2,1,2"]
    assert run(capsys, [*blocking, "--k-max", "30"]) == run(capsys, [*blocking, "--k-max", "4"])


def test_exit_resource_on_sweep_family_over_the_cap(capsys, monkeypatch):
    # 2^23 rules: refused before the family is enumerated
    def enumerate_additive_rules(m, r):
        raise AssertionError("the family was enumerated")

    monkeypatch.setattr("periodika.cli.enumerate_additive_rules", enumerate_additive_rules)
    assert main(["sweep", "--m", "2", "--r", "11"]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == "" and "resource cap:" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--m", "0"], "--m"),
        (["--m", "-2"], "--m"),
        (["--m", "1"], "--m"),
        (["--m", "2", "--r", "-1"], "--r"),
    ],
)
def test_exit_parse_on_sweep_family_out_of_range(capsys, argv, flag):
    assert main(["sweep", *argv]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {flag} " in captured.err


def test_exit_parse_on_unknown_command(capsys):
    assert main(["frobnicate"]) == EXIT_PARSE
    capsys.readouterr()


def test_exit_parse_without_arguments(capsys):
    assert main([]) == EXIT_PARSE
    capsys.readouterr()


def test_exit_parse_on_unwritable_output(capsys):
    argv = ["classify", "--rule", "additive:m=2;r=1;c=1,0,1",
            "--output", "/nonexistent-dir/report.json"]
    assert main(argv) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "classify" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["classify", "--rule", "additive:m=6;r=1;c=1,2,3"], EXIT_OK),
        (["classify", "--rule", "wolfram:90"], EXIT_PARSE),
    ],
)
def test_python_dash_m_matches_main(capsys, tmp_path, argv, expect):
    # an uninstalled checkout runs the command line as `python -m periodika`
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "periodika", *argv],
        capture_output=True, cwd=tmp_path, env=env, text=True, timeout=60,
    )
    assert proc.returncode == expect
    assert proc.stdout == run(capsys, argv, expect)


def test_cli_import_loads_only_periodika_and_the_standard_library(tmp_path):
    # pyproject declares no runtime dependency, so importing the command
    # line in a fresh interpreter adds no other top-level module
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import periodika.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'periodika'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, check=True, cwd=tmp_path, env=env, text=True, timeout=60,
    )
    assert proc.stdout == "[]\n"
