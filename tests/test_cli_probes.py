"""Command lines whose exit status and output bytes are pinned: each row is
``(argv, exit status, sha256 of stdout)``.  Each digest was recorded from
an earlier build of the same path (the census built level by level,
eventually periodic rows stepped whole), so a rewrite of that path must
print the same bytes; a refusal exits 3 with nothing on stdout.

A row runs through ``cli.main`` in process, except a row that guards
against a hang or a quadratic blow-up: every refusal, each walk of a
config over 5 000 letters, and each scan whose family the drift prune
counts instead of walking.  Those run as ``python -m periodika`` in a
subprocess under a 60-s bound, so that a refusal turned into a walk, or a
walk many times slower, fails its row instead of hanging the suite."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from periodika.cli import EXIT_OK, EXIT_RESOURCE, main

SRC = Path(__file__).parent.parent / "src"
EMPTY = hashlib.sha256(b"").hexdigest()
JSON = ["--format", "json"]

# Empty additive rules whose one factor drifts only at its permutative
# power, F^4 mod 8 and F^8 mod 16: walked, the m = 8 scan runs for minutes,
# and the m = 16 one far longer
COUNTED_SCANS = ("additive:m=8;r=2;c=2,1,0,0,2", "additive:m=16;r=2;c=2,1,0,0,2")

# simulate steps a 5 040-letter ring at its full length at every step,
# also after its root shrinks: one seeded random word and 0...01
_rng = random.Random(5040)
RANDOM_WORD = "".join(_rng.choice("01") for _ in range(5040))
ONE_WORD = "0" * 5039 + "1"

PROBES = [
    # rule 22 is not onto and has no drift prune: the walked scan; its
    # default format is JSON, so this row also pins `--format json`
    (
        ["scan", "--rule", "wolfram:22", "--mid-len-max", "12"],
        EXIT_OK,
        "1a4cc5804b55a77143db66a8f587a6f64cb09cef12caab0ee2ad338d289340f3",
    ),
    # not onto, k = 5 over a span of 3: the preimage test of F∘F would be
    # over its bit budget, so the scan prunes by F(X) alone
    (
        ["scan", "--rule", "wolfram:561693968798111919940;k=5;r=1"],
        EXIT_OK,
        "0fe99028fde8fee779e2757af3615e0bc2fbfdcd0c2ef748c8d48fec64d26ecb",
    ),
    # walks whose defect edges run away, ended early by the orbit detector:
    # the first stops at 100 violations after 9 538 candidates, the second
    # walks all 32 772 and finds none
    (
        ["scan", "--rule", "additive:m=12;r=1;c=2,1,2"],
        EXIT_OK,
        "daa5752585baee6716b33c0d858dee47624818a05283b00e5753352f098cf23d",
    ),
    (
        ["scan", "--rule", "wolfram:41", "--mid-len-max", "12"],
        EXIT_OK,
        "502ad940ee7706b52bd098908bf1d748c4f2773a2a2e2e816776ee02f2f819dc",
    ),
    # counted, not walked: the same bytes as a walk of all 1 835 456
    # candidates, then 251 662 080 candidates, then 8^8 mids, which the
    # table cap refuses only when the family is walked
    (
        ["scan", "--rule", COUNTED_SCANS[0]],
        EXIT_OK,
        "20a37f57be97976645be3cd9a1f62687fc980ac3ca86c344fcfa20a0d9b9692d",
    ),
    (
        ["scan", "--rule", COUNTED_SCANS[1]],
        EXIT_OK,
        "c0f63447c44cfc55affa10ef516a6b7dfdeea855d718305ad7b5b535a9c2d1e9",
    ),
    (
        ["scan", "--rule", COUNTED_SCANS[0], "--mid-len-max", "8"],
        EXIT_OK,
        "6c8072242588aef3e807d8ed59ff13df134622bb3d5a9dcff2f24aa6613fd7f2",
    ),
    # 2^24 mids, or 300^3, over the table cap: refused before the tail census
    (["scan", "--rule", "wolfram:22", "--mid-len-max", "24"], EXIT_RESOURCE, EMPTY),
    (["scan", "--rule", "additive:m=300;r=0;c=7"], EXIT_RESOURCE, EMPTY),
    # 8.1e9 tail pairs, streamed up to the violation cap
    (
        ["scan", "--rule", "additive:m=300;r=0;c=7", "--mid-len-max", "1"],
        EXIT_OK,
        "45b4019d280a47adf03492249be4852abad57f15f38579873ed1b1628765d73a",
    ),
    # the jp census of two byte-table rules (built column by column in byte
    # lanes) and of one 343-entry tuple-table rule (built level by level)
    (
        ["jp", "--rule", "wolfram:110", "--length", "16", *JSON],
        EXIT_OK,
        "7227821c20a5397b7148e7c5ea51bb73a13659c07db1d42a2843a6697826a9af",
    ),
    (
        ["jp", "--rule", "wolfram:7391763292911;k=3;r=1", "--length", "10", *JSON],
        EXIT_OK,
        "711189c40b3fca6e9cb767c0885c9e75c11358abb24421e939832824dde2bc76",
    ),
    (
        ["jp", "--rule", "additive:m=7;r=1;c=1,2,3", "--length", "6", *JSON],
        EXIT_OK,
        "6f1a565c7dd06df5cc0f69bab42ed21a43c2eb427ae2b380900dfdcf9ba396ec",
    ),
    # eventually periodic walks: one with two-letter tails, one of a
    # 343-entry tuple-table rule, and a bounded blocking search whose
    # context walks share one stepper (its default format is JSON too)
    (
        [
            "simulate", "--rule", "wolfram:30", "--config", "ep:0|1|0",
            "--steps", "3000", "--window", "-40:40", *JSON,
        ],
        EXIT_OK,
        "64e71395f4225fbf4534973ecf76cd63bcce8a03ff9ea34493b110452b51d5f6",
    ),
    (
        [
            "simulate", "--rule", "wolfram:45", "--config", "ep:01|1101|1",
            "--steps", "1000", "--window", "-40:40", *JSON,
        ],
        EXIT_OK,
        "4c8ef2f54e40f5b89a5841c341348551bfe7aa47d91c90180dcf112fab774a82",
    ),
    (
        [
            "simulate", "--rule", "additive:m=7;r=1;c=1,2,3", "--config", "ep:12|345|61",
            "--steps", "400", "--window", "-30:30", *JSON,
        ],
        EXIT_OK,
        "c897b9985a17e5e0267bec6f8094896b51f95aa0f99ba77945375291231f5971",
    ),
    (
        ["blocking", "--rule", "wolfram:90", "--bg-period", "16", *JSON],
        EXIT_OK,
        "1eb40bcc457a7862ab2e7f44b35f568a5ee20219025c90b2f454360e206e76d8",
    ),
    # each once hung: the search families exceed the table cap, and the
    # background tails of rule 90 up to length 17 hold over 2e6 letters
    (["blocking", "--rule", "wolfram:90", "--k-max", "30"], EXIT_RESOURCE, EMPTY),
    (["blocking", "--rule", "wolfram:90", "--bg-period", "24"], EXIT_RESOURCE, EMPTY),
    (["blocking", "--rule", "wolfram:90", "--bg-period", "17"], EXIT_RESOURCE, EMPTY),
    (["witness", "--rule", "wolfram:90", "--u", "1", "--k-max", "30"], EXIT_RESOURCE, EMPTY),
    (["witness", "--rule", "wolfram:90", "--u", "1", "--bg-period", "24"], EXIT_RESOURCE, EMPTY),
    (
        ["blocking", "--rule", "additive:m=4;r=1;c=2,1,2", "--bg-period", "30"],
        EXIT_OK,
        "79061397df085b74ccc2467f13b6ccdd76dbe2073e743aa3d9eb72996f2521ed",
    ),
    (
        [
            "simulate", "--rule", "wolfram:30", "--config", f"cyclic:{RANDOM_WORD}",
            "--steps", "2000", "--window", "0:3", *JSON,
        ],
        EXIT_OK,
        "643971f4a5f6c5b3eb386c6fcc25c42588e5d9254c24ae068317328575046bea",
    ),
    (
        [
            "simulate", "--rule", "wolfram:30", "--config", f"cyclic:{ONE_WORD}",
            "--steps", "2000", "--window", "0:3", *JSON,
        ],
        EXIT_OK,
        "4f90607182c5792d25d6eacd35d39e27aeae6d0dff20ab156c027a71b476c356",
    ),
    # under AND the random ring collapses to the root 0 in six steps
    # and goes on stepping at 5 040 letters
    (
        [
            "simulate", "--rule", "wolfram:128", "--config", f"cyclic:{RANDOM_WORD}",
            "--steps", "2000", "--window", "0:3", *JSON,
        ],
        EXIT_OK,
        "f1e22f3c4b66236ce4be1ca9249b78227d7c948f29c22eada4492c64413a799e",
    ),
    # a padded rule gets its canonical form's answer: the one-letter word
    # "0", "status": "Exact", "width": 1
    (
        ["blocking", "--rule", "additive:m=8;r=2;c=0,0,1,0,0", *JSON],
        EXIT_OK,
        "6c631ee5a46426fca8ba500fc3183c1367c842bb8eecd2a9e15e0cd62d5b372e",
    ),
    # power exponents are computed, not walked; a modulus with two primes
    # near 10^9 is split by Pollard rho; from 3.3e24 up only primes below
    # 2^20 are divided out, so 2^100 factors, while a prime (2^89 - 1) or a
    # product of two primes near 1.8e12 left at that size is refused
    (
        ["classify", "--rule", "additive:m=1000000007;r=1;c=0,2,0"],
        EXIT_OK,
        "9db90aa254f1064c0b487d116ce2fb1e74e9981f5db0b3e734c43246ba69106e",
    ),
    (
        ["classify", "--rule", "additive:m=1073741824;r=1;c=2,1,0"],
        EXIT_OK,
        "9231094c89ac993e6fd9d9582501752166d83e93fb0d0260e4102d1626f5f40e",
    ),
    (
        ["classify", "--rule", "additive:m=998244359987710471;r=1;c=0,1,0"],
        EXIT_OK,
        "5335c49a018ab28420f08e0172dd8c13cf3aa23326ca1dbcdb04ee3613d6e2fb",
    ),
    (
        ["classify", "--rule", "additive:m=1267650600228229401496703205376;r=1;c=0,1,0"],
        EXIT_OK,
        "60377ba2ba005a5c8dffc2224b9d19da3aca57438cfa12d59a45968b4ddfd4e5",
    ),
    (["classify", "--rule", "additive:m=3317602040901673469388079;r=1;c=0,1,0"], EXIT_RESOURCE, EMPTY),
    (["classify", "--rule", "additive:m=618970019642690137449562111;r=1;c=0,1,0"], EXIT_RESOURCE, EMPTY),
]


def _probe_id(argv):
    return " ".join(a if len(a) <= 100 else f"{a[:16]}...({len(a)} chars)" for a in argv)


def _bounded(argv, code):
    return code == EXIT_RESOURCE or any(len(a) > 5000 or a in COUNTED_SCANS for a in argv)


@pytest.mark.parametrize("argv, code, digest", PROBES, ids=[_probe_id(argv) for argv, _, _ in PROBES])
def test_probe_exits_and_prints_the_pinned_bytes(capsys, tmp_path, argv, code, digest):
    if _bounded(argv, code):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run(
            [sys.executable, "-m", "periodika", *argv],
            capture_output=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert proc.returncode == code
        out = proc.stdout
    else:
        assert main(argv) == code
        out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest
