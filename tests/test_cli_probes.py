"""Command lines whose exit status and output bytes are pinned: each row is
``(argv, exit status, sha256 of stdout)``.  The rows repeat probes of the
CI workflow, so tier-1 catches a change in their bytes as well."""

from __future__ import annotations

import hashlib

import pytest

from periodika.cli import EXIT_OK, EXIT_RESOURCE, main

EMPTY = hashlib.sha256(b"").hexdigest()

PROBES = [
    # rule 22 is not onto and has no drift prune: the walked scan
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
    # 2^24 mids, or 300^3, over the table cap: refused before the first walk
    (["scan", "--rule", "wolfram:22", "--mid-len-max", "24"], EXIT_RESOURCE, EMPTY),
    (["scan", "--rule", "additive:m=300;r=0;c=7"], EXIT_RESOURCE, EMPTY),
    # 8.1e9 tail pairs, streamed up to the violation cap
    (
        ["scan", "--rule", "additive:m=300;r=0;c=7", "--mid-len-max", "1"],
        EXIT_OK,
        "45b4019d280a47adf03492249be4852abad57f15f38579873ed1b1628765d73a",
    ),
]


@pytest.mark.parametrize("argv, code, digest", PROBES, ids=[" ".join(argv) for argv, _, _ in PROBES])
def test_probe_exits_and_prints_the_pinned_bytes(capsys, argv, code, digest):
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
