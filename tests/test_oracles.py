"""Independent brute-force deciders: surjectivity by the de Bruijn subset
automaton (against the preimage-count walk it replaced), equicontinuity by
rule-power table repeats, and product rules."""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_helpers import encode_word, equals, identity_rule, pad_table, preimage_test
from test_kernel_properties import power_rules, table_rules
from periodika import oracles, rules
from periodika.configs import CyclicConfig, EpConfig, _join
from periodika.engine import step
from periodika.oracles import (
    EquicontinuityCert,
    OracleUnknown,
    equicontinuity_oracle,
    surjectivity_oracle,
)
from periodika.periodicity import blocking_word_search
from periodika.additive import is_surjective_additive
from periodika.rules import (
    AdditiveRule,
    ResourceCapError,
    TableRule,
    canonicalize_table,
    compose_table,
    product_rule,
    render_rule_spec,
    table_from_additive,
)

GOLDEN = Path(__file__).parent / "golden"

RULE90 = table_from_additive(AdditiveRule(2, 1, {-1: 1, 1: 1}))
M4_TABLE = table_from_additive(AdditiveRule(4, 1, {-1: 2, 0: 1, 1: 2}))
AND_RULE = TableRule(2, 1, tuple(w[1] * w[2] for w in product(range(2), repeat=3)))


def _all_additive(m: int):
    for coeffs in product(range(m), repeat=3):
        yield AdditiveRule(m, 1, {j - 1: c for j, c in enumerate(coeffs)})


# ---------------------------------------------------------------------------
# surjectivity


def test_surjectivity_oracle_examples():
    assert surjectivity_oracle(RULE90)
    assert not surjectivity_oracle(AND_RULE)
    assert surjectivity_oracle(identity_rule(3))
    assert surjectivity_oracle(table_from_additive(AdditiveRule(2, 1, {1: 1})))
    assert not surjectivity_oracle(table_from_additive(AdditiveRule(4, 1, {0: 2})))


def test_surjectivity_oracle_agrees_with_the_coefficient_test():
    for m in (2, 3, 4):
        for rule in _all_additive(m):
            expected = is_surjective_additive(rule)
            assert surjectivity_oracle(table_from_additive(rule)) == expected


def _preimage_count_surjectivity(rule: TableRule) -> bool:
    """Surjectivity by balance of preimage counts: a rule of radius r over k
    letters is onto iff every word w has exactly ``k**(2r)`` preimage words
    of length ``len(w) + 2r``.  The count vector (preimage paths per de
    Bruijn state) evolves under one transfer per letter, and the reachable
    vectors are explored until one has the wrong sum; in the balanced case
    the entries stay bounded, so the walk ends."""
    k, r = rule.alphabet_size, rule.radius
    states = k ** (2 * r)
    table = rule.table
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for u in range(states):
        base = u * k
        for c in range(k):
            buckets[table[base + c]].append((u, (base + c) % states))
    start = (1,) * states
    seen = {start}
    frontier = [start]
    while frontier:
        vec = frontier.pop()
        for a in range(k):
            nxt = [0] * states
            for u, v in buckets[a]:
                nxt[v] += vec[u]
            if sum(nxt) != states:
                return False
            t = tuple(nxt)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return True


def test_surjectivity_oracle_agrees_with_preimage_counts():
    tables = [TableRule.from_wolfram(code) for code in range(256)]
    tables += [table_from_additive(rule) for m in range(2, 9) for rule in _all_additive(m)]
    assert len(tables) == 1551
    for table in tables:
        assert surjectivity_oracle(table) == _preimage_count_surjectivity(table), table


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4).flatmap(lambda k: table_rules(k, 1)))
def test_surjectivity_oracle_agrees_with_preimage_counts_on_drawn_tables(table):
    assert surjectivity_oracle(table) == _preimage_count_surjectivity(table)


def test_surjectivity_oracle_reads_the_essential_span():
    # the automaton runs on the span alone: a padded, moved window gives
    # the same answer, and so does the count-vector walk over all 2^6
    # states of the padded window
    for code in range(256):
        rule = TableRule.from_wolfram(code)
        padded = pad_table(rule, 3, 1)
        assert surjectivity_oracle(padded) == surjectivity_oracle(rule), code
        assert surjectivity_oracle(rule) == _preimage_count_surjectivity(padded), code


def test_surjectivity_oracle_refuses_past_its_cap(monkeypatch):
    # the 16 * 16^4 move fields of a radius-2 rule mod 16 are refused before
    # the first is built: the call allocates next to nothing
    wide = table_from_additive(AdditiveRule(16, 2, {-2: 2, -1: 1, 2: 2}))
    rules._kernel(wide)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="exceeded cap"):
            surjectivity_oracle(wide)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # onto, and the all-states set has a proper image, so a second set is met
    assert surjectivity_oracle(M4_TABLE)
    monkeypatch.setattr(oracles, "MAX_PREIMAGE_VECTORS", 1)
    with pytest.raises(ResourceCapError, match="exceeded cap"):
        surjectivity_oracle(M4_TABLE)
    # rule 106 is onto; its 8 move fields fit, the 12 state sets it meets
    # do not
    rule106 = TableRule.from_wolfram(106)
    monkeypatch.setattr(oracles, "MAX_PREIMAGE_VECTORS", 8)
    with pytest.raises(ResourceCapError, match="exploration exceeded cap"):
        surjectivity_oracle(rule106)
    monkeypatch.setattr(oracles, "MAX_PREIMAGE_VECTORS", 12)
    assert surjectivity_oracle(rule106)


# ---------------------------------------------------------------------------
# preimages of eventually periodic configurations


def _primitive_words(k: int, n_max: int):
    return [w for n in range(1, n_max + 1) for w in product(range(k), repeat=n) if len(set(w)) == n]


def test_preimage_test_agrees_with_a_cell_by_cell_reference():
    # every state ^inf(a) . mid . (b)^inf with tails of primitive period <= 2
    # and mids of length <= 2, over the elementary rules, their squares F∘F
    # (the rule the empty-STP scan asks), the squares of seeded k=3 rules
    # and the radius-1 additive tables mod 3 and 4; with one-letter tails
    # and mids over tables whose kernels are 343-entry tuples; an onto rule
    # has no Garden of Eden
    rng = random.Random(30)
    elementary = [TableRule.from_wolfram(n) for n in range(256)]
    narrow = elementary + [oracles._square_rule(rule) for rule in elementary]
    narrow += [oracles._square_rule(TableRule(3, 1, tuple(rng.randrange(3) for _ in range(27)))) for _ in range(4)]
    narrow += [table_from_additive(rule) for m in (3, 4) for rule in _all_additive(m)]
    wide = [table_from_additive(rules.parse_rule_spec("additive:m=7;r=1;c=2,0,1"))]
    wide.append(TableRule(7, 1, tuple(rng.randrange(7) for _ in range(343))))
    assert all(isinstance(rules._kernel(rule)[0], tuple) for rule in wide)
    cases = [(rule, 2) for rule in narrow] + [(rule, 1) for rule in wide]
    rejected = 0
    for rule, n_max in cases:
        k = rule.alphabet_size
        tails = _primitive_words(k, n_max)
        mids = [w for n in range(n_max + 1) for w in product(range(k), repeat=n)]
        prune, ref = oracles._preimage_test(rule), preimage_test(rule)
        onto = surjectivity_oracle(rule)
        for a, mid, b in product(tails, mids, tails):
            got = prune(a, mid, b)
            assert got == ref(a, mid, b), (rule, a, mid, b)
            assert got or not onto, (rule, a, mid, b)
            rejected += not got
    assert rejected > 0


# ---------------------------------------------------------------------------
# equicontinuity


def test_equicontinuity_cert_for_an_involution():
    cert = equicontinuity_oracle(M4_TABLE)
    assert isinstance(cert, EquicontinuityCert)
    assert cert.q + cert.p <= 64
    # re-verify the table identity the certificate claims
    powers = [identity_rule(4)]
    for _ in range(cert.q + cert.p):
        powers.append(canonicalize_table(compose_table(M4_TABLE, powers[-1])))
    assert powers[cert.q] == powers[cert.q + cert.p]


def test_equicontinuity_cert_for_identity():
    cert = equicontinuity_oracle(identity_rule(2))
    assert cert == EquicontinuityCert(0, 1)


def test_equicontinuity_unknown_for_a_sensitive_rule():
    out = equicontinuity_oracle(RULE90)
    assert isinstance(out, OracleUnknown)
    assert out.powers_computed >= 1


def test_equicontinuity_certs_for_all_small_equicontinuous_rules():
    # rules over Z_4 whose off-center coefficients are even never separate
    # nearby points; the oracle must certify every one of them
    for rule in _all_additive(4):
        off = [rule.coeffs.get(-1, 0), rule.coeffs.get(1, 0)]
        if any(c % 2 for c in off):
            continue
        cert = equicontinuity_oracle(table_from_additive(rule))
        assert isinstance(cert, EquicontinuityCert)
        assert cert.q + cert.p <= 64


def _seeded_table_rules(n=300, seed=12):
    """``n`` table rules (k = 2 with radius <= 2, k = 3 with radius <= 1,
    offsets -2..2) that read a random subset of their window, so constant,
    one-sided, identity-like and certified rules all occur."""
    rng = random.Random(seed)
    rules = []
    for _ in range(n):
        k = rng.choice((2, 3))
        radius = rng.randrange(3 if k == 2 else 2)
        offset = rng.randrange(-2, 3)
        width = 2 * radius + 1
        kept = [j for j in range(width) if rng.random() < 0.6]
        inner = [rng.randrange(k) for _ in range(k ** len(kept))]
        table = tuple(
            inner[encode_word([w[j] for j in kept], k)] for w in product(range(k), repeat=width)
        )
        rules.append(TableRule(k, radius, table, offset))
    return rules


def _walk_records():
    """One line per rule: the oracle's result, a digest of every canonical
    power the walk built, and the blocking search over those powers."""
    labelled = [
        (render_rule_spec(rule), table_from_additive(rule))
        for m in range(2, 7)
        for rule in _all_additive(m)
    ]
    labelled += [
        (f"table:k={t.alphabet_size};r={t.radius};o={t.offset};t={''.join(map(str, t.table))}", t)
        for t in _seeded_table_rules()
    ]
    for label, rule in labelled:
        # equicontinuity_oracle(rule) is the walk's first result
        cert, powers = power_rules(rule)
        digest = hashlib.sha256(repr([(p.radius, p.offset, p.table) for p in powers]).encode())
        yield {
            "rule": label,
            "oracle": repr(cert),
            "powers_sha256": digest.hexdigest(),
            # k_max 8 admits every exact word; a single step keeps the
            # bounded search of sensitive rules short
            "blocking": repr(blocking_word_search(rule, 8, 1, 1)),
        }


def _walk_records_text():
    return "[\n" + ",\n".join(json.dumps(r) for r in _walk_records()) + "\n]\n"


def test_power_walks_match_golden_records():
    # certificates, unknowns, every canonical power and the blocking words
    # built on them, for 740 rules, recorded from the walk over padded tables
    assert _walk_records_text() == (GOLDEN / "oracle_walks.json").read_text()


# ---------------------------------------------------------------------------
# product rules


def test_product_of_identities_is_the_product_identity():
    prod = product_rule(identity_rule(2), identity_rule(2))
    assert prod.alphabet_size == 4
    assert canonicalize_table(prod) == canonicalize_table(identity_rule(4))


def test_product_rule_steps_componentwise():
    shift = table_from_additive(AdditiveRule(2, 1, {1: 1}))
    padded = pad_table(RULE90, 3, 2)
    pairs = [
        (RULE90, identity_rule(2)),
        (M4_TABLE, RULE90),
        (shift, RULE90),
        (padded, M4_TABLE),
        (canonicalize_table(shift), padded),  # the first reads x_1 alone, at offset 1
    ]
    for f, g in pairs:
        kf, kg = f.alphabet_size, g.alphabet_size
        prod = product_rule(f, g)
        # the product reads the essential spans only
        canonical = product_rule(canonicalize_table(f), canonicalize_table(g))
        assert canonicalize_table(canonical) == canonicalize_table(prod)
        samples = [
            (CyclicConfig(kf, (1, 0)), CyclicConfig(kg, (1, 1, 0))),
            (
                EpConfig(kf, (0,), (1,), (0,), 0),
                EpConfig(kg, (0,), (1,), (0,), -1),
            ),
        ]
        for x, y in samples:
            fused = _join((x, y), lambda a, b: a * kg + b, kf * kg)
            stepped = step(prod, fused)
            expected = _join((step(f, x), step(g, y)), lambda a, b: a * kg + b, kf * kg)
            assert equals(stepped, expected)
            assert equals(_join((stepped,), lambda c: c // kg, kf), step(f, x))
            assert equals(_join((stepped,), lambda c: c % kg, kg), step(g, y))


def test_product_rule_resource_cap(monkeypatch):
    # a padded window is not read: RULE90 over radius 4 still spans 3 cells
    padded = pad_table(RULE90, 4)
    assert len(product_rule(padded, padded).table) == 4**3
    # x_-5 + x_5 depends on all 11 cells of its span, and 4^11 > 2 000 000:
    # refused before either span table is padded
    wide = table_from_additive(AdditiveRule(2, 5, {-5: 1, 5: 1}))

    def unreached(*args):
        raise AssertionError("a table was padded past the cap")

    monkeypatch.setattr(rules, "_pad", unreached)
    with pytest.raises(ResourceCapError):
        product_rule(wide, wide)
