"""Periodic-orbit tooling: jointly periodic censuses, blocking words,
strictly-temporally-periodic witnesses, falsification scans, and product
witnesses."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from itertools import permutations, product

import pytest

from reference_helpers import (
    encode_word,
    equals,
    essential_span,
    identity_rule,
    mirror_rule,
    rotate_letters,
    value_at,
)
from test_kernel_properties import power_rules
from periodika.configs import CyclicConfig, EpConfig, is_spatially_periodic, render_config
from periodika import oracles, periodicity
from periodika.engine import CycleResult, CycleTimeout, _ep_stepper, _orbit, step
from periodika.additive import (
    StpVerdict,
    classify_additive,
    decompose_crt,
    is_surjective_additive,
    permutative_power,
)
from periodika.oracles import (
    EquicontinuityCert,
    _packed_power_walk,
    _preimage_test,
    equicontinuity_oracle,
    surjectivity_oracle,
)
from periodika.periodicity import (
    BlockingCert,
    BlockingMiss,
    BlockingStatus,
    DegenerateUError,
    ScanBounds,
    StpWitness,
    WitnessMiss,
    blocking_word_search,
    jointly_periodic_points,
    product_witness_scan,
    stp_empty_scan,
    stp_witness,
    stp_witness_additive,
)
from periodika import rules as rules_module
from periodika.rules import (
    AdditiveRule,
    NotSurjectiveError,
    ResourceCapError,
    TableRule,
    _kernel,
    canonicalize_table,
    compose_table,
    parse_rule_spec,
    product_rule,
    table_from_additive,
)

RULE90_ADD = AdditiveRule(2, 1, {-1: 1, 1: 1})
M4_ADD = AdditiveRule(4, 1, {-1: 2, 0: 1, 1: 2})
M6_ADD = AdditiveRule(6, 1, {-1: 4, 0: 1, 1: 4})
RADIUS1_ADDS = [
    AdditiveRule(m, 1, dict(zip((-1, 0, 1), c)))
    for m in range(2, 7)
    for c in product(range(m), repeat=3)
]
RADIUS2_M4_ADDS = [AdditiveRule(4, 2, dict(zip(range(-2, 3), c))) for c in product(range(4), repeat=5)]
SHIFT2_ADD = AdditiveRule(2, 1, {1: 1})

RULE90 = table_from_additive(RULE90_ADD)
M4_TABLE = table_from_additive(M4_ADD)
SHIFT2 = table_from_additive(SHIFT2_ADD)
AND_RULE = TableRule(2, 1, tuple(w[1] * w[2] for w in product(range(2), repeat=3)))


def _rendered(points):
    return [(render_config(cfg), t) for cfg, t in points]


# ---------------------------------------------------------------------------
# jointly periodic censuses


def test_jp_census_rule_90_length_3():
    census = jointly_periodic_points(RULE90, 3, 64)
    assert _rendered(census.points) == [
        ("cyclic:0@0", 1),
        ("cyclic:011@0", 1),
        ("cyclic:101@0", 1),
        ("cyclic:110@0", 1),
    ]
    # the all-ones word maps to all zeros and never comes back
    listed = {cfg for cfg, _ in census.points}
    assert CyclicConfig(2, (1, 1, 1)) not in listed


def test_jp_census_identity_length_2():
    census = jointly_periodic_points(identity_rule(2), 2, 64)
    assert _rendered(census.points) == [
        ("cyclic:0@0", 1),
        ("cyclic:1@0", 1),
        ("cyclic:01@0", 1),
        ("cyclic:10@0", 1),
    ]


def test_jp_census_shift_length_2():
    census = jointly_periodic_points(SHIFT2, 2, 64)
    assert _rendered(census.points) == [
        ("cyclic:0@0", 1),
        ("cyclic:1@0", 1),
        ("cyclic:01@0", 2),
        ("cyclic:10@0", 2),
    ]


def test_jp_census_respects_t_max():
    census = jointly_periodic_points(SHIFT2, 2, 1)
    assert _rendered(census.points) == [("cyclic:0@0", 1), ("cyclic:1@0", 1)]


def test_jp_census_periods_are_exact_and_minimal():
    for rule in (RULE90, SHIFT2, M4_TABLE):
        census = jointly_periodic_points(rule, 3, 64)
        assert census.points, rule
        for cfg, t in census.points:
            cur = cfg
            for n in range(1, t):
                cur = step(rule, cur)
                assert not equals(cur, cfg)
            assert equals(step(rule, cur), cfg)


def test_jp_census_roots_match_the_public_constructor():
    # every word is a point of the identity; the census reads each point's
    # primitive root off its index, the constructor finds it by search
    for k, n_max in ((2, 12), (3, 6), (4, 4)):
        for n in range(1, n_max + 1):
            census = jointly_periodic_points(identity_rule(k), n, 1)
            words = product(range(k), repeat=n)
            want = sorted((CyclicConfig(k, w) for w in words), key=lambda c: (len(c.word), c.word))
            assert [cfg for cfg, _ in census.points] == want, (k, n)


def test_jp_census_input_validation():
    with pytest.raises(ValueError):
        jointly_periodic_points(RULE90, 0, 8)
    with pytest.raises(ResourceCapError):
        jointly_periodic_points(RULE90, 21, 8)


def test_jp_census_rejects_a_negative_t_max():
    with pytest.raises(ValueError, match="t_max"):
        jointly_periodic_points(RULE90, 3, -1)
    assert jointly_periodic_points(RULE90, 3, 0).points == ()


def _window_indices(k, width, lo, n):
    """For each cyclic word of length ``n``, in index order, the index of the
    window of every cell: cell ``i`` reads cells ``i + lo .. i + lo + width - 1``."""
    return [
        [encode_word([w[(i + lo + d) % n] for d in range(width)], k) for i in range(n)]
        for w in product(range(k), repeat=n)
    ]


def _census_kernel_cases():
    rng = random.Random(2024)

    def random_rule(k, radius, offset):
        table = tuple(rng.randrange(k) for _ in range(k ** (2 * radius + 1)))
        return TableRule(k, radius, table, offset)

    cases = [(TableRule.from_wolfram(code), 10) for code in range(256)]
    for offset in range(-3, 4):
        cases.append((random_rule(3, 1, offset), 6))
        cases.append((random_rule(2, 2, offset), 8))
        cases += [(random_rule(k, 0, offset), n_max) for k, n_max in ((2, 8), (3, 6), (4, 5))]
    for offset in range(-3, 4):
        # span tables of 64, 125 and 216 bytes: 4, 3 and 3 image cells per
        # byte lane
        cases += [(random_rule(k, 1, offset), n_max) for k, n_max in ((4, 5), (5, 4), (6, 4))]
        # span tables of 512 and 343 entries are tuples, built level by level
        cases += [(random_rule(2, 4, offset), 10), (random_rule(7, 1, offset), 4)]
    return cases


def test_census_successors_match_a_per_word_reference():
    # the per-word reference looks up every cell's window of each word and
    # encodes the image word; words shorter than the window wrap around
    # more than once
    windows = {}  # shared by the rules that read the same windows
    for rule, n_max in _census_kernel_cases():
        k = rule.alphabet_size
        for n in range(1, n_max + 1):
            geometry = (k, rule.width, rule.offset - rule.radius, n)
            if geometry not in windows:
                windows[geometry] = _window_indices(*geometry)
            table = rule.table
            expected = [encode_word([table[v] for v in cells], k) for cells in windows[geometry]]
            assert rules_module._cyclic_images(rule, n) == expected, (rule, n)


def test_census_successors_past_two_byte_indices():
    # 2**17 and 3**11 words, so that most words and their images have
    # indices past 2**16: 300 seeded words of each against the per-word
    # reading
    rng = random.Random(2025)
    for k, n in ((2, 17), (3, 11)):
        rule = TableRule(k, 1, tuple(rng.randrange(k) for _ in range(k**3)), rng.randrange(-1, 2))
        lo = rule.offset - 1
        succ = rules_module._cyclic_images(rule, n)
        assert len(succ) == k**n
        for j in rng.sample(range(k**n), 300):
            w = [j // k ** (n - 1 - c) % k for c in range(n)]
            windows = [encode_word([w[(i + lo + d) % n] for d in range(3)], k) for i in range(n)]
            assert succ[j] == encode_word([rule.table[v] for v in windows], k), (rule, n, j)


# ---------------------------------------------------------------------------
# blocking words


def test_blocking_word_for_an_equicontinuous_rule_is_exact():
    cert = blocking_word_search(M4_TABLE)
    assert cert == BlockingCert(
        word=(0, 0, 0),
        offset=1,
        width=1,
        verified_background_period=0,
        verified_steps=2,
        status=BlockingStatus.EXACT,
    )


def test_blocking_word_miss_for_sensitive_rules():
    assert blocking_word_search(RULE90) == BlockingMiss(4, 2, 16)
    assert blocking_word_search(SHIFT2) == BlockingMiss(4, 2, 16)


def test_blocking_word_for_identity():
    cert = blocking_word_search(identity_rule(2))
    assert cert.word == (0,) and cert.offset == 0 and cert.width == 1
    assert cert.status is BlockingStatus.EXACT


def test_blocking_word_bounded_verification_without_certificate():
    # zeros absorb under multiplication, but the rule has no repeating
    # power, so verification stays bounded
    cert = blocking_word_search(AND_RULE)
    assert cert.word == (0,) and cert.status is BlockingStatus.BOUNDED_VERIFIED
    assert cert.verified_background_period == 2 and cert.verified_steps == 16


def test_bounded_blocking_search_refuses_background_words_over_the_cap():
    # the tails up to length P hold fewer than 2 P 2^P letters: 17 * 2^17
    # is over the cap of 2 000 000, and so is 21 * 2^21; refused before any
    # tail is built
    for bg_period in (17, 21):
        with pytest.raises(ResourceCapError):
            blocking_word_search(RULE90, bg_period=bg_period)
    # the exact path never reads bg_period, so it is not capped
    cert = blocking_word_search(M4_TABLE, bg_period=30)
    assert cert.status is BlockingStatus.EXACT
    assert cert == blocking_word_search(M4_TABLE)


def _spans_fit(spans, j, s, word_len):
    """Whether every power's dependence window, shifted into the observed
    column, stays inside the word ``[0, word_len)``."""
    for span in spans:
        if span is None:
            continue
        lo, hi = span
        if j + lo < 0 or j + s - 1 + hi > word_len - 1:
            return False
    return True


def _first_fitting_word(rule, k_max):
    """The exact branch as a plain search: the first ``(word_len, u, j)``
    whose column holds the dependence window of every power."""
    cert, powers = power_rules(rule)
    spans = [essential_span(power) for power in powers]
    s = max(rule.radius, 1)
    for word_len in range(s, k_max + 1):
        for u in product(range(rule.alphabet_size), repeat=word_len):
            for j in range(0, word_len - s + 1):
                if _spans_fit(spans, j, s, word_len):
                    return BlockingCert(u, j, s, 0, cert.q + cert.p, BlockingStatus.EXACT)
    return BlockingMiss(k_max, 2, 16)


def test_exact_blocking_word_is_the_first_word_whose_column_fits():
    rules = [TableRule.from_wolfram(n) for n in range(256)]
    rules += [table_from_additive(rule) for rule in RADIUS1_ADDS]
    # the k = 3 rules that permute the centre letter
    rules += [
        TableRule(3, 1, tuple(p[w // 3 % 3] for w in range(27))) for p in permutations(range(3))
    ]
    certified = [rule for rule in rules if isinstance(_packed_power_walk(rule)[0], EquicontinuityCert)]
    assert len(certified) == 70
    for rule in certified:
        for k_max in range(9):
            expected = _first_fitting_word(rule, k_max)
            assert blocking_word_search(rule, k_max) == expected, (rule, k_max)


def _rows_by_stepping(rule, u, bg_period, steps):
    """Cells ``0 .. len(u) - 1`` along the orbit of every bounded context
    ``^inf(a) . u . (b)^inf``, as public configurations, engine steps and
    one ``value_at`` per letter."""
    k = rule.alphabet_size
    tails = [t for n in range(1, bg_period + 1) for t in product(range(k), repeat=n)]
    contexts = []
    for a in tails:
        for b in tails:
            x = EpConfig(k, a, u, b, 0)
            rows = []
            for _ in range(steps + 1):
                rows.append(tuple(value_at(x, c) for c in range(len(u))))
                x = step(rule, x)
            contexts.append(rows)
    return contexts


def test_bounded_blocking_search_matches_a_stepping_reference(monkeypatch):
    rules = [TableRule.from_wolfram(n) for n in range(256)]
    rng = random.Random(3)
    rules += [TableRule(3, 1, tuple(rng.randrange(3) for _ in range(27))) for _ in range(12)]
    found = [blocking_word_search(rule, 3, 1, 6) for rule in rules]

    def first_constant_offset(rule, u, s, tails, steps, advance):
        # the search hands over its primitive tails; the reference steps
        # every tail up to the longest of them
        contexts = _rows_by_stepping(rule, u, max(map(len, tails)), steps)
        for j in range(len(u) - s + 1):
            if len({tuple(row[j : j + s] for row in rows) for rows in contexts}) == 1:
                return j
        return None

    monkeypatch.setattr(periodicity, "_constant_column_offset", first_constant_offset)
    for rule, got in zip(rules, found):
        assert blocking_word_search(rule, 3, 1, 6) == got, rule
    # 128 elementary rules and one k = 3 rule get a bounded certificate;
    # every other word the search tries fails the column check
    bounded = [got for got in found if getattr(got, "status", None) is BlockingStatus.BOUNDED_VERIFIED]
    assert len(bounded) == 129


def test_blocking_column_is_identical_across_contexts():
    cert = blocking_word_search(M4_TABLE)
    columns = set()
    for left in ((0,), (1,), (2, 3)):
        for right in ((0,), (3,), (1, 2)):
            x = EpConfig(4, left, cert.word, right, 0)
            col = []
            for _ in range(8):
                window = tuple(
                    value_at(x, c) for c in range(cert.offset, cert.offset + cert.width)
                )
                col.append(window)
                x = step(M4_TABLE, x)
            columns.add(tuple(col))
    assert len(columns) == 1


# ---------------------------------------------------------------------------
# strictly temporally periodic witnesses


def test_stp_witness_pipeline_for_the_equicontinuous_rule():
    cert = blocking_word_search(M4_TABLE)
    witness = stp_witness(M4_TABLE, cert, (1,))
    assert isinstance(witness, StpWitness)
    assert render_config(witness.config) == "ep:0|1|0@0"
    assert witness.period == 2


def test_stp_witness_for_identity():
    cert = blocking_word_search(identity_rule(2))
    witness = stp_witness(identity_rule(2), cert, (1,))
    assert witness.period == 1
    assert render_config(witness.config) == "ep:0|1|0@0"


def test_stp_witness_miss_for_a_transitive_rule():
    fake = BlockingCert((0,), 0, 1, 0, 0, BlockingStatus.BOUNDED_VERIFIED)
    out = stp_witness(RULE90, fake, (1,))
    assert isinstance(out, WitnessMiss)
    assert out.t_max == 64


def test_stp_witness_miss_for_a_preperiodic_orbit(monkeypatch):
    # no seed of a surjective rule is known whose orbit is preperiodic, so
    # the branch is reached through a stubbed return check
    monkeypatch.setattr(periodicity, "_return_witness", lambda *args: CycleResult(3, 2))
    cert = blocking_word_search(M4_TABLE)
    out = stp_witness(M4_TABLE, cert, (1,))
    assert out == WitnessMiss(64, "orbit is preperiodic (preperiod 3)")


def test_stp_witness_rejects_degenerate_seeds():
    cert = blocking_word_search(M4_TABLE)
    with pytest.raises(DegenerateUError):
        stp_witness(M4_TABLE, cert, (0,))
    with pytest.raises(ValueError):
        stp_witness(M4_TABLE, cert, ())


def test_stp_witness_requires_surjectivity():
    fake = BlockingCert((0,), 0, 1, 0, 0, BlockingStatus.BOUNDED_VERIFIED)
    with pytest.raises(NotSurjectiveError):
        stp_witness(AND_RULE, fake, (1,))


def test_witness_searches_check_t_max_before_anything_else():
    # a rule that is not onto, and one whose search would miss at once
    fake = BlockingCert((0,), 0, 1, 0, 0, BlockingStatus.BOUNDED_VERIFIED)
    with pytest.raises(ValueError, match="t_max must be non-negative"):
        stp_witness(AND_RULE, fake, (), -1)
    with pytest.raises(ValueError, match="t_max must be non-negative"):
        stp_witness_additive(RULE90_ADD, -1)


def test_stp_witness_additive_mixed_factors():
    witness = stp_witness_additive(M6_ADD)
    assert isinstance(witness, StpWitness)
    assert render_config(witness.config) == "ep:0|3|0@0"
    assert witness.period == 1
    # the seed letter is 1 at the equicontinuous factor and 0 at the
    # expansive one, so the defect persists but returns
    assert not is_spatially_periodic(witness.config)


def test_stp_witness_additive_equicontinuous():
    witness = stp_witness_additive(M4_ADD)
    assert render_config(witness.config) == "ep:0|1|0@0" and witness.period == 2


def test_stp_witness_additive_larger_modulus():
    witness = stp_witness_additive(AdditiveRule(12, 1, {-1: 4, 0: 1, 1: 4}))
    assert render_config(witness.config) == "ep:0|9|0@0" and witness.period == 1


def test_stp_witness_additive_miss_for_transitive_rules():
    out = stp_witness_additive(RULE90_ADD)
    assert isinstance(out, WitnessMiss)
    assert "transitive" in out.reason


def test_stp_witness_additive_requires_surjectivity():
    with pytest.raises(NotSurjectiveError):
        stp_witness_additive(AdditiveRule(4, 1, {0: 2}))


def test_stp_witnesses_survive_independent_stepping():
    for witness, table in (
        (stp_witness_additive(M6_ADD), table_from_additive(M6_ADD)),
        (stp_witness_additive(M4_ADD), M4_TABLE),
    ):
        assert isinstance(witness, StpWitness)
        cur = witness.config
        for _ in range(witness.period):
            cur = step(table, cur)
        assert equals(cur, witness.config)
        assert not is_spatially_periodic(witness.config)


# ---------------------------------------------------------------------------
# falsification scans


def test_scan_finds_nothing_for_rule_90():
    result = stp_empty_scan(RULE90)
    assert result.bounds == ScanBounds(2, 3, 32)
    assert result.examined == 4
    assert result.violations == () and not result.truncated


def test_scan_finds_nothing_for_the_shift():
    result = stp_empty_scan(SHIFT2, 2, 2, 16)
    assert result.examined == 36
    assert result.violations == ()


def test_scan_prunes_additive_input_through_its_factors():
    # neither boundary coefficient is a unit mod 6, but both prime-power
    # reductions are one-sided, so the factor argument settles the scan
    result = stp_empty_scan(AdditiveRule(6, 1, {-1: 2, 0: 0, 1: 3}), 1, 1, 32)
    assert result.examined == 180
    assert result.violations == ()


def test_scan_prunes_additive_shift_directly():
    result = stp_empty_scan(SHIFT2_ADD)
    assert result.examined == 68
    assert result.violations == ()


def test_scan_reports_violations_for_an_equicontinuous_rule():
    result = stp_empty_scan(M4_ADD, 1, 1, 4)
    assert result.examined == 48
    assert len(result.violations) == 48 and not result.truncated
    found = {render_config(w.config): w.period for w in result.violations}
    assert found["ep:0|1|0@0"] == 2
    assert found["ep:0|2|0@0"] == 1
    assert found["ep:0|3|0@0"] == 2
    for w in result.violations:
        assert not is_spatially_periodic(w.config)
        cur = w.config
        for _ in range(w.period):
            cur = step(M4_TABLE, cur)
        assert equals(cur, w.config)


def test_scan_truncates_at_the_violation_cap():
    result = stp_empty_scan(M4_ADD, 1, 1, 4, max_violations=10)
    assert len(result.violations) == 10 and result.truncated


def test_scan_streams_its_tail_pairs():
    # 90 000 tails make 8.1e9 tail pairs, walked or counted one at a time:
    # the run stops at the violation cap, or at the mids cap before walking
    rule = AdditiveRule(300, 0, {0: 7})
    result = stp_empty_scan(rule, 2, 1, 32, 5)
    assert len(result.violations) == 5 and result.truncated
    with pytest.raises(ResourceCapError):
        stp_empty_scan(rule, 2, 3, 32, 5)


def test_scan_reads_the_mids_cap_before_the_tail_census(monkeypatch):
    # no drift prune and 300^3 mids: the mids cap alone refuses the scan,
    # so the census of the 90 000 tail words is never taken
    def no_census(rule, n_max, t_max):
        raise AssertionError("the tail census was taken")

    monkeypatch.setattr(periodicity, "_primitive_points", no_census)
    with pytest.raises(ResourceCapError, match="300\\^3"):
        stp_empty_scan(AdditiveRule(300, 0, {0: 7}))


def test_a_scan_and_a_bounded_blocking_search_each_build_one_stepper(monkeypatch):
    # every walk of one call steps on the call's stepper and fills its
    # memo; the re-checks build theirs in the engine, not here
    made = []

    def counted(kernel, memo=None):
        made.append(memo)
        return _ep_stepper(kernel, memo)

    monkeypatch.setattr(periodicity, "_ep_stepper", counted)
    result = stp_empty_scan(M4_TABLE, 1, 1, 4)
    assert len(made) == 1 and made[0]
    assert result.violations
    made.clear()
    cert = blocking_word_search(AND_RULE)
    assert cert.status is BlockingStatus.BOUNDED_VERIFIED
    assert len(made) == 1 and made[0]


def test_scan_walks_past_the_preimage_tests_bit_budget_without_its_masks():
    # not onto (its mod-2 factor is zero) and with no drift prune; its
    # 10^4 move masks of 10^5 bits each are over the budget, so no test is
    # built and every candidate is walked, in about what the walks take
    rule = AdditiveRule(10, 2, {-2: 2, 2: 2})
    assert not is_surjective_additive(rule)
    assert _preimage_test(table_from_additive(rule)) is None
    tracemalloc.start()
    try:
        result = stp_empty_scan(rule, 1, 1, 8)
        assert tracemalloc.get_traced_memory()[1] < 8 << 20
    finally:
        tracemalloc.stop()
    assert result.examined == 225 and not result.violations


def test_scan_walks_tails_by_length_then_word():
    # swapping letters 0 and 1 gives the tail 2 the shortest temporal
    # period, so an order by period would walk it first
    swap = TableRule(3, 1, tuple((1, 0, 2)[w // 3 % 3] for w in range(27)))
    result = stp_empty_scan(swap, 1, 1, 4, max_violations=3)
    assert [render_config(w.config) for w in result.violations] == [
        "ep:0|1|0@0",
        "ep:0|2|0@0",
        "ep:0||1@0",
    ]
    assert result.examined == 3 and result.truncated


def test_scan_table_and_additive_inputs_agree():
    table_result = stp_empty_scan(M4_TABLE, 1, 1, 4)
    additive_result = stp_empty_scan(M4_ADD, 1, 1, 4)
    assert {render_config(w.config) for w in table_result.violations} == {
        render_config(w.config) for w in additive_result.violations
    }


def _first_return(rule, x, max_steps, max_mid=None):
    """Orbit shape as far as a scan needs it: only an exact return to ``x``."""
    cur = x
    for n in range(1, max_steps + 1):
        cur = step(rule, cur)
        if cur == x:
            return CycleResult(0, n)
    return CycleTimeout(max_steps)


def test_scan_agrees_with_a_plain_return_walk_on_every_elementary_rule(monkeypatch):
    # an early exit of the orbit detector, or a stale successor memo, must
    # never drop a violation, and with no drift sides and no preimage test
    # every candidate is walked: a prune must neither drop a violation nor
    # count other than the family it skips
    cases = [(TableRule.from_wolfram(n), (2, 2, 16)) for n in range(256)]
    cases += [(rule, (1, 1, 2)) for rule in RADIUS1_ADDS if is_surjective_additive(rule)]
    # the Empty rules that drift only at a power, counted by the prune; 4 is
    # a prime power, so F is their one factor
    misses = [
        rule
        for rule in RADIUS2_M4_ADDS
        if classify_additive(rule).stp is StpVerdict.EMPTY
        and not periodicity._prune_sides(table_from_additive(rule))
    ]
    assert len(misses) == 76
    cases += [(rule, (1, 2, 4)) for rule in misses]
    results = [stp_empty_scan(rule, *bounds) for rule, bounds in cases]
    walked = []

    def plain_cycle(rule, state, max_steps, max_mid, advance=None):
        walked.append(state)
        return _first_return(rule, EpConfig(rule.alphabet_size, *state), max_steps, max_mid)

    monkeypatch.setattr(periodicity, "_cycle", plain_cycle)
    monkeypatch.setattr(periodicity, "_prune_sides", lambda rule: [])
    monkeypatch.setattr(periodicity, "_preimage_test", lambda rule: None)
    assert results == [stp_empty_scan(rule, *bounds) for rule, bounds in cases]
    assert sum(len(r.violations) for r in results) > 0
    assert len(walked) == sum(r.examined for r in results)


# sha256 of the rendered scans below, recorded from a build whose orbit
# detector walked every candidate to its return, its step budget or a
# translated repeat
ELEMENTARY_AND_K3_SCANS_DIGEST = "952c83b8bc5b02d5b808bd7215ff722d563a5c3277bcb5a2d90715f8f2a27ddd"


def test_scans_of_every_elementary_and_seeded_k3_rule_keep_their_bytes():
    # the runaway-edge exit ends most walks of these scans early; their
    # counts, violations, periods and order must not move
    rng = random.Random(29)
    cases = [(TableRule.from_wolfram(n), (2, 3, 32)) for n in range(256)]
    cases += [(TableRule.from_wolfram(rng.randrange(3**27), 3), (2, 2, 32)) for _ in range(20)]
    digest = hashlib.sha256()
    for rule, bounds in cases:
        res = stp_empty_scan(rule, *bounds)
        lines = [f"{res.bounds} examined={res.examined} truncated={res.truncated}"]
        lines += [f"{render_config(w.config)} period={w.period}" for w in res.violations]
        digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == ELEMENTARY_AND_K3_SCANS_DIGEST


def test_return_witness_rechecks_without_the_successor_memo():
    # a memo that maps y to itself makes the cycle detection see a return
    # after one step; the re-check walks the orbit on a fresh stepper with
    # no memo and refuses it
    y = EpConfig(2, (0,), (1,), (0,), 0)
    kernel = _kernel(RULE90)
    pack = type(kernel[0])  # memo keys are packed states
    key = tuple(map(pack, (y.left, y.mid, y.right)))
    poisoned = _ep_stepper(kernel, {key: (*key, 0)})
    with pytest.raises(AssertionError, match="re-verification at period 1"):
        periodicity._return_witness(RULE90, y, 8, advance=poisoned)
    fresh = _ep_stepper(kernel, {})
    assert isinstance(periodicity._return_witness(RULE90, y, 8, advance=fresh), CycleTimeout)


def _square_pruned_scans(monkeypatch, cases):
    """The scans of ``cases`` with the F² prune, after checking that they
    equal the scans with F's own preimage test, and the candidates that
    F's test admits and F²'s rejects, as ``(rule, config, t_max)``."""
    results = [stp_empty_scan(rule, *bounds) for rule, bounds in cases]
    dropped = []
    current = []

    def square_rule(rule):
        current.append(rule)
        return square(rule)

    def both_tests(rule2):
        rule = current[-1]
        by_f, by_square = _preimage_test(rule), _preimage_test(rule2)

        def has_preimage(a, mid, b):
            got = by_square(a, mid, b)
            # F²(X) lies inside F(X)
            assert by_f(a, mid, b) or not got, (rule, a, mid, b)
            if by_f(a, mid, b) and not got:
                dropped.append((rule, EpConfig(rule.alphabet_size, a, mid, b, 0)))
            return got

        return has_preimage

    square = oracles._square_rule
    monkeypatch.setattr(periodicity, "_square_rule", square_rule)
    monkeypatch.setattr(periodicity, "_preimage_test", both_tests)
    assert results == [stp_empty_scan(rule, *bounds) for rule, bounds in cases]
    monkeypatch.setattr(periodicity, "_square_rule", lambda rule: rule)
    monkeypatch.setattr(periodicity, "_preimage_test", _preimage_test)
    assert results == [stp_empty_scan(rule, *bounds) for rule, bounds in cases]
    return results, dropped


def test_square_prune_keeps_every_elementary_scan(monkeypatch):
    # the scans with the F² test equal those with F's test alone, and no
    # candidate that only F² rules out returns in a walk without the memo
    cases = [(TableRule.from_wolfram(n), (2, 3, 16)) for n in range(256)]
    results, dropped = _square_pruned_scans(monkeypatch, cases)
    assert sum(len(r.violations) for r in results) > 0
    assert len(dropped) > 100
    for rule, y in dropped:
        assert not isinstance(periodicity._return_witness(rule, y, 16), StpWitness), (rule, y)


def test_square_prune_keeps_k3_scans(monkeypatch):
    rng = random.Random(26)
    cases = [(TableRule.from_wolfram(rng.randrange(3**27), 3), (2, 2, 16)) for _ in range(24)]
    results, dropped = _square_pruned_scans(monkeypatch, cases)
    assert sum(len(r.violations) for r in results) > 0
    assert dropped
    for rule, y in dropped:
        assert not isinstance(periodicity._return_witness(rule, y, 16), StpWitness), (rule, y)


def test_square_rule_is_the_composed_square():
    rng = random.Random(261)
    rules = [TableRule.from_wolfram(n) for n in (22, 30, 110, 204)]
    rules += [TableRule.from_wolfram(rng.randrange(3**27), 3) for _ in range(4)]
    rules += [table_from_additive(AdditiveRule(4, 1, {-1: 1, 1: 2}))]
    for rule in rules:
        assert oracles._square_rule(rule) is not rule
        want = canonicalize_table(compose_table(rule, rule))
        assert canonicalize_table(oracles._square_rule(rule)) == want, rule


def test_scan_over_the_square_tests_budget_composes_nothing(monkeypatch):
    # k = 5 and a span of 3: F²'s test would hold 5·625² > 10^6 bits, F's
    # 5·25², so the scan prunes by F(X) alone and composes no table; the
    # counts are those of the scan before the F² prune
    rule = TableRule.from_wolfram(561693968798111919940, 5)
    assert not surjectivity_oracle(rule) and _kernel(rule)[1] == 3
    assert oracles._square_rule(rule) is rule

    def refuse(*args):
        raise AssertionError("composed a table past the budget")

    monkeypatch.setattr(oracles, "_compose", refuse)
    monkeypatch.setattr(rules_module, "_compose", refuse)
    result = stp_empty_scan(rule)
    assert (result.examined, len(result.violations), result.truncated) == (2506, 22, False)


def test_prune_sides_read_each_factors_permutative_power(monkeypatch):
    # the prune has sides exactly for the additive theorem's Empty verdict;
    # each factor's sides are those of its power f^h, read off the power's
    # own table where that is small enough
    rng = random.Random(31)
    samples = [
        AdditiveRule(m, 2, dict(zip(range(-2, 3), (rng.randrange(m) for _ in range(5)))))
        for m in (8, 9)
        for _ in range(60)
    ]
    cases = [AdditiveRule(m, 1, dict(zip((-1, 0, 1), c))) for m in range(2, 9) for c in product(range(m), repeat=3)]
    sampled, misses = set(samples), []
    for rule in cases + RADIUS2_M4_ADDS + samples:
        sides = periodicity._prune_sides(rule)
        empty = is_surjective_additive(rule) and classify_additive(rule).stp is StpVerdict.EMPTY
        assert bool(sides) == empty, rule
        factors = decompose_crt(rule) if sides else ()
        assert len(sides) == len(factors), rule
        for (q, h, dl, dr), f in zip(sides, factors):
            power = permutative_power(f)
            assert (q, h) == (f.modulus, power.h), rule
            radius = max(map(abs, power.rule.coeffs))
            if q ** (2 * radius + 1) <= 40_000:
                trimmed = table_from_additive(AdditiveRule(q, radius, power.rule.coeffs))
                assert periodicity._prune_sides(trimmed) == [(q, 1, dl, dr)], rule
        # 8 and 9 are prime powers, so F is a sample's one factor
        if rule in sampled and sides and not periodicity._prune_sides(table_from_additive(rule)):
            misses.append((rule, max(h for _, h, _, _ in sides)))
    # the Empty samples that drift only at a power: the spot check walks
    # each candidate it checks once, up to the largest h, and the counted
    # scan is the walked one
    assert {(8, 4), (9, 3)} <= {(rule.modulus, h) for rule, h in misses}
    walks = []

    def counted_orbit(rule, state, advance=None):
        walks.append(0)
        for s in _orbit(rule, state, advance):
            walks[-1] += 1
            yield s

    monkeypatch.setattr(periodicity, "_orbit", counted_orbit)
    for rule, h in misses:
        walks.clear()
        result = stp_empty_scan(rule, 1, 1, 2)
        assert walks == [h + 1] * min(32, result.examined) and walks, rule
        with monkeypatch.context() as walk:
            walk.setattr(periodicity, "_prune_sides", lambda rule: [])
            assert stp_empty_scan(rule, 1, 1, 2) == result, rule
        assert not result.violations, rule


@pytest.mark.parametrize(
    "spec, sides, wrong",
    [
        # rule 30 is bijective in its left cell: move that offset by one
        ("wolfram:30", [(2, 1, -1, None)], [(2, 1, -2, None)]),
        # F^4 drifts by -4 on both sides, read on the right; F^3 does not
        ("additive:m=8;r=2;c=2,1,0,0,2", [(8, 4, -4, -4)], [(8, 3, -4, -4)]),
    ],
)
def test_spot_check_refuses_a_wrong_drift_side(monkeypatch, spec, sides, wrong):
    rule = parse_rule_spec(spec)
    assert periodicity._prune_sides(rule) == sides
    assert stp_empty_scan(rule, 2, 2, 8).examined > 0
    monkeypatch.setattr(periodicity, "_prune_sides", lambda rule: wrong)
    with pytest.raises(AssertionError, match="defect drift disagrees"):
        stp_empty_scan(rule, 2, 2, 8)


# ---------------------------------------------------------------------------
# product witnesses


def test_product_witness_scan_pairs_witness_with_census():
    witnesses = _rendered((w.config, w.period) for w in product_witness_scan(M4_TABLE, RULE90))
    assert witnesses == [
        ("ep:0|2|0@0", 2),
        ("ep:011|2|110@0", 2),
        ("ep:101|3|011@0", 2),
        ("ep:110|3|101@0", 2),
        ("ep:0|4|0@0", 1),
    ]


def test_product_witnesses_verify_against_the_product_rule():
    prod = product_rule(M4_TABLE, RULE90)
    for witness in product_witness_scan(M4_TABLE, RULE90):
        cur = witness.config
        for _ in range(witness.period):
            cur = step(prod, cur)
        assert equals(cur, witness.config)
        assert not is_spatially_periodic(witness.config)


def test_product_witness_scan_identity_and_shift():
    witnesses = product_witness_scan(identity_rule(2), SHIFT2)
    assert (render_config(witnesses[0].config), witnesses[0].period) == ("ep:0|2|0@0", 1)


def test_product_witness_scan_refuses_a_certified_rule_that_is_not_surjective():
    # rule 0 is constant: its certificate gives the exact blocking word 0
    rule0 = TableRule.from_wolfram(0)
    assert blocking_word_search(rule0).word == (0,)
    with pytest.raises(NotSurjectiveError):
        product_witness_scan(rule0, identity_rule(2))


def test_product_witness_scan_empty_without_a_blocking_word():
    assert product_witness_scan(RULE90, identity_rule(2)) == ()


# ---------------------------------------------------------------------------
# conjugate rules


def _conjugate_answers(rule: TableRule):
    census = [len(jointly_periodic_points(rule, n, 16).points) for n in range(1, 7)]
    scan = stp_empty_scan(rule, 2, 2, 16)
    blocking = blocking_word_search(rule, 3, 2, 8)
    return (
        surjectivity_oracle(rule),
        isinstance(equicontinuity_oracle(rule), EquicontinuityCert),
        (len(blocking.word), blocking.status) if isinstance(blocking, BlockingCert) else None,
        scan.examined,
        len(scan.violations),
        census,
    )


def test_conjugate_rules_get_the_same_answers():
    # the mirror x_i -> x_-i and a letter rotation conjugate the global map,
    # so no verdict or count may change; this guards the code that treats
    # the left and right ends differently (the drift sides, the blocking
    # offset, the preimage test's left-tail limit and right-tail periods)
    rng = random.Random(21)
    cases = [TableRule.from_wolfram(n) for n in rng.sample(range(256), 24)]
    for m in (3, 4):
        adds = [rule for rule in RADIUS1_ADDS if rule.modulus == m]
        cases += [table_from_additive(rule) for rule in rng.sample(adds, 6)]
    for rule in cases:
        k = rule.alphabet_size
        mirror, rotated = mirror_rule(rule), rotate_letters(rule)
        answers = _conjugate_answers(rule)
        assert _conjugate_answers(mirror) == answers, rule
        assert _conjugate_answers(rotated) == answers, rule
        tails = [w for n in (1, 2) for w in product(range(k), repeat=n) if len(set(w)) == n]
        mids = [w for n in range(3) for w in product(range(k), repeat=n)]
        tests = [_preimage_test(r) for r in (rule, mirror, rotated)]
        for a, mid, b in product(tails, mids, tails):
            want = tests[0](a, mid, b)
            assert tests[1](b[::-1], mid[::-1], a[::-1]) == want, (rule, a, mid, b)
            turned = (tuple((c + 1) % k for c in w) for w in (a, mid, b))
            assert tests[2](*turned) == want, (rule, a, mid, b)
