"""Rule representations: parsing, table expansion, composition, powers,
canonicalization, and permutativity."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_helpers import encode_word, equals, essential_span, identity_rule, pad_table
from test_kernel_properties import power_rules
from periodika.configs import CyclicConfig, EpConfig
from periodika.engine import step
from periodika.oracles import MAX_POWER_CELLS, MAX_POWERS, EquicontinuityCert
from periodika.rules import (
    AdditiveRule,
    ResourceCapError,
    RuleSpecError,
    TableRule,
    _bijective_ends,
    _kernel,
    _table_rule,
    canonicalize_table,
    compose_additive,
    compose_table,
    parse_rule_spec,
    power_additive,
    product_rule,
    render_rule_spec,
    table_from_additive,
)

RULE90 = AdditiveRule(2, 1, {-1: 1, 1: 1})
M4_RULE = AdditiveRule(4, 1, {-1: 2, 0: 1, 1: 2})
SHIFT2 = AdditiveRule(2, 1, {1: 1})


# ---------------------------------------------------------------------------
# encoding


def test_encode_decode_round_trip():
    for k in (2, 3, 4):
        for length in (0, 1, 3):
            for idx, word in enumerate(product(range(k), repeat=length)):
                assert encode_word(word, k) == idx


def test_encoding_is_big_endian():
    assert encode_word((1, 0, 1), 2) == 5


# ---------------------------------------------------------------------------
# TableRule construction


def test_table_rule_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TableRule(1, 0, (0,))
    with pytest.raises(ValueError):
        TableRule(2, -1, (0, 1))
    with pytest.raises(ValueError):
        TableRule(2, 1, (0, 1))  # 2 entries, needs 8
    with pytest.raises(ValueError):
        TableRule(2, 0, (0, 2))  # letter out of range


@pytest.mark.parametrize("bad, shown", [(1.0, "1.0"), (-1, "-1"), (2, "2"), ("1", "'1'")])
def test_letter_validation_names_the_bad_letter(bad, shown):
    with pytest.raises(ValueError, match=rf"^table contains letter {shown} outside 0\.\.1$"):
        TableRule(2, 0, (0, bad))
    with pytest.raises(ValueError, match=rf"^word contains letter {shown} outside 0\.\.1$"):
        CyclicConfig(2, (1, bad, 0))
    for where, parts in (
        ("left", ((bad,), (), (0,))),
        ("mid", ((0,), (bad,), (0,))),
        ("right", ((0,), (1,), (0, bad))),
    ):
        with pytest.raises(ValueError, match=rf"^{where} contains letter {shown} outside 0\.\.1$"):
            EpConfig(2, *parts)


def test_letter_validation_accepts_bools():
    assert TableRule(2, 0, (False, True)).table == (0, 1)
    assert CyclicConfig(2, (True, False)) == CyclicConfig(2, (1, 0))
    assert EpConfig(2, (False,), (True,), (False,)) == EpConfig(2, (0,), (1,), (0,))


def test_wolfram_code_expansion():
    rule = TableRule.from_wolfram(90)
    # code 90 = binary 01011010, bit v is the output of the window with
    # big-endian value v
    assert rule.table == (0, 1, 0, 1, 1, 0, 1, 0)
    assert rule.table[encode_word((1, 0, 1), 2)] == 0
    assert rule.table[encode_word((1, 0, 0), 2)] == 1
    assert rule.wolfram_code() == 90


def test_wolfram_code_round_trip():
    for code in range(256):
        assert TableRule.from_wolfram(code).wolfram_code() == code
    rule = TableRule.from_wolfram(3**3 - 1, alphabet_size=3, radius=0)
    assert rule.wolfram_code() == 3**3 - 1


def test_wolfram_code_bounds():
    with pytest.raises(ValueError):
        TableRule.from_wolfram(256)
    with pytest.raises(ValueError):
        TableRule.from_wolfram(-1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TableRule.from_wolfram(0, alphabet_size=1), "need alphabet_size >= 2"),
        (lambda: TableRule.from_wolfram(0, radius=-1), "radius >= 0"),
        (lambda: TableRule(2, 1, (0, 1) * 4, offset=1).wolfram_code(), "only offset-0 rules"),
        (lambda: AdditiveRule(4, -1, {}), "radius must be non-negative"),
        (
            lambda: compose_table(TableRule.from_wolfram(90), TableRule.from_wolfram(0, 3)),
            "different alphabets",
        ),
        (lambda: CyclicConfig(1, (0,)), "alphabet_size must be at least 2"),
        (lambda: EpConfig(1, (0,), (), (0,)), "alphabet_size must be at least 2"),
    ],
)
def test_constructors_refuse_degenerate_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_table_builders_refuse_oversized_tables():
    assert len(TableRule.from_wolfram(0, alphabet_size=2, radius=9).table) == 2**19
    rule90 = TableRule.from_wolfram(90)
    wide = pad_table(rule90, 5)  # composing it with itself needs 2^21 entries
    for build in (
        lambda: TableRule.from_wolfram(0, alphabet_size=10, radius=5),
        lambda: table_from_additive(AdditiveRule(9, 5, {-5: 1, 5: 1})),
        lambda: compose_table(wide, wide),
        # 9 fused letters over the 9-cell span of x_-4 + x_4
        lambda: product_rule(*[table_from_additive(AdditiveRule(3, 4, {-4: 1, 4: 1}))] * 2),
    ):
        with pytest.raises(ResourceCapError):
            build()


def test_window_accounts_for_offset():
    # reads the last cell of the window 0 .. 2
    rule = TableRule(2, 1, (0, 1, 0, 1, 0, 1, 0, 1), offset=1)
    assert essential_span(rule) == (2, 2)
    assert canonicalize_table(rule) == TableRule(2, 0, (0, 1), 2)
    assert rule.width == 3


# ---------------------------------------------------------------------------
# AdditiveRule construction


def test_additive_rule_reduces_and_trims():
    rule = AdditiveRule(4, 2, {-1: 6, 0: 4, 2: 1})
    assert rule.coeffs == {-1: 2, 2: 1}
    assert rule.support == (-1, 2)
    assert rule.coefficient_list() == [0, 2, 0, 0, 1]


def test_additive_rule_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AdditiveRule(1, 0, {0: 1})
    with pytest.raises(ValueError):
        AdditiveRule(4, 1, {2: 1})  # index beyond declared radius


def test_additive_rule_equality_and_hash():
    assert AdditiveRule(4, 1, {0: 5}) == AdditiveRule(4, 1, {0: 1})
    assert hash(AdditiveRule(4, 1, {0: 5})) == hash(AdditiveRule(4, 1, {0: 1}))
    assert AdditiveRule(4, 1, {0: 1}) != AdditiveRule(4, 2, {0: 1})
    # the generated __eq__ reads the stored coefficients: reduced, sorted
    # and without zeros, whatever the order and size of the given ones
    reordered = AdditiveRule(6, 1, {1: 2, -1: 8})
    assert reordered == AdditiveRule(6, 1, {-1: 2, 1: 2})
    assert hash(reordered) == hash(AdditiveRule(6, 1, {-1: 2, 1: 2}))
    assert AdditiveRule(6, 1, {-1: 2, 0: 6, 1: 2}) == reordered
    assert AdditiveRule(6, 1, {-1: 2, 0: 0}) == AdditiveRule(6, 1, {-1: 2})
    assert AdditiveRule(2, 1, {-1: 1, 1: 1}) != table_from_additive(RULE90)
    assert AdditiveRule(6, 1, {-1: 2, 1: 3}) != reordered
    seen = {reordered: "a", AdditiveRule(6, 1, {-1: 2}): "b"}
    assert seen[AdditiveRule(6, 1, {-1: 14, 1: -4})] == "a"
    assert len(seen) == 2


# ---------------------------------------------------------------------------
# parsing


def test_parse_additive_spec():
    rule = parse_rule_spec("additive:m=4;r=1;c=2,1,2")
    assert rule == M4_RULE


def test_parse_wolfram_spec():
    rule = parse_rule_spec("wolfram:90")
    assert isinstance(rule, TableRule)
    assert rule.alphabet_size == 2 and rule.radius == 1
    assert rule.table == TableRule.from_wolfram(90).table
    three = parse_rule_spec("wolfram:5;k=3;r=0")
    assert three.alphabet_size == 3 and three.radius == 0


def test_parse_rejects_modulus_below_two():
    with pytest.raises(RuleSpecError):
        parse_rule_spec("additive:m=1;r=0;c=1")


def test_parse_rejects_malformed_specs():
    for text in (
        "additive:m=4;r=1;c=2,1",  # wrong coefficient count
        "additive:m=4;c=2,1,2",  # missing radius
        "wolfram:abc",
        "wolfram:90;x=3",
        "wolfram:256",
        "bogus:1",
        "",
    ):
        with pytest.raises(RuleSpecError):
            parse_rule_spec(text)


def test_render_parse_round_trip():
    for rule in (RULE90, M4_RULE, SHIFT2, AdditiveRule(9, 1, {-1: 3, 0: 1})):
        assert parse_rule_spec(render_rule_spec(rule)) == rule
    table = TableRule.from_wolfram(110)
    again = parse_rule_spec(render_rule_spec(table))
    assert again == table


@st.composite
def rule_literals(draw):
    """``wolfram:`` literals with explicit or default ``k``/``r`` in either
    order, and ``additive:`` literals whose coefficients may be negative or
    at least the modulus."""
    if draw(st.booleans()):
        k, r = draw(st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 1), (11, 0)]))
        code = draw(st.integers(0, k ** (k ** (2 * r + 1)) - 1))
        options = [f"k={k}"] if k != 2 or draw(st.booleans()) else []
        options += [f"r={r}"] if r != 1 or draw(st.booleans()) else []
        if draw(st.booleans()):
            options.reverse()
        return ";".join([f"wolfram:{code}", *options])
    m, r = draw(st.integers(2, 40)), draw(st.integers(0, 3))
    coeffs = draw(st.lists(st.integers(-3 * m, 3 * m), min_size=2 * r + 1, max_size=2 * r + 1))
    return f"additive:m={m};r={r};c=" + ",".join(map(str, coeffs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rule_literals())
def test_rendered_rule_literals_are_fixed_points(text):
    rule = parse_rule_spec(text)
    rendered = render_rule_spec(rule)
    assert parse_rule_spec(rendered) == rule
    assert render_rule_spec(parse_rule_spec(rendered)) == rendered


# ---------------------------------------------------------------------------
# table expansion


def test_table_from_additive_values():
    table = table_from_additive(M4_RULE).table
    assert table[encode_word((0, 0, 0), 4)] == 0
    assert table[encode_word((1, 0, 0), 4)] == 2  # 2*1 + 0 + 0 mod 4
    rule90 = table_from_additive(RULE90).table
    assert rule90[encode_word((1, 1, 1), 2)] == 0  # 1 + 1 mod 2


def test_rule_90_is_wolfram_90():
    assert table_from_additive(RULE90).table == TableRule.from_wolfram(90).table


# one-sided supports, supports narrower than the window, zero rules, and
# radius-0 rules past 256 letters, whose span tables are tuples
SPAN_SHAPES = [
    parse_rule_spec(text)
    for text in (
        "additive:m=2;r=1;c=0,0,1",
        "additive:m=5;r=1;c=3,0,0",
        "additive:m=2;r=2;c=0,1,1,0,0",
        "additive:m=4;r=2;c=0,2,0,0,0",
        "additive:m=3;r=2;c=0,0,0,0,0",
        "additive:m=300;r=0;c=7",
        "additive:m=300;r=0;c=0",
        "additive:m=1000;r=0;c=999",
    )
]


def test_table_from_additive_matches_a_per_word_sum():
    # the level-by-level build over the support against one zip-sum per
    # window word of the declared window
    rng = random.Random(11)
    rules = [rule for m in range(2, 7) for rule in _all_additive(m)]
    rules += [
        AdditiveRule(m, 2, {j: rng.randrange(m) for j in range(-2, 3)})
        for m in rng.choices(range(2, 8), k=40)
    ]
    rules += SPAN_SHAPES
    for rule in rules:
        m, dense = rule.modulus, rule.coefficient_list()
        expected = tuple(
            sum(c * a for c, a in zip(dense, word)) % m
            for word in product(range(m), repeat=len(dense))
        )
        table = table_from_additive(rule)
        assert table == TableRule(m, rule.radius, expected), rule
        assert all(type(a) is int for a in table.table)


def test_the_seeded_kernel_is_the_computed_one():
    # table_from_additive writes the kernel in; it must be the one _kernel
    # reads off a fresh rule with the same table
    rng = random.Random(13)
    rules = [rule for m in range(2, 13) for rule in _all_additive(m)]
    rules += [
        AdditiveRule(m, 2, {j: rng.randrange(m) for j in range(-2, 3)})
        for m in rng.choices(range(2, 8), k=40)
    ]
    rules += SPAN_SHAPES
    for rule in rules:
        table = table_from_additive(rule)
        seeded = _kernel(table)
        fresh = _kernel(_table_rule(table.alphabet_size, table.radius, table.table))
        assert type(seeded[0]) is type(fresh[0]) and seeded[:3] == fresh[:3], rule
        pack, width = type(fresh[0]), fresh[1]
        for n in (1, 9):
            cells = pack(rng.randrange(rule.modulus) for _ in range(n + width - 1))
            assert seeded[3](cells) == fresh[3](cells), rule


def test_trusted_constructor_matches_the_public_one():
    rng = random.Random(5)
    for _ in range(200):
        k, radius, offset = rng.randrange(2, 5), rng.randrange(3), rng.randrange(-2, 3)
        table = tuple(rng.randrange(k) for _ in range(k ** (2 * radius + 1)))
        trusted, public = _table_rule(k, radius, table, offset), TableRule(k, radius, table, offset)
        assert trusted == public and public == trusted
        assert hash(trusted) == hash(public)
        assert repr(trusted) == repr(public)
        assert trusted.width == public.width
    assert _table_rule(2, 0, (0, 1)) == identity_rule(2)
    assert _table_rule(2, 0, (0, 1), 1) != identity_rule(2)


def test_derived_tables_pass_the_public_checks():
    # every table built through the trusted constructor re-validates
    rule90, m4 = table_from_additive(RULE90), table_from_additive(M4_RULE)
    shift = TableRule(2, 1, tuple(w[2] for w in product(range(2), repeat=3)), 1)
    derived = [
        compose_table(rule90, shift),
        compose_table(m4, m4),
        canonicalize_table(shift),
        canonicalize_table(TableRule(3, 1, (2,) * 27, -1)),
        product_rule(m4, rule90),
        product_rule(shift, canonicalize_table(shift)),
        table_from_additive(AdditiveRule(6, 2, {-2: 5, 1: 3})),
    ]
    derived += [power for rule in (rule90, m4, shift) for power in power_rules(rule)[1]]
    for rule in derived:
        assert TableRule(rule.alphabet_size, rule.radius, rule.table, rule.offset) == rule


# ---------------------------------------------------------------------------
# composition and powers


def test_compose_additive_examples():
    assert compose_additive(RULE90, RULE90) == AdditiveRule(2, 2, {-2: 1, 2: 1})
    identity = AdditiveRule(4, 0, {0: 1})
    assert compose_additive(identity, M4_RULE).coeffs == M4_RULE.coeffs
    assert compose_additive(M4_RULE, M4_RULE).coeffs == {0: 1}


def test_compose_additive_rejects_modulus_mismatch():
    with pytest.raises(ValueError):
        compose_additive(RULE90, M4_RULE)


def test_power_additive_examples():
    assert power_additive(M4_RULE, 2).coeffs == {0: 1}
    assert power_additive(AdditiveRule(9, 1, {-1: 3, 0: 1}), 3).coeffs == {0: 1}
    assert power_additive(RULE90, 1) == RULE90
    with pytest.raises(ValueError):
        power_additive(RULE90, 0)


def test_power_additive_matches_iterated_composition():
    rules = list(_all_additive(2)) + [M4_RULE, AdditiveRule(6, 1, {-1: 4, 0: 1, 1: 4})]
    for rule in rules:
        acc = rule
        for h in range(1, 9):
            assert power_additive(rule, h).coeffs == acc.coeffs
            acc = compose_additive(acc, rule)


def _all_additive(m, radius=1):
    width = 2 * radius + 1
    for coeffs in product(range(m), repeat=width):
        yield AdditiveRule(m, radius, {j - radius: c for j, c in enumerate(coeffs)})


def test_composition_commutes_with_stepping_exhaustively_mod_2():
    configs = [
        CyclicConfig(2, word)
        for n in range(1, 5)
        for word in product(range(2), repeat=n)
    ]
    rules = list(_all_additive(2))
    for f in rules:
        for g in rules:
            lhs_table = table_from_additive(compose_additive(f, g))
            ft, gt = table_from_additive(f), table_from_additive(g)
            for x in configs:
                assert equals(step(lhs_table, x), step(ft, step(gt, x)))


def test_composition_commutes_with_stepping_sampled():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.choice((3, 4, 6))
        f = AdditiveRule(m, 1, {j: rng.randrange(m) for j in (-1, 0, 1)})
        g = AdditiveRule(m, 1, {j: rng.randrange(m) for j in (-1, 0, 1)})
        word = tuple(rng.randrange(m) for _ in range(rng.randint(1, 6)))
        x = CyclicConfig(m, word)
        composed = table_from_additive(compose_additive(f, g))
        ft, gt = table_from_additive(f), table_from_additive(g)
        assert equals(step(composed, x), step(ft, step(gt, x)))


def test_compose_table_matches_additive_composition():
    for f, g in ((RULE90, SHIFT2), (M4_RULE, M4_RULE)):
        if f.modulus != g.modulus:
            continue
        via_tables = compose_table(table_from_additive(f), table_from_additive(g))
        via_coeffs = table_from_additive(compose_additive(f, g))
        assert canonicalize_table(via_tables) == canonicalize_table(via_coeffs)


def _canonical_additive_power(rule, n):
    """Canonical table of ``F^n`` built from the coefficients of the n-th
    power, over the window of their support only."""
    m, coeffs = rule.modulus, power_additive(rule, n).coeffs
    lo, hi = (min(coeffs), max(coeffs)) if coeffs else (0, 0)
    centre = (lo + hi) // 2
    r = max(centre - lo, hi - centre)
    centred = AdditiveRule(m, r, {j - centre: c for j, c in coeffs.items()})
    return canonicalize_table(TableRule(m, r, table_from_additive(centred).table, centre))


def test_table_powers_match_additive_powers_up_to_the_oracle_cap():
    # the oracle's walk F^n = canonical(F o F^(n-1)), at every width it reaches
    widest = 0
    for m in (2, 3, 4):
        for coeffs in product(range(m), repeat=3):
            rule = AdditiveRule(m, 1, {j - 1: c for j, c in enumerate(coeffs)})
            table = table_from_additive(rule)
            cur = identity_rule(m)
            built = [cur]
            for n in range(1, MAX_POWERS + 1):
                width = 2 * (cur.radius + 1) + 1
                if m**width > MAX_POWER_CELLS:
                    break
                cur = canonicalize_table(compose_table(table, cur))
                assert cur == _canonical_additive_power(rule, n), (m, coeffs, n)
                built.append(cur)
                widest = max(widest, width)
            # the walk builds the same powers, up to its first repeat
            cert, powers = power_rules(table)
            assert powers == built[: len(powers)], (m, coeffs)
            assert isinstance(cert, EquicontinuityCert) or powers == built, (m, coeffs)
    assert widest == 13  # m = 2 reaches the oracle's widest tables, 2^13 entries


# ---------------------------------------------------------------------------
# canonicalization


def test_canonicalize_strips_dummy_variables():
    # f(a, b, c) = b
    middle = TableRule(2, 1, tuple(w[1] for w in product(range(2), repeat=3)))
    canon = canonicalize_table(middle)
    assert canon.radius == 0 and canon.offset == 0
    assert canon.table == (0, 1)


def test_canonicalize_keeps_essential_variables():
    rule90 = TableRule.from_wolfram(90)
    assert canonicalize_table(rule90) == rule90
    assert essential_span(rule90) == (-1, 1)


def test_canonicalize_records_one_sided_dependence():
    # f(a, b, c) = c
    shift = TableRule(2, 1, tuple(w[2] for w in product(range(2), repeat=3)))
    canon = canonicalize_table(shift)
    assert canon.radius == 0 and canon.offset == 1
    assert essential_span(shift) == (1, 1)


def test_canonicalize_constant_rule():
    const = TableRule(2, 1, (1,) * 8)
    canon = canonicalize_table(const)
    assert canon.radius == 0 and canon.table == (1, 1)
    assert essential_span(const) is None


def test_canonicalize_is_idempotent():
    for code in range(256):
        once = canonicalize_table(TableRule.from_wolfram(code))
        assert canonicalize_table(once) == once


def test_padding_preserves_the_global_map():
    rule90 = TableRule.from_wolfram(90)
    padded = pad_table(rule90, 3)
    assert padded.radius == 3
    assert canonicalize_table(padded) == canonicalize_table(rule90)
    with pytest.raises(ValueError):
        pad_table(rule90, 0)


# ---------------------------------------------------------------------------
# permutativity


def _permutative_sides(rule: TableRule) -> tuple[bool, bool]:
    """Whether the table is bijective in its leftmost / rightmost variable."""
    return _bijective_ends(rule.table, rule.alphabet_size)


def test_permutativity_examples():
    assert _permutative_sides(TableRule.from_wolfram(90)) == (True, True)
    # f(a, b, c) = b * c
    produces = TableRule(2, 1, tuple(w[1] * w[2] for w in product(range(2), repeat=3)))
    assert _permutative_sides(produces) == (False, False)
    assert _permutative_sides(table_from_additive(SHIFT2)) == (False, True)


def test_permutativity_tracks_unit_coefficients_for_prime_modulus():
    for m in (2, 3):
        for rule in _all_additive(m):
            left, right = _permutative_sides(table_from_additive(rule))
            # for prime m a nonzero coefficient is a unit, so the variable
            # permutes the alphabet; a zero coefficient makes it inert
            assert right == (rule.coeffs.get(1, 0) != 0)
            assert left == (rule.coeffs.get(-1, 0) != 0)


# ---------------------------------------------------------------------------
# helpers


def test_identity_rule():
    ident = identity_rule(4)
    assert ident.radius == 0 and ident.table == (0, 1, 2, 3)
