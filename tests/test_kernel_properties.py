"""Property tests that pin the window kernel to definitions that do not use
it: stepping, composition, padding, canonicalisation and the per-variable
scans are each checked against a direct reading of the table through the
definitions in ``reference_helpers``, orbit detection against a walk that
memoises every state exactly, also on rings whose root shrinks mid-walk,
orbit walks through a shared successor memo against walks without one, the
eventually periodic step's per-walk tail tables against padding and imaging
each row whole, the canonical form of eventually periodic configurations
against other presentations of the same configuration, the window reader
``_cells`` with everything built on it (traces, letterwise joins) against
the reference ``value_at`` one coordinate at a time, orbit walks on both
sides of the packed kernel's selection (bytes or tuples, by the size of the
essential span) against a step read cell by cell, the oracle's power walk
over trimmed span tables against a walk over padded public tables, and the
packed (``bytes``) composition and trim of span tables against the tuple
route."""

from __future__ import annotations

from itertools import islice, product
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodika.configs import (
    CyclicConfig,
    EpConfig,
    _canonical_ep,
    _cells,
    _join,
    _state,
    primitive_root,
    shift,
)
from periodika.engine import (
    CycleResult,
    CycleTimeout,
    _ep_stepper,
    _orbit,
    space_time,
    step,
    temporal_cycle,
)
from periodika import oracles
from periodika.oracles import (
    MAX_POWER_CELLS,
    MAX_POWERS,
    EquicontinuityCert,
    OracleUnknown,
    _packed_power_walk,
    equicontinuity_oracle,
    surjectivity_oracle,
)
from periodika.periodicity import blocking_word_search, jointly_periodic_points, stp_empty_scan
from periodika.rules import (
    AdditiveRule,
    TableRule,
    _bijective_ends,
    _compose,
    _is_essential,
    _kernel,
    _span_rule,
    _trim,
    _window_images,
    canonicalize_table,
    compose_table,
    parse_rule_spec,
    power_additive,
    product_rule,
    table_from_additive,
)
from reference_helpers import (
    encode_word,
    ep_step,
    equals,
    essential_positions,
    essential_span,
    identity_rule,
    pad_table,
    value_at,
    window,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def table_rules(draw, k=None, max_radius=None):
    """Random rules over ``k`` letters that read only a random subset of
    their window, so dummy variables and one-sided rules are common."""
    if k is None:
        k = draw(st.integers(2, 3))
    if max_radius is None:
        max_radius = 2 if k == 2 else 1
    radius = draw(st.integers(0, max_radius))
    offset = draw(st.integers(-2, 2))
    width = 2 * radius + 1
    kept = [j for j in range(width) if draw(st.booleans())]
    inner = draw(st.lists(st.integers(0, k - 1), min_size=k ** len(kept), max_size=k ** len(kept)))
    table = tuple(
        inner[encode_word([w[j] for j in kept], k)] for w in product(range(k), repeat=width)
    )
    return TableRule(k, radius, table, offset)


def words(k, min_size, max_size):
    return st.lists(st.integers(0, k - 1), min_size=min_size, max_size=max_size).map(tuple)


def ep_configs(k):
    return st.builds(
        EpConfig, st.just(k), words(k, 1, 3), words(k, 0, 5), words(k, 1, 3), st.integers(-5, 5)
    )


def configs(k):
    cyclic = st.builds(CyclicConfig, st.just(k), words(k, 1, 6), st.integers(-6, 6))
    return st.one_of(cyclic, ep_configs(k))


@st.composite
def rule_and_config(draw):
    rule = draw(table_rules())
    return rule, draw(configs(rule.alphabet_size))


def _coordinates(x, margin):
    if isinstance(x, CyclicConfig):
        return range(-margin, len(x.word) + margin)
    return range(x.start - margin, x.end + margin)


@SETTINGS
@given(rule_and_config())
def test_step_reads_the_table_at_every_window(case):
    rule, x = case
    lo, hi = window(rule)
    y = step(rule, x)
    for i in _coordinates(x, 12 + rule.width + abs(rule.offset)):
        cells = [value_at(x, c) for c in range(i + lo, i + hi + 1)]
        assert value_at(y, i) == rule.table[encode_word(cells, rule.alphabet_size)]


@SETTINGS
@given(table_rules().flatmap(lambda rule: st.tuples(st.just(rule), ep_configs(rule.alphabet_size))),
       st.integers(-6, 6))
def test_step_commutes_with_shift_on_eventually_periodic_configs(case, n):
    rule, x = case
    assert step(rule, shift(x, n)) == shift(step(rule, x), n)


def _raw_value(left, mid, right, start, i):
    """Letter at coordinate ``i`` of ``^inf(left) . mid . (right)^inf`` with
    the mid at ``start``, read off the presentation as given."""
    if i < start:
        return left[(i - start) % len(left)]
    if i < start + len(mid):
        return mid[i - start]
    return right[(i - start - len(mid)) % len(right)]


@st.composite
def ep_presentations(draw):
    """A raw presentation and another one of the same configuration: its
    tails repeated, then border letters moved from the tails into the mid,
    which rotates the tails and shifts the start."""
    k = draw(st.integers(2, 3))
    left, mid, right = draw(words(k, 1, 3)), draw(words(k, 0, 4)), draw(words(k, 1, 3))
    if draw(st.booleans()):
        right = left  # spatially periodic when the mid is absorbed
    start = draw(st.integers(-5, 5))
    left2, mid2, right2 = left * draw(st.integers(1, 3)), mid, right * draw(st.integers(1, 3))
    start2 = start
    for _ in range(draw(st.integers(0, 4))):
        mid2, left2, start2 = left2[-1:] + mid2, left2[-1:] + left2[:-1], start2 - 1
    for _ in range(draw(st.integers(0, 4))):
        mid2, right2 = mid2 + right2[:1], right2[1:] + right2[:1]
    return k, (left, mid, right, start), (left2, mid2, right2, start2)


@settings(SETTINGS, max_examples=200)
@given(ep_presentations())
def test_equal_denotations_give_equal_canonical_configs(case):
    k, raw, other = case
    x, y = EpConfig(k, *raw), EpConfig(k, *other)
    for i in range(min(raw[3], other[3]) - 24, other[3] + len(other[1]) + 24):
        assert value_at(x, i) == value_at(y, i) == _raw_value(*raw, i) == _raw_value(*other, i)
    assert x == y
    assert _canonical_ep(*raw) == _canonical_ep(*other) == (x.left, x.mid, x.right, x.start)


@st.composite
def rule_pair_and_config(draw):
    f = draw(table_rules())
    g = draw(table_rules(f.alphabet_size))
    return f, g, draw(configs(f.alphabet_size))


@SETTINGS
@given(rule_pair_and_config())
def test_composed_table_steps_like_two_steps(case):
    f, g, x = case
    assert equals(step(compose_table(f, g), x), step(f, step(g, x)))


@SETTINGS
@given(rule_and_config(), st.integers(0, 2), st.integers(-2, 2))
def test_padding_and_canonical_form_keep_the_image(case, grow, shift):
    rule, x = case
    shift = max(-grow, min(grow, shift))  # the padded window must contain the old one
    padded = pad_table(rule, rule.radius + grow, rule.offset + shift)
    image = step(rule, x)
    assert equals(step(padded, x), image)
    assert equals(step(canonicalize_table(rule), x), image)
    assert canonicalize_table(padded) == canonicalize_table(rule)


def _outputs_along(table, k, width, j):
    """Output tuples of a table over ``width`` positions and ``k`` letters
    as window position ``j`` runs over the alphabet, one per assignment of
    the other positions."""
    # product() yields the words in big-endian index order, and position j
    # has place value k^(width - 1 - j)
    stride = k ** (width - 1 - j)
    for base, w in enumerate(product(range(k), repeat=width)):
        if w[j] == 0:
            yield tuple(table[base + a * stride] for a in range(k))


def _reference_bijective_ends(table, k, width):
    """Whether every output tuple along the first / the last position holds
    ``k`` distinct letters."""
    return tuple(
        all(len(set(o)) == k for o in _outputs_along(table, k, width, j)) for j in (0, width - 1)
    )


@SETTINGS
@given(table_rules())
def test_variable_scans_match_single_position_perturbation(rule):
    k, width, table = rule.alphabet_size, rule.width, rule.table
    essential = essential_positions(table, k, width)
    assert [j for j in range(width) if _is_essential(table, k, width, j)] == essential
    # the kernel spans the essential positions; a constant one keeps position 0
    _, kernel_width, kernel_lo, _ = _kernel(rule)
    assert (kernel_lo, kernel_lo + kernel_width - 1) == (essential_span(rule) or (0, 0))
    assert _bijective_ends(table, k, width) == _reference_bijective_ends(table, k, width)


SHIFT_RULES = [
    table_from_additive(rule) if isinstance(rule, AdditiveRule) else rule
    for rule in map(
        parse_rule_spec,
        ("wolfram:170", "additive:m=3;r=1;c=0,0,2", "wolfram:15", "additive:m=5;r=1;c=3,0,0"),
    )
]


@st.composite
def orbit_cases(draw):
    rule = draw(st.one_of(table_rules(), st.sampled_from(SHIFT_RULES)))
    # eventually periodic starts are the ones that can recur translated
    x = draw(st.one_of(configs(rule.alphabet_size), ep_configs(rule.alphabet_size)))
    return rule, x, draw(st.integers(1, 24)), draw(st.integers(0, 8))


def _full_walk(rule, x, max_steps, max_mid, advance=step):
    """Orbit shape by memoising every state exactly, to the full budget;
    ``advance(rule, x)`` steps a configuration."""
    seen = {x: 0}
    for n in range(1, max_steps + 1):
        x = advance(rule, x)
        if isinstance(x, EpConfig) and len(x.mid) > max_mid:
            return CycleTimeout(n, "mid width cap exceeded")
        if x in seen:
            return CycleResult(seen[x], n - seen[x])
        seen[x] = n
    return CycleTimeout(max_steps)


@settings(SETTINGS, max_examples=300)
@given(orbit_cases())
def test_temporal_cycle_matches_a_full_state_walk(case):
    rule, x, max_steps, max_mid = case
    assert temporal_cycle(rule, x, max_steps, max_mid) == _full_walk(rule, x, max_steps, max_mid)


@st.composite
def tuple_kernel_rules(draw):
    """Random rules over 7 letters of radius 1: 343 entries, stepped as
    tuples."""
    rng = Random(draw(st.integers(0, 2**32)))
    return TableRule(7, 1, tuple(rng.randrange(7) for _ in range(343)), draw(st.integers(-2, 2)))


@st.composite
def runaway_cases(draw):
    """Orbit cases in which the runaway-edge exit can fire: budgets up to
    64 steps, and mid caps on both sides of the exit's guard, up to 10 000."""
    rule = draw(st.one_of(table_rules(), st.sampled_from(SHIFT_RULES), tuple_kernel_rules()))
    x = draw(ep_configs(rule.alphabet_size))
    max_mid = draw(st.one_of(st.integers(0, 8), st.integers(0, 300), st.integers(0, 10_000)))
    return rule, x, draw(st.integers(1, 64)), max_mid


@settings(SETTINGS, max_examples=300)
@given(runaway_cases())
def test_temporal_cycle_with_runaway_edges_matches_a_full_state_walk(case):
    rule, x, max_steps, max_mid = case
    assert temporal_cycle(rule, x, max_steps, max_mid) == _full_walk(rule, x, max_steps, max_mid)


@SETTINGS
@given(table_rules().flatmap(lambda rule: st.tuples(st.just(rule), words(rule.alphabet_size, 1, 6))),
       st.integers(-6, 6), st.integers(0, 8))
def test_spatially_periodic_ep_config_walks_like_its_cyclic_word(case, phase, steps):
    # the orbit walk and the public step take the cyclic kernel for both;
    # the full walk and the rows step the EpConfig on the eventually
    # periodic stepper itself
    rule, word = case
    k = rule.alphabet_size
    kernel = _kernel(rule)
    pack = type(kernel[0])

    def stepper_step(_, y):
        image = _ep_stepper(kernel)(*map(pack, (y.left, y.mid, y.right)), y.start)
        return EpConfig(k, *map(tuple, image[:3]), image[3])

    cyclic, ep = CyclicConfig(k, word, phase), EpConfig(k, word, (), word, -phase)
    assert equals(cyclic, ep)
    full = _full_walk(rule, ep, 24, 0, stepper_step)
    assert temporal_cycle(rule, ep, 24) == temporal_cycle(rule, cyclic, 24) == full
    trace = space_time(rule, ep, steps, -8, 8)
    assert trace == space_time(rule, cyclic, steps, -8, 8)
    rows, cur = [], ep
    for _ in range(steps + 1):
        rows.append(tuple(value_at(cur, i) for i in range(-8, 9)))
        cur = stepper_step(rule, cur)
    assert trace.rows == tuple(rows)


def _seeded_ring(k, seed, shortest, longest):
    rng = Random(seed)
    return CyclicConfig(k, tuple(rng.randrange(k) for _ in range(rng.randrange(shortest, longest))))


RULE128, RULE184 = TableRule.from_wolfram(128), TableRule.from_wolfram(184)
# k = 3 over a width of 7: 2 187 entries, stepped as tuples
WIDE_RULE = TableRule(3, 3, tuple(map(Random(3).choice, [(0, 0, 1, 2)] * 3**7)))

# walks that enter a ring and whose root then shrinks: under AND from 20
# and 12 letters to 1, under the traffic rule 184 from 12 and 22 letters to
# 2, and under WIDE_RULE from 8 letters to 4, 2 and 1; and a defect that AND
# erases, so that the walk turns periodic
SHRINKING_WALKS = [
    (RULE128, _seeded_ring(2, 0, 8, 25)),
    (RULE128, _seeded_ring(2, 1, 8, 25)),
    (RULE184, _seeded_ring(2, 39, 6, 25)),
    (RULE184, _seeded_ring(2, 17, 6, 25)),
    (WIDE_RULE, _seeded_ring(3, 31, 8, 30)),
    (RULE128, EpConfig(2, (0,), (1, 1, 1), (0,))),
]


@pytest.mark.parametrize("rule, x", SHRINKING_WALKS)
def test_walks_whose_ring_root_shrinks_match_stepping_configurations(rule, x):
    # the walk keeps stepping the ring at its entry length; the public step
    # roots every image, and both must denote the same orbit
    assert type(_kernel(rule)[0]) is (tuple if rule is WIDE_RULE else bytes)
    steps = 40
    ys = [x]
    for _ in range(steps):
        ys.append(step(rule, ys[-1]))
    last = ys[-1]
    if isinstance(x, CyclicConfig):  # the case holds a shrinking root
        assert len(last.word) < len(x.word)
    else:  # the case turns periodic
        assert not last.mid and last.left == last.right
    assert temporal_cycle(rule, x, steps, 64) == _full_walk(rule, x, steps, 64)
    rows = tuple(tuple(value_at(y, i) for i in range(-10, 31)) for y in ys)
    assert space_time(rule, x, steps, -10, 30).rows == rows


# ---------------------------------------------------------------------------
# the packed window kernel

# (k, radius): random tables of 243 and of exactly 256 entries step bytes,
# tables of 300, 343 and 512 entries step tuples
KERNEL_SHAPES = ((3, 2), (256, 0), (300, 0), (7, 1), (2, 4))

# the pack follows the size of the essential span: both rules read 512
# window words, the first depends on two positions only (64 entries) and
# steps bytes, the second on all three and steps tuples
TRIMMED_RULES = [
    table_from_additive(parse_rule_spec(spec))
    for spec in ("additive:m=8;r=1;c=0,3,2", "additive:m=8;r=1;c=4,1,4")
]


@st.composite
def random_kernel_rules(draw):
    k, radius = draw(st.sampled_from(KERNEL_SHAPES))
    rng = Random(draw(st.integers(0, 2**32)))
    table = tuple(rng.randrange(k) for _ in range(k ** (2 * radius + 1)))
    return TableRule(k, radius, table, draw(st.integers(-2, 2)))


@st.composite
def kernel_cases(draw):
    rule = draw(st.one_of(random_kernel_rules(), st.sampled_from(TRIMMED_RULES)))
    return rule, draw(configs(rule.alphabet_size)), draw(st.integers(0, 6))


def _reference_step(rule, x):
    """One step of ``x``, each image letter read off ``value_at`` through
    ``encode_word``."""
    k, (lo, hi) = rule.alphabet_size, window(rule)

    def image(i):
        return rule.table[encode_word([value_at(x, c) for c in range(i + lo, i + hi + 1)], k)]

    if isinstance(x, CyclicConfig):
        return CyclicConfig(k, tuple(image(i) for i in range(len(x.word))))
    # windows left of start - hi read only the left tail, windows from
    # end - lo on only the right tail
    s, e = x.start - hi, x.end - lo
    left = tuple(image(i) for i in range(s - len(x.left), s))
    right = tuple(image(i) for i in range(e, e + len(x.right)))
    return EpConfig(k, left, tuple(image(i) for i in range(s, e)), right, s)


@settings(SETTINGS, max_examples=100)
@given(kernel_cases())
def test_packed_kernel_matches_a_per_cell_reference(case):
    rule, x, steps = case
    k = rule.alphabet_size
    table, width, lo, _ = _kernel(rule)
    assert (tuple(table), width, lo) == _reference_trim(rule.table, k, rule.width, window(rule)[0])
    pack = type(table)
    assert pack is (bytes if len(table) <= 256 else tuple)
    want = [x]
    for _ in range(steps):
        want.append(_reference_step(rule, want[-1]))
    for state, y in zip(islice(_orbit(rule, _state(x)), steps + 1), want, strict=True):
        assert all(type(word) is pack for word in state[:3])
        assert (*map(tuple, state[:3]), state[3]) == _state(y)
    rows = tuple(tuple(value_at(y, i) for i in range(-12, 13)) for y in want)
    assert space_time(rule, x, steps, -12, 12).rows == rows
    assert temporal_cycle(rule, x, 12, 64) == _full_walk(rule, x, 12, 64, _reference_step)


def test_the_kernel_packs_by_the_size_of_the_essential_span():
    narrow, wide = TRIMMED_RULES
    assert len(narrow.table) == len(wide.table) == 512
    table, width, lo, _ = _kernel(narrow)
    assert type(table) is bytes and (len(table), width, lo) == (64, 2, 0)
    table, width, lo, _ = _kernel(wide)
    assert type(table) is tuple and (len(table), width, lo) == (512, 3, -1)


# ---------------------------------------------------------------------------
# the power walk


def _reference_walk(rule):
    """The power walk over public tables: F^n = canonical(F o F^(n-1)),
    padded tables composed, with the oracle's cap and budget."""
    k = rule.alphabet_size
    cur = identity_rule(k)
    powers, memo = [cur], {cur: 0}
    for n in range(1, MAX_POWERS + 1):
        if k ** (2 * (cur.radius + canonicalize_table(rule).radius) + 1) > MAX_POWER_CELLS:
            return OracleUnknown(f"table cap reached at power {n}", n - 1), powers
        cur = canonicalize_table(compose_table(rule, cur))
        powers.append(cur)
        if cur in memo:
            return EquicontinuityCert(memo[cur], n - memo[cur]), powers
        memo[cur] = n
    return OracleUnknown("power budget exhausted", MAX_POWERS), powers


@st.composite
def walk_rules(draw):
    """Rules over 2..4 letters with radius 0..2 and offset -2..2; constant
    and identity rules over such windows among them, and letter
    permutations of one window position, whose powers repeat up to a
    translation with period the permutation's order."""
    k = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("table", "constant", "identity", "permuted shift")))
    if kind == "table":
        return draw(table_rules(k, 2))
    radius, offset = draw(st.integers(0, 2)), draw(st.integers(-2, 2))
    if kind == "constant":
        return TableRule(k, radius, (draw(st.integers(0, k - 1)),) * k ** (2 * radius + 1), offset)
    if kind == "identity":
        return pad_table(identity_rule(k), max(radius, abs(offset)), offset)
    perm, j = draw(st.permutations(range(k))), draw(st.integers(0, 2 * radius))
    return TableRule(k, radius, tuple(perm[w[j]] for w in product(range(k), repeat=2 * radius + 1)), offset)


def power_rules(rule):
    """The power walk's result, with its span tables read as tuples and
    padded into TableRules."""
    cert, spans = _packed_power_walk(rule)
    k = rule.alphabet_size
    return cert, [_span_rule(k, tuple(table), width, lo) for table, width, lo in spans]


@settings(SETTINGS, max_examples=150)
@given(walk_rules())
def test_power_walk_matches_a_walk_over_padded_tables(rule):
    assert power_rules(rule) == _reference_walk(rule)


def test_power_walk_of_a_shift_stops_at_its_first_translated_repeat(monkeypatch):
    # F^1 is F^0 moved by one cell, so no power can repeat exactly; the
    # other 63 powers are translates, not compositions
    calls = []

    def counted(*args):
        calls.append(args)
        return _compose(*args)

    monkeypatch.setattr(oracles, "_compose", counted)
    rule = table_from_additive(parse_rule_spec("additive:m=2;r=1;c=0,0,1"))
    cert, powers = power_rules(rule)
    assert len(calls) == 1
    assert cert == OracleUnknown("power budget exhausted", MAX_POWERS)
    assert (cert, powers) == _reference_walk(rule)


@st.composite
def dummy_tables(draw, k, width):
    """A table over ``width`` positions and ``k`` letters that reads only a
    random subset of them."""
    kept = [j for j in range(width) if draw(st.booleans())]
    inner = draw(st.lists(st.integers(0, k - 1), min_size=k ** len(kept), max_size=k ** len(kept)))
    return tuple(inner[encode_word([w[j] for j in kept], k)] for w in product(range(k), repeat=width))


@st.composite
def compose_cases(draw):
    """Tables ``f`` and ``g`` over k = 2..7 letters and 1..5 positions, with
    F o G below 20 000 entries, and an offset -2..2; ``f`` falls on both
    sides of the 256-entry rule (6^3 = 216, 7^3 = 343)."""
    k = draw(st.integers(2, 7))
    most = max(w for w in range(1, 15) if k**w <= 20_000)  # the width of F o G
    f_w = draw(st.integers(1, min(5, most)))
    g_w = draw(st.integers(1, min(5, most - f_w + 1)))
    f, g = draw(dummy_tables(k, f_w)), draw(dummy_tables(k, g_w))
    return k, f, f_w, g, g_w, draw(st.integers(-2, 2))


def _reference_trim(table, k, width, lo):
    """``_trim`` from the reference essential positions: the kept positions
    read with every stripped position at letter 0."""
    ends = essential_positions(table, k, width)
    if not ends:
        return (table[0],) * k, 1, 0
    first, last = ends[0], ends[-1]
    pad = (0,) * first, (0,) * (width - 1 - last)
    kept = product(range(k), repeat=last - first + 1)
    return tuple(table[encode_word(pad[0] + w + pad[1], k)] for w in kept), last - first + 1, lo + first


@settings(SETTINGS, max_examples=200)
@given(compose_cases())
def test_packed_composition_and_trim_match_the_tuple_route(case):
    k, f, f_w, g, g_w, lo = case
    width = g_w + f_w - 1
    composed = tuple(f[i] for i in _window_images(g, k, g_w, width))
    assert _compose(k, f, f_w, g, g_w) == composed
    if len(f) <= 256:
        assert _compose(k, bytes(f), f_w, bytes(g), g_w) == bytes(composed)
    for table, w in ((f, f_w), (g, g_w), (composed, width)):
        table_, w_, lo_ = _reference_trim(table, k, w, lo)
        assert _trim(table, k, w, lo) == (table_, w_, lo_)
        assert _trim(bytes(table), k, w, lo) == (bytes(table_), w_, lo_)
        ends = _reference_bijective_ends(table, k, w)
        assert _bijective_ends(table, k, w) == _bijective_ends(bytes(table), k, w) == ends


# rules over more than 256 window words keep tuples in the power walk
WIDE_RULES = [AdditiveRule(7, 1, {-1: 1, 0: 1, 1: 1}), AdditiveRule(4, 2, {-2: 2, -1: 1, 0: 3, 1: 2, 2: 1})]


def test_wide_rules_compose_and_walk_like_their_additive_powers():
    for f in WIDE_RULES:
        rule = table_from_additive(f)
        assert len(rule.table) > 256 and canonicalize_table(rule) == rule
        square = table_from_additive(power_additive(f, 2))
        assert canonicalize_table(compose_table(rule, rule)) == canonicalize_table(square)
        cert, powers = power_rules(rule)
        assert (cert, powers) == _reference_walk(rule)
        assert isinstance(cert, OracleUnknown) and len(powers) >= 2
        for n, power in enumerate(powers[1:], 1):
            assert power == canonicalize_table(table_from_additive(power_additive(f, n)))


def test_every_table_the_package_returns_is_a_tuple():
    small = table_from_additive(AdditiveRule(3, 1, {-1: 1, 1: 2}))
    rules = [small, identity_rule(4), TableRule.from_wolfram(110)] + list(map(table_from_additive, WIDE_RULES))
    out = []
    for rule in rules:
        # the walk keeps the kernel's pack, and builds no TableRule
        pack = type(_kernel(rule)[0])
        assert all(type(table) is pack for table, _, _ in _packed_power_walk(rule)[1])
        out += [rule, canonicalize_table(rule), compose_table(rule, rule)]
        out.append(product_rule(rule, identity_rule(2)))
    for rule in out:
        assert type(rule.table) is tuple and all(type(a) is int for a in rule.table)


def _padding_cases():
    """A seeded sample of the elementary rules and of the radius-1 additive
    tables with m = 2..9, the identity mod 8 (its padding's table cap would
    cut the power walk at power 1 if it read the declared radius) and the
    shift x_1 mod 8."""
    rng = Random(20)
    rules = [TableRule.from_wolfram(code) for code in rng.sample(range(256), 16)]
    for _ in range(12):
        m = rng.randrange(2, 10)
        rules.append(table_from_additive(AdditiveRule(m, 1, {j: rng.randrange(m) for j in (-1, 0, 1)})))
    rules += [table_from_additive(AdditiveRule(8, 1, c)) for c in ({0: 1}, {1: 1})]
    return rules


def _answers(rule):
    """Every oracle and search answer on ``rule`` at small bounds."""
    k = rule.alphabet_size
    return (
        equicontinuity_oracle(rule),
        _packed_power_walk(rule),
        blocking_word_search(rule, 6 if k == 2 else 2, 1, 2),
        surjectivity_oracle(rule),
        jointly_periodic_points(rule, 3, 8),
        stp_empty_scan(rule, 1, 2, 8),
        temporal_cycle(rule, EpConfig(k, (0,), (1, k - 1), (1,), 0), 64, 40),
    )


def test_searches_and_oracles_answer_a_padded_rule_like_the_rule():
    # padding changes no global map, so no answer may read the declared window
    for rule in _padding_cases():
        assert _answers(pad_table(rule, rule.radius + 1)) == _answers(rule), rule


# ---------------------------------------------------------------------------
# the successor memo

# rules that wipe out defects, so that images turn spatially periodic
DEFECT_KILLERS = [TableRule.from_wolfram(n) for n in (0, 8, 128, 136)]


@st.composite
def memo_cases(draw):
    """A rule (some composed, keeping a nonzero offset) and walks of a few
    eventually periodic starts, each at a random translation."""
    rule = draw(st.one_of(table_rules(), st.sampled_from(DEFECT_KILLERS)))
    if draw(st.booleans()):
        rule = canonicalize_table(compose_table(rule, draw(table_rules(rule.alphabet_size))))
    starts = draw(st.lists(ep_configs(rule.alphabet_size), min_size=1, max_size=3))
    walk = st.tuples(st.sampled_from(starts), st.integers(-6, 6), st.integers(0, 10))
    return rule, draw(st.lists(walk, min_size=2, max_size=6))


@settings(SETTINGS, max_examples=100)
@given(memo_cases())
def test_walks_through_one_successor_memo_match_plain_walks(case):
    # later walks hit entries stored by earlier ones, at other translations
    rule, walks = case
    advance = _ep_stepper(_kernel(rule), {})
    for x, n, steps in walks:
        state = _state(shift(x, n))
        plain = list(islice(_orbit(rule, state), steps + 1))
        assert list(islice(_orbit(rule, state, advance), steps + 1)) == plain


def test_a_successor_memo_carries_one_stepper_for_all_its_walks():
    # every eventually periodic walk handed the stepper steps on it, and so
    # fills its one memo; a spatially periodic start takes the cyclic
    # kernel and leaves the stepper and its memo alone
    rule = TableRule.from_wolfram(30)
    memo = {}
    stepper = _ep_stepper(_kernel(rule), memo)
    stepped = []

    def advance(*state):
        stepped.append(state)
        return stepper(*state)

    list(islice(_orbit(rule, _state(CyclicConfig(2, (0, 1))), advance), 4))
    assert not stepped and not memo
    list(islice(_orbit(rule, _state(EpConfig(2, (0,), (1,), (0,), 0)), advance), 4))
    assert len(stepped) == 3 and len(memo) == 3
    walk = list(islice(_orbit(rule, _state(EpConfig(2, (0, 1), (1,), (1,), 3)), advance), 6))
    assert len(stepped) == 8 and 3 < len(memo) <= 8
    assert walk == list(islice(_orbit(rule, _state(EpConfig(2, (0, 1), (1,), (1,), 3))), 6))


# ---------------------------------------------------------------------------
# the eventually periodic step and its tail tables

# span tables of 8, 27 and 16 bytes, and of 343 entries (tuples), each at
# an offset that puts the whole span right of the cell, around it or left
# of it; two shifts, whose two-regime images slide their boundary
STEPPER_SHAPES = ((2, 1), (3, 1), (2, 2), (7, 1))
STEPPER_RULES = [
    table_from_additive(parse_rule_spec("additive:m=7;r=1;c=1,2,3")),  # 343 entries: tuples
    TableRule(2, 1, TableRule.from_wolfram(30).table, 2),  # span 1 .. 3
    TableRule(7, 1, tuple(map(Random(7).randrange, [7] * 343)), -2),  # span -3 .. -1
    TableRule(3, 0, (0, 1, 2), 1),
    TableRule(2, 0, (0, 1), -1),
]


def test_the_fixed_stepper_rules_keep_their_kernels():
    # (type, width, lo) of each kernel: a table that trims to fewer
    # positions would leave a shape above untested without failing
    kernels = [(type(table), width, lo) for table, width, lo, _ in map(_kernel, STEPPER_RULES)]
    assert kernels == [(tuple, 3, -1), (bytes, 3, 1), (tuple, 3, -3), (bytes, 1, 1), (bytes, 1, -1)]


@st.composite
def stepper_cases(draw):
    """A rule, often one-sided, whose kernel steps bytes or tuples, and an
    eventually periodic start with tails of 1 to 4 letters: a mid of up to
    6 letters, or an empty one between two tails, often ending alike."""
    rule = draw(st.sampled_from(STEPPER_RULES + DEFECT_KILLERS))
    if draw(st.booleans()):
        k, radius = draw(st.sampled_from(STEPPER_SHAPES))
        rng = Random(draw(st.integers(0, 2**32)))
        table = tuple(rng.randrange(k) for _ in range(k ** (2 * radius + 1)))
        rule = TableRule(k, radius, table, draw(st.sampled_from((-radius - 1, 0, radius + 1))))
    k = rule.alphabet_size
    left, right = draw(words(k, 1, 4)), draw(words(k, 1, 4))
    mid = draw(words(k, 1, 6)) if draw(st.booleans()) else ()
    if not mid and draw(st.booleans()):
        common = draw(words(k, 1, 2))
        left, right = (left + common)[-4:], (right + common)[-4:]
    return rule, EpConfig(k, left, mid, right, draw(st.integers(-5, 5))), draw(st.integers(0, 8))


def _rooted(walk):
    """The states of an orbit walk, each spatially periodic one with its
    ring rooted, after checking that its rings keep one length: a walk
    steps the ring it entered with, unrooted (see ``engine._orbit``), and
    its eventually periodic states stay canonical, compared exactly."""
    walk = list(walk)
    rings = [not mid and left == right for left, mid, right, _ in walk]
    assert len({len(state[0]) for state, ring in zip(walk, rings) if ring}) <= 1
    return [
        (primitive_root(state[0]), state[1], primitive_root(state[2]), state[3]) if ring else state
        for state, ring in zip(walk, rings)
    ]


@settings(SETTINGS, max_examples=200)
@given(stepper_cases())
def test_the_tail_tables_step_like_imaging_every_row_whole(case):
    # a walk meets its tails again and again; each step must read the same
    # as padding both tails and rooting the tails' images afresh
    rule, x, steps = case
    kernel = _kernel(rule)
    pack = type(kernel[0])

    def reference_walk(y):
        walk = [(*map(pack, _state(y)[:3]), _state(y)[3])]
        for _ in range(steps):
            walk.append(ep_step(kernel, *walk[-1]))
        return walk

    want = reference_walk(x)
    assert _rooted(islice(_orbit(rule, _state(x)), steps + 1)) == want
    advance = _ep_stepper(kernel, {})
    for n in (0, 3, 0):  # later walks read entries that earlier ones stored
        y = shift(x, n)
        assert _rooted(islice(_orbit(rule, _state(y), advance), steps + 1)) == reference_walk(y)
    y = x
    for state in want[1:]:
        y = step(rule, y)
        assert _state(y) == (*map(tuple, state[:3]), state[3])


# ---------------------------------------------------------------------------
# the window reader and what reads through it


@st.composite
def windows(draw):
    """A config (eventually periodic ones with mids up to 12 letters) and a
    window ``lo .. hi - 1`` placed around its start or end: wholly left of
    the mid, across it, wholly right of it, or empty (``hi <= lo``)."""
    k = draw(st.integers(2, 3))
    cyclic = st.builds(CyclicConfig, st.just(k), words(k, 1, 6), st.integers(-6, 6))
    long_mid = st.builds(
        EpConfig, st.just(k), words(k, 1, 3), words(k, 0, 12), words(k, 1, 3), st.integers(-5, 5)
    )
    x = draw(st.one_of(cyclic, long_mid))
    start, end = (0, 0) if isinstance(x, CyclicConfig) else (x.start, x.end)
    lo = draw(st.sampled_from((start, end))) + draw(st.integers(-16, 16))
    return x, lo, lo + draw(st.integers(-3, 20))


@settings(SETTINGS, max_examples=400)
@given(windows())
def test_window_reader_matches_value_at(case):
    x, lo, hi = case
    assert _cells(*_state(x), lo, hi) == [value_at(x, i) for i in range(lo, hi)]


@settings(SETTINGS, max_examples=200)
@given(st.integers(2, 3).flatmap(lambda k: words(k, 1, 6)), st.integers(-6, 6).filter(bool),
       st.integers(-12, 12), st.integers(-2, 16))
def test_window_reader_reads_a_ring_anchored_off_zero(word, start, lo, width):
    # a spatially periodic state read at any start, as tuples and as bytes
    want = [_raw_value(word, (), word, start, i) for i in range(lo, lo + width)]
    assert _cells(word, (), word, start, lo, lo + width) == want
    assert _cells(bytes(word), b"", bytes(word), start, lo, lo + width) == want


@SETTINGS
@given(rule_and_config(), st.integers(0, 6), st.integers(-12, 6), st.integers(0, 14))
def test_space_time_rows_match_iterated_steps(case, steps, lo, width):
    rule, x = case
    trace = space_time(rule, x, steps, lo, lo + width)
    rows, cur = [], x
    for _ in range(steps + 1):
        rows.append(tuple(value_at(cur, i) for i in range(lo, lo + width + 1)))
        cur = step(rule, cur)
    assert trace.rows == tuple(rows)


@st.composite
def join_cases(draw):
    ks = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    return [draw(configs(k)) for k in ks]


@SETTINGS
@given(join_cases())
def test_join_letterwise_matches_a_per_coordinate_reference(components):
    # letters combined as digits of a mixed-radix number, so every letter
    # of every component shows in the joint letter
    def fn(*letters):
        out = 0
        for c, a in zip(components, letters):
            out = out * c.alphabet_size + a
        return out

    size = 1
    for c in components:
        size *= c.alphabet_size
    joined = _join(components, fn, size)
    assert isinstance(joined, CyclicConfig) == all(isinstance(c, CyclicConfig) for c in components)
    # past every mid both tails of the joint are periodic with period
    # dividing the lcm of all tail periods, so two of them on each side
    # pin the whole configuration
    period = lcm(*(len(w) for c in components for w in _tails(c)))
    eps = [c for c in components if isinstance(c, EpConfig)]
    lo = min((c.start for c in eps), default=0) - 2 * period
    hi = max((c.end for c in eps), default=0) + 2 * period
    for i in range(lo, hi):
        assert value_at(joined, i) == fn(*(value_at(c, i) for c in components)), i


def _tails(x):
    return (x.word,) if isinstance(x, CyclicConfig) else (x.left, x.right)
