"""Configuration representations: canonical forms, equality, shift,
products, and literals."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import timeit
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_helpers import (
    canonical_ep,
    divisor_scan_root,
    encode_word,
    ep_step,
    equals,
    value_at,
    window,
)
from periodika.configs import (
    ConfigSpecError,
    CyclicConfig,
    EpConfig,
    _absorb,
    _canonical_ep,
    _cyclic_root,
    _ep,
    _join,
    is_spatially_periodic,
    parse_config,
    primitive_root,
    render_config,
    shift,
)
from periodika.engine import step
from periodika.rules import TableRule, _kernel


# ---------------------------------------------------------------------------
# primitive roots and cyclic canonicalization


def test_primitive_root():
    assert primitive_root((0, 1, 0, 1)) == (0, 1)
    assert primitive_root((0, 1, 1)) == (0, 1, 1)
    assert primitive_root((0,)) == (0,)


@st.composite
def _root_inputs(draw):
    """A word of a type that ``primitive_root`` takes: a power of a random
    root, or random letters (empty and one-letter words included), with
    letters below 2, 256 or 300, as bytes (letters below 256 only), a
    tuple, a list or a str."""
    top = draw(st.sampled_from((2, 256, 300)))
    letters = st.integers(0, top - 1)
    if draw(st.booleans()):
        word = draw(st.lists(letters, min_size=1, max_size=6)) * draw(st.integers(1, 6))
    else:
        word = draw(st.lists(letters, max_size=12))
    kinds = [tuple, list, lambda w: "".join(map(chr, w))]
    if top <= 256:
        kinds.append(bytes)
    return draw(st.sampled_from(kinds))(word)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_root_inputs())
def test_primitive_root_agrees_with_the_divisor_scan(word):
    root = primitive_root(word)
    assert type(root) is type(word)
    assert root == divisor_scan_root(word)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((1, 2, 5040)),
    st.sampled_from((2, 256, 300)),
    st.integers(0, 2**32 - 1),
    st.sampled_from((bytes, tuple, list)),
)
def test_primitive_root_of_5040_letter_words(root_len, top, seed, kind):
    if kind is bytes:
        top = min(top, 256)
    rng = random.Random(seed)
    word = kind([rng.randrange(top) for _ in range(root_len)] * (5040 // root_len))
    assert primitive_root(word) == divisor_scan_root(word)


@st.composite
def _packable_words(draw):
    """Words over at most 256 letters, tails and cyclic word repeated so
    that their roots are shorter: a cyclic word with a phase, and an
    eventually periodic presentation, sometimes with equal tails."""
    k = draw(st.integers(2, 256))
    word, left, mid, right = (draw(_letter_words(k, n)) for n in (1, 1, 0, 1))
    if draw(st.booleans()):
        right = left
    word, left, right = (w * draw(st.integers(1, 3)) for w in (word, left, right))
    return word, draw(st.integers(-6, 6)), left, mid, right, draw(st.integers(-5, 5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_packable_words())
def test_canonical_forms_agree_on_bytes_and_tuples(case):
    word, phase, left, mid, right, start = case
    packed_root, root = primitive_root(bytes(word)), primitive_root(word)
    packed = _absorb(packed_root, b"", packed_root, -phase)[0]
    assert type(packed) is bytes and tuple(packed) == _absorb(root, (), root, -phase)[0]
    *packed, packed_start = _canonical_ep(bytes(left), bytes(mid), bytes(right), start)
    assert all(type(w) is bytes for w in packed)
    assert (*map(tuple, packed), packed_start) == _canonical_ep(left, mid, right, start)


@st.composite
def _absorbing_presentations(draw):
    """An eventually periodic presentation whose mid continues its left
    tail rightward and its right tail leftward for long runs (the runs may
    meet or cross), and whose tails agree leftward for a long run, so that
    border absorption and the boundary slide both have far to go."""
    k = draw(st.sampled_from((2, 3, 256)))
    left, right = draw(_letter_words(k, 1)), draw(_letter_words(k, 1))
    if draw(st.booleans()):
        # tails that end in a common run longer than either
        common = draw(_letter_words(k, 1)) * draw(st.integers(1, 8))
        left, right = left + common, right + common
    n_left, n_right = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    mid = (
        tuple(left[i % len(left)] for i in range(n_left))
        + draw(_letter_words(k, 0))
        + tuple(right[-1 - j % len(right)] for j in range(n_right))[::-1]
    )
    return k, left, mid, right, draw(st.integers(-6, 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_absorbing_presentations())
# a 20 000-letter absorbed run and a 10 000-letter slide: on tuples the
# letter-at-a-time canonicaliser takes over a second on each
@example((2, (0,), (0,) * 20000 + (1,), (1,), 0))
@example((2, (1,) + (0,) * 10000, (), (1,) + (0,) * 10001, 0))
def test_canonical_ep_matches_the_letter_at_a_time_reference(case):
    k, left, mid, right, start = case
    packed = tuple(map(bytes, (left, mid, right)))
    # the reference slices bytes fast enough for the long cases
    expected = canonical_ep(*packed, start)
    assert _canonical_ep(*packed, start) == expected
    expected = (*map(tuple, expected[:3]), expected[3])
    assert _canonical_ep(left, mid, right, start) == expected
    x = EpConfig(k, left, mid, right, start)
    assert (x.left, x.mid, x.right, x.start) == expected


def test_long_canonical_forms_finish_within_ten_seconds(tmp_path):
    # the two long presentations above, built by EpConfig in a fresh
    # interpreter under a 10-s bound, so that a canonicaliser gone
    # quadratic fails here instead of stalling the suite
    code = (
        "from periodika.configs import EpConfig\n"
        "EpConfig(2, (0,), (0,) * 20000 + (1,), (1,))\n"
        "EpConfig(2, (1,) + (0,) * 10000, (), (1,) + (0,) * 10001)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, cwd=tmp_path, env=env, timeout=10)


def test_long_canonical_forms_finish_within_half_a_second():
    # the same two presentations in process: the linear canonicaliser
    # takes milliseconds on them, the letter-at-a-time one 0.8 and 1.6 s
    # on tuples, so a quadratic regression fails here with a margin both ways
    for args in (
        ((0,), (0,) * 20000 + (1,), (1,)),
        ((1,) + (0,) * 10000, (), (1,) + (0,) * 10001),
    ):
        best = min(timeit.repeat(lambda: EpConfig(2, *args), number=1, repeat=3))
        assert best < 0.5, (len(args[1]), best)


def test_cyclic_reduces_to_primitive_root():
    assert CyclicConfig(2, (0, 1, 0, 1)) == CyclicConfig(2, (0, 1))


def test_cyclic_phase_rotates_into_the_word():
    rotated = CyclicConfig(2, (0, 1), 1)
    assert rotated.word == (1, 0) and rotated.phase == 0
    assert value_at(rotated, 0) == 1


def test_cyclic_distinct_phases_differ():
    assert CyclicConfig(2, (0, 1), 0) != CyclicConfig(2, (0, 1), 1)


def test_cyclic_rejects_bad_input():
    with pytest.raises(ValueError):
        CyclicConfig(2, ())
    with pytest.raises(ValueError):
        CyclicConfig(2, (0, 2))


# ---------------------------------------------------------------------------
# eventually periodic canonicalization


def test_ep_absorbs_aligned_middle():
    x = EpConfig(2, (0, 1), (0, 1), (0, 1), 0)
    assert x.mid == () and x.left == x.right
    assert is_spatially_periodic(x)
    assert equals(x, CyclicConfig(2, (0, 1)))


def test_ep_defect_is_already_canonical():
    x = EpConfig(2, (0,), (1,), (0,), 0)
    assert x.left == (0,) and x.mid == (1,) and x.right == (0,) and x.start == 0


def test_ep_reduces_tails_and_absorbs_borders():
    x = EpConfig(2, (0, 0), (0, 1), (0,), 0)
    assert x.left == (0,)
    assert x.mid == (1,)
    assert x.start == 1


def test_ep_two_regime_boundary_slides_leftmost():
    a = EpConfig(2, (0,), (), (0, 1), 0)
    b = EpConfig(2, (0,), (), (0, 1), 2)
    # same biinfinite configuration described with different anchors
    assert a == shift(b, 2)
    assert not is_spatially_periodic(a)


def test_ep_rejects_empty_tails():
    with pytest.raises(ValueError):
        EpConfig(2, (), (1,), (0,))
    with pytest.raises(ValueError):
        EpConfig(2, (0,), (1,), ())


def test_ep_construction_preserves_denotation():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.choice((2, 3, 4))
        left = tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
        mid = tuple(rng.randrange(k) for _ in range(rng.randint(0, 4)))
        right = tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
        start = rng.randint(-3, 3)

        def raw(i):
            if i < start:
                return left[(i - start) % len(left)]
            if i < start + len(mid):
                return mid[i - start]
            return right[(i - start - len(mid)) % len(right)]

        x = EpConfig(k, left, mid, right, start)
        width = 4 * (len(left) + len(mid) + len(right))
        for i in range(-width, width + 1):
            assert value_at(x, i) == raw(i)


# ---------------------------------------------------------------------------
# value_at and shift


def test_value_at_covers_all_three_regions():
    x = EpConfig(3, (0, 1), (2, 2), (1,), 0)
    assert [value_at(x, i) for i in range(-4, 5)] == [0, 1, 0, 1, 2, 2, 1, 1, 1]


def test_shift_examples():
    x = CyclicConfig(2, (1, 0))
    assert value_at(shift(x, 1), 0) == value_at(x, 1)
    assert shift(x, 0) == x
    y = EpConfig(2, (0,), (1,), (0,), 0)
    assert shift(y, 3).start == -3


def test_shift_is_additive():
    rng = random.Random(3)
    samples = [
        CyclicConfig(2, (1, 1, 0)),
        EpConfig(3, (0, 1), (2,), (0,), -1),
        EpConfig(2, (0,), (), (1,), 0),
    ]
    for x in samples:
        for _ in range(20):
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            assert shift(shift(x, a), b) == shift(x, a + b)


def test_shift_preserves_denotation():
    x = EpConfig(2, (0, 1), (1, 1), (0,), 0)
    y = shift(x, 2)
    for i in range(-8, 9):
        assert value_at(y, i) == value_at(x, i + 2)


# ---------------------------------------------------------------------------
# spatial periodicity and equality


def test_spatial_periodicity_examples():
    assert not is_spatially_periodic(EpConfig(2, (0,), (1,), (0,), 0))
    assert is_spatially_periodic(EpConfig(2, (0, 1), (), (0, 1), 0))
    assert not is_spatially_periodic(EpConfig(2, (0,), (), (0, 1), 0))
    assert is_spatially_periodic(CyclicConfig(2, (0, 1)))


def test_spatial_periodicity_agrees_with_shift_fixpoints():
    samples = [
        CyclicConfig(2, (0, 1, 1)),
        EpConfig(2, (0, 1), (), (0, 1), 1),
        EpConfig(2, (0,), (1,), (0,), 0),
        EpConfig(2, (0,), (), (1,), 0),
        EpConfig(3, (0, 1), (2,), (1, 2), 0),
    ]
    for x in samples:
        bound = 8
        fixed = any(equals(shift(x, n), x) for n in range(1, bound + 1))
        assert is_spatially_periodic(x) == fixed


def test_equals_across_classes():
    assert equals(EpConfig(2, (0,), (), (0,), 0), CyclicConfig(2, (0,)))
    assert equals(CyclicConfig(2, (0, 1, 0, 1)), CyclicConfig(2, (0, 1)))
    assert not equals(CyclicConfig(2, (0, 1)), CyclicConfig(2, (0, 1), 1))
    assert not equals(EpConfig(2, (0,), (1,), (0,), 0), CyclicConfig(2, (0,)))
    with pytest.raises(ValueError):
        equals(CyclicConfig(2, (0,)), CyclicConfig(3, (0,)))


# ---------------------------------------------------------------------------
# letterwise maps and products


def test_map_letters_recanonicalizes():
    x = EpConfig(2, (0,), (1,), (0,), 0)
    flipped = _join((x,), lambda a: 1 - a, 2)
    assert flipped == EpConfig(2, (1,), (0,), (1,), 0)
    collapsed = _join((x,), lambda a: 0, 2)
    assert equals(collapsed, CyclicConfig(2, (0,)))


def test_join_letterwise_on_cyclic_inputs():
    a = CyclicConfig(2, (0, 1))
    b = CyclicConfig(2, (0, 1, 1))
    joined = _join((a, b), lambda p, q: p ^ q, 2)
    assert isinstance(joined, CyclicConfig)
    assert len(joined.word) in (1, 2, 3, 6)
    for i in range(-12, 13):
        assert value_at(joined, i) == value_at(a, i) ^ value_at(b, i)


def test_join_letterwise_mixed_classes():
    a = EpConfig(2, (0,), (1,), (0,), 0)
    b = CyclicConfig(2, (0, 1))
    joined = _join((a, b), lambda p, q: p + q, 3)
    for i in range(-10, 11):
        assert value_at(joined, i) == value_at(a, i) + value_at(b, i)


def test_product_split_round_trip():
    x = EpConfig(2, (0,), (1,), (0,), 0)
    y = CyclicConfig(3, (0, 2))
    fused = _join((x, y), lambda a, b: a * 3 + b, 6)
    assert fused.alphabet_size == 6
    assert equals(_join((fused,), lambda c: c // 3, 2), x)
    assert equals(_join((fused,), lambda c: c % 3, 3), y)


# ---------------------------------------------------------------------------
# literals


def test_parse_and_render_cyclic():
    x = parse_config("cyclic:0101@2", 2)
    assert x == CyclicConfig(2, (0, 1), 2)
    assert render_config(x) == "cyclic:01@0"
    assert parse_config(render_config(x), 2) == x


def test_parse_and_render_ep():
    x = parse_config("ep:0|1|0", 2)
    assert x == EpConfig(2, (0,), (1,), (0,), 0)
    assert render_config(x) == "ep:0|1|0@0"
    y = parse_config("ep:01||01@-2", 2)
    assert is_spatially_periodic(y)


def test_parse_config_errors():
    for text, k in (
        ("cyclic:", 2),
        ("cyclic:012", 2),
        ("cyclic:01@x", 2),
        ("ep:0|1", 2),
        ("ep:|1|0", 2),
        ("ep:0|1|0@x", 2),
        ("nope:0", 2),
        ("cyclic:0.11", 11),
        ("cyclic:0..1", 11),
        ("cyclic:0.1.", 11),
        ("cyclic:", 12),
        ("ep:1|2.x|3", 12),
        ("ep:1|23|3", 12),
    ):
        with pytest.raises(ConfigSpecError):
            parse_config(text, k)


def test_literals_past_ten_letters_separate_letters_with_dots():
    x = CyclicConfig(12, (10, 11, 1))
    assert render_config(x) == "cyclic:10.11.1@0"
    assert parse_config("cyclic:10.11.1", 12) == x
    y = EpConfig(11, (10,), (), (0, 3), 2)
    assert render_config(y) == "ep:10||0.3@2"
    assert parse_config(render_config(y), 11) == y
    # one digit per cell up to ten letters
    assert render_config(CyclicConfig(10, (9, 1))) == "cyclic:91@0"


def _letter_words(k, min_size):
    return st.lists(st.integers(0, k - 1), min_size=min_size, max_size=6).map(tuple)


@st.composite
def _configs_any_alphabet(draw):
    k = draw(st.integers(2, 16))
    if draw(st.booleans()):
        return CyclicConfig(k, draw(_letter_words(k, 1)), draw(st.integers(-6, 6)))
    left, mid, right = (draw(_letter_words(k, n)) for n in (1, 0, 1))
    return EpConfig(k, left, mid, right, draw(st.integers(-5, 5)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_configs_any_alphabet())
def test_literals_round_trip_for_every_alphabet(x):
    assert parse_config(render_config(x), x.alphabet_size) == x


@st.composite
def _raw_words_any_alphabet(draw):
    """An alphabet size, up to 300, and words over it: a cyclic word and
    the tails, mid and start of an eventually periodic presentation."""
    k = draw(st.integers(2, 300))
    word, left, mid, right = (draw(_letter_words(k, n)) for n in (1, 1, 0, 1))
    return k, word, left, mid, right, draw(st.integers(-5, 5))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_raw_words_any_alphabet(), st.integers(0, 2**32 - 1))
def test_trusted_constructors_agree_with_the_public_ones(case, seed):
    k, word, left, mid, right, start = case
    x, y = CyclicConfig(k, word), EpConfig(k, left, mid, right, start)
    root = primitive_root(word)
    assert _cyclic_root(k, _absorb(root, (), root, 0)[0]) == x
    assert _ep(k, *_canonical_ep(left, mid, right, start)) == y
    # step builds its images with the trusted constructors; a radius-1
    # table over up to 7 letters and a radius-0 one over more, so that the
    # packed words are bytes for span tables of up to 256 entries and
    # tuples for larger ones
    radius = 1 if k <= 7 else 0
    rng = random.Random(seed)
    rule = TableRule(k, radius, tuple(rng.randrange(k) for _ in range(k ** (2 * radius + 1))))
    # the cyclic image letter by letter, each window read off value_at
    lo, hi = window(rule)
    windows = ([value_at(x, c) for c in range(i + lo, i + hi + 1)] for i in range(len(x.word)))
    assert step(rule, x) == CyclicConfig(k, tuple(rule.table[encode_word(w, k)] for w in windows))
    kernel = _kernel(rule)
    pack = type(kernel[0])
    image = ep_step(kernel, *map(pack, (y.left, y.mid, y.right)), y.start)
    assert step(rule, y) == EpConfig(k, *image)
