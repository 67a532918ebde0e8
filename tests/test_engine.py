"""Exact stepping, cycle detection, and space-time traces."""

from __future__ import annotations

import random
from itertools import product

import pytest

from reference_helpers import equals, identity_rule
from periodika.configs import CyclicConfig, EpConfig, shift
from periodika.engine import (
    CycleResult,
    CycleTimeout,
    SpaceTimeTrace,
    _ep_stepper,
    ascii_render,
    pgm_render,
    space_time,
    step,
    temporal_cycle,
)
from periodika.rules import (
    AdditiveRule,
    TableRule,
    _kernel,
    power_additive,
    table_from_additive,
)

RULE90 = table_from_additive(AdditiveRule(2, 1, {-1: 1, 1: 1}))
M4_TABLE = table_from_additive(AdditiveRule(4, 1, {-1: 2, 0: 1, 1: 2}))
SHIFT2 = table_from_additive(AdditiveRule(2, 1, {1: 1}))


# ---------------------------------------------------------------------------
# stepping


def test_step_cyclic_examples():
    assert step(RULE90, CyclicConfig(2, (1, 1, 0))) == CyclicConfig(2, (1, 1, 0))
    assert equals(step(RULE90, CyclicConfig(2, (1, 1, 1))), CyclicConfig(2, (0,)))
    x = CyclicConfig(4, (0, 3, 1))
    assert step(identity_rule(4), x) == x


def test_step_cyclic_checks_alphabet():
    with pytest.raises(ValueError):
        step(RULE90, CyclicConfig(3, (0, 1)))
    with pytest.raises(ValueError):
        step(RULE90, EpConfig(3, (0,), (2,), (1,), 0))


def test_step_ep_widens_the_defect():
    y = EpConfig(4, (0,), (1,), (0,), 0)
    img = step(M4_TABLE, y)
    assert img == EpConfig(4, (0,), (2, 1, 2), (0,), -1)


def test_step_ep_shift_moves_the_defect():
    y = EpConfig(2, (0,), (1,), (0,), 0)
    img = step(SHIFT2, y)
    assert img == EpConfig(2, (0,), (1,), (0,), -1)


def test_step_ep_fixes_the_quiescent_configuration():
    y = EpConfig(2, (0,), (), (0,), 0)
    assert step(RULE90, y) == y


def test_step_dispatches_on_class():
    assert isinstance(step(RULE90, CyclicConfig(2, (0, 1))), CyclicConfig)
    assert isinstance(step(RULE90, EpConfig(2, (0,), (1,), (0,), 0)), EpConfig)


def test_step_handles_offset_rules():
    # canonical one-sided rules read strictly to the right of the cell
    from periodika.rules import canonicalize_table

    one_sided = canonicalize_table(SHIFT2)
    assert one_sided.offset == 1 and one_sided.radius == 0
    x = CyclicConfig(2, (1, 1, 0))
    assert step(one_sided, x) == step(SHIFT2, x)
    y = EpConfig(2, (0,), (1, 1), (0,), 0)
    assert step(one_sided, y) == step(SHIFT2, y)


def test_cyclic_image_period_divides_input_period():
    for rule in (RULE90, SHIFT2, M4_TABLE):
        k = rule.alphabet_size
        for n in range(1, 7):
            for word in product(range(k), repeat=n):
                x = CyclicConfig(k, word)
                y = step(rule, x)
                assert len(x.word) % len(y.word) == 0


def test_step_cyclic_agrees_with_step_ep_on_periodic_inputs():
    # step takes the cyclic kernel for both forms, so the eventually
    # periodic side calls the stepper itself
    for rule in (RULE90, SHIFT2, M4_TABLE):
        kernel = _kernel(rule)
        pack = type(kernel[0])
        k = rule.alphabet_size
        for n in range(1, 5):
            for word in product(range(k), repeat=n):
                as_cyclic = step(rule, CyclicConfig(k, word))
                y = EpConfig(k, word, (), word, 0)
                image = _ep_stepper(kernel)(*map(pack, (y.left, y.mid, y.right)), y.start)
                assert equals(as_cyclic, EpConfig(k, *map(tuple, image[:3]), image[3]))


def test_step_commutes_with_shift():
    configs = [
        CyclicConfig(2, (1, 1, 0, 0, 1)),
        EpConfig(2, (0,), (1, 1, 0), (0, 1), 0),
        EpConfig(2, (0, 1), (), (1, 0), 2),
    ]
    for rule in (RULE90, SHIFT2):
        for x in configs:
            for n in (1, -2, 5):
                assert equals(step(rule, shift(x, n)), shift(step(rule, x), n))


def test_step_commutes_with_shift_exhaustively():
    for n in range(1, 6):
        for word in product(range(2), repeat=n):
            x = CyclicConfig(2, word)
            assert equals(step(RULE90, shift(x, 1)), shift(step(RULE90, x), 1))


def _tight(rule: AdditiveRule) -> AdditiveRule:
    """Shrink the declared radius to the actual support so expanding a
    high power into a table stays affordable."""
    radius = max((abs(j) for j in rule.support), default=0)
    return AdditiveRule(rule.modulus, radius, dict(rule.coeffs))


def test_rule_powers_agree_with_iterated_steps():
    rng = random.Random(5)
    rules = [
        AdditiveRule(2, 1, {-1: 1, 1: 1}),
        AdditiveRule(4, 1, {-1: 2, 0: 1, 1: 2}),
        AdditiveRule(6, 1, {-1: 4, 0: 1, 1: 4}),
        AdditiveRule(3, 1, {-1: 1, 0: 2}),
    ]
    for rule in rules:
        m = rule.modulus
        base = table_from_additive(rule)
        configs = [
            CyclicConfig(m, tuple(rng.randrange(m) for _ in range(rng.randint(1, 5))))
            for _ in range(3)
        ]
        configs.append(EpConfig(m, (0,), (1,), (0,), 0))
        for h in range(1, 7):
            power = _tight(power_additive(rule, h))
            if m ** (2 * power.radius + 1) > 20_000:
                break
            power_table = table_from_additive(power)
            for x in configs:
                iterated = x
                for _ in range(h):
                    iterated = step(base, iterated)
                assert equals(step(power_table, x), iterated)


# ---------------------------------------------------------------------------
# cycle detection


def test_temporal_cycle_examples():
    assert temporal_cycle(SHIFT2, CyclicConfig(2, (1, 0))) == CycleResult(0, 2)
    assert temporal_cycle(M4_TABLE, EpConfig(4, (0,), (1,), (0,), 0)) == CycleResult(0, 2)
    assert temporal_cycle(RULE90, CyclicConfig(2, (1, 1, 1))) == CycleResult(1, 1)


def test_temporal_cycle_result_is_minimal():
    res = temporal_cycle(SHIFT2, CyclicConfig(2, (1, 1, 0, 0, 1)))
    assert isinstance(res, CycleResult)
    x = CyclicConfig(2, (1, 1, 0, 0, 1))
    orbit = [x]
    for _ in range(res.preperiod + res.period):
        orbit.append(step(SHIFT2, orbit[-1]))
    assert orbit[res.preperiod + res.period] == orbit[res.preperiod]
    for p in range(1, res.period):
        assert orbit[res.preperiod + p] != orbit[res.preperiod]


# (rule, start, step budget): the defect travels forever, so the orbit never
# revisits a state; the first translated repeat already proves it for the
# whole budget, including the default one
TRANSLATING_ORBITS = [
    (SHIFT2, EpConfig(2, (0,), (1,), (0,), 0), 4),
    (TableRule.from_wolfram(170), EpConfig(2, (0,), (1,), (0,), 0), 100_000),
    # x_i <- x_{i-2}: window offset -2, the defect travels right
    (TableRule(2, 0, (0, 1), -2), EpConfig(2, (0, 1), (1, 1, 0), (1,), 3), 1000),
]


def test_temporal_cycle_step_budget_timeout():
    for rule, x, max_steps in TRANSLATING_ORBITS:
        assert temporal_cycle(rule, x, max_steps) == CycleTimeout(max_steps)


def test_temporal_cycle_refuses_bad_inputs_before_stepping():
    # an alphabet mismatch is refused even when no step would be taken
    with pytest.raises(ValueError, match="alphabet mismatch"):
        temporal_cycle(RULE90, CyclicConfig(3, (0, 1, 2)), max_steps=0)
    with pytest.raises(ValueError, match="max_steps"):
        temporal_cycle(RULE90, CyclicConfig(2, (0, 1)), max_steps=-1)
    assert temporal_cycle(RULE90, CyclicConfig(2, (0, 1)), max_steps=0) == CycleTimeout(0)


def test_temporal_cycle_refuses_a_negative_mid_cap():
    # a cyclic orbit has no mid to cap, an eventually periodic one has
    # mids of width at least 0: neither can take a negative cap
    for x in (CyclicConfig(2, (0, 1)), EpConfig(2, (0,), (1,), (0,), 0)):
        with pytest.raises(ValueError, match="max_mid"):
            temporal_cycle(RULE90, x, max_mid=-1)


def test_temporal_cycle_mid_growth_timeout():
    res = temporal_cycle(RULE90, EpConfig(2, (0,), (1,), (0,), 0), max_mid=4)
    assert isinstance(res, CycleTimeout)
    assert res.reason == "mid width cap exceeded"


# ---------------------------------------------------------------------------
# traces


def test_space_time_identity_rows_repeat():
    trace = space_time(identity_rule(2), CyclicConfig(2, (0, 1)), 2, -2, 2)
    assert len(trace.rows) == 3
    assert trace.rows[0] == trace.rows[1] == trace.rows[2]


def test_space_time_growth_rows():
    trace = space_time(RULE90, EpConfig(2, (0,), (1,), (0,), 0), 2, -3, 3)
    assert trace.rows == (
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 1, 0, 1, 0, 0),
        (0, 1, 0, 0, 0, 1, 0),
    )


def test_space_time_shift_rows():
    trace = space_time(SHIFT2, CyclicConfig(2, (1, 0)), 1, 0, 3)
    assert trace.rows == ((1, 0, 1, 0), (0, 1, 0, 1))


def test_space_time_rejects_bad_window():
    with pytest.raises(ValueError):
        space_time(RULE90, CyclicConfig(2, (0,)), 1, 2, 1)


def test_space_time_checks_the_alphabet_before_stepping():
    for steps in (0, 1):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            space_time(RULE90, CyclicConfig(3, (0, 1, 2)), steps, 0, 1)


def test_space_time_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps"):
        space_time(RULE90, CyclicConfig(2, (0,)), -1, 0, 1)
    assert len(space_time(RULE90, CyclicConfig(2, (0,)), 0, 0, 1).rows) == 1


def test_ascii_render():
    trace = space_time(RULE90, EpConfig(2, (0,), (1,), (0,), 0), 2, -3, 3)
    assert ascii_render(trace) == "0001000\n0010100\n0100010"


def test_pgm_render():
    trace = space_time(RULE90, EpConfig(2, (0,), (1,), (0,), 0), 2, -3, 3)
    data = pgm_render(trace)
    assert data.startswith(b"P5\n7 3\n255\n")
    body = data[len(b"P5\n7 3\n255\n") :]
    assert len(body) == 21
    assert set(body) <= {0, 255}


def test_pgm_render_scales_intermediate_letters():
    trace = space_time(identity_rule(3), CyclicConfig(3, (0, 1, 2)), 0, 0, 2)
    body = pgm_render(trace).split(b"\n", 3)[3]
    assert body == bytes((0, 127, 254))


def test_pgm_render_writes_two_byte_samples_past_256_letters():
    # 65535 // 299 = 219 grey levels per letter, most significant byte first
    trace = space_time(identity_rule(300), CyclicConfig(300, (0, 150, 299)), 0, 0, 2)
    assert pgm_render(trace) == b"P5\n3 1\n65535\n" + bytes((0, 0, 128, 82, 255, 201))
    assert pgm_render(SpaceTimeTrace(65536, 0, 0, ((65535,),))).endswith(b"\n65535\n\xff\xff")
    with pytest.raises(ValueError, match="65536"):
        pgm_render(SpaceTimeTrace(65537, 0, 0, ((0,),)))
