"""Coefficient-level classification of additive rules: surjectivity,
sensitivity, prime-power factors, boundary indices, permutative powers, and
the strict-temporal-periodicity verdict."""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from math import gcd, isqrt, lcm, prod

import pytest

from periodika import additive
from periodika.additive import (
    FactorClass,
    FactorReport,
    PermutativePowerCert,
    PrimePowerFactor,
    StpVerdict,
    boundary_indices,
    classify_additive,
    classify_prime_power,
    crt_join_letter,
    decompose_crt,
    enumerate_additive_rules,
    is_surjective_additive,
    off_center_gcd,
    permutative_power,
    prime_power_factorization,
    report_to_dict,
    report_to_json,
)
from periodika.additive import _MR_BOUND, _TRIAL_LIMIT
from reference_helpers import equals
from periodika.configs import CyclicConfig, EpConfig, _join
from periodika.rules import (
    AdditiveRule,
    NotSurjectiveError,
    ResourceCapError,
    compose_additive,
    power_additive,
    render_rule_spec,
)

RULE90 = AdditiveRule(2, 1, {-1: 1, 1: 1})
M4_RULE = AdditiveRule(4, 1, {-1: 2, 0: 1, 1: 2})
M6_RULE = AdditiveRule(6, 1, {-1: 4, 0: 1, 1: 4})
SHIFT2 = AdditiveRule(2, 1, {1: 1})


def certified_identity_power(rule):
    """The identity power that the rule's report certifies, or None."""
    return classify_additive(rule).certificates.get("equicontinuity", {}).get("identity_power")


# ---------------------------------------------------------------------------
# number-theoretic plumbing


def test_prime_power_factorization():
    assert prime_power_factorization(6) == ((2, 1), (3, 1))
    assert prime_power_factorization(4) == ((2, 2),)
    assert prime_power_factorization(12) == ((2, 2), (3, 1))
    assert prime_power_factorization(7) == ((7, 1),)


def _trial_division(m: int) -> tuple[tuple[int, int], ...]:
    """Sorted ``(p, k)`` pairs of ``m`` by trial division to its square root."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_factorization_matches_trial_division_up_to_10000():
    for m in range(10_001):
        assert prime_power_factorization(m) == _trial_division(m), m


def _primes_from(n: int, count: int) -> list[int]:
    """The first ``count`` primes from ``n`` on, each found by trial division."""
    out = []
    while len(out) < count:
        if n > 1 and all(n % d for d in range(2, isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


def test_factorization_of_products_of_primes_near_1e9():
    # one or two primes near 10^9 (a square when both draws agree) times a
    # small cofactor; trial division would take ~10^9 steps on each
    large = _primes_from(10**9 - 200, 6)
    rng = random.Random(14)
    for _ in range(40):
        primes = rng.choices(large, k=rng.randint(1, 2))
        small = rng.randint(1, 5000)
        m = small * prod(primes)
        want = Counter(primes) + Counter(dict(_trial_division(small)))
        assert m < _MR_BOUND
        assert prime_power_factorization(m) == tuple(sorted(want.items())), m


def test_factorization_above_the_miller_rabin_bound():
    # small primes are divided out until the rest falls below the bound
    assert prime_power_factorization(2**100) == ((2, 100),)
    assert prime_power_factorization(43**16) == ((43, 16),)
    p, q = 998_244_353, 1_000_000_007
    m = 1_000_003**2 * 7 * p * q
    # the trial division runs up to 1 000 003, near its limit
    assert m // 1_000_003 >= _MR_BOUND > m // 1_000_003**2 and 1_000_003 < _TRIAL_LIMIT
    assert prime_power_factorization(m) == ((7, 1), (1_000_003, 2), (p, 1), (q, 1))
    # a rest at or above the bound with no prime factor below the trial
    # limit is refused, whether prime (2^89 - 1) or not
    for m in (2**89 - 1, 1_821_428_571_437 * 1_821_428_571_467, 3 * (2**89 - 1), _MR_BOUND):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="primality cannot be proven"):
            prime_power_factorization(m)
        assert time.perf_counter() - start < 5
    # the bound itself is 1 287 836 182 261 * 2 575 672 364 521; just below
    # it the proven test still answers
    assert prime_power_factorization(_MR_BOUND - 1) == (
        (2, 2), (3, 4), (5, 1), (127, 1), (18_778_597, 1), (858_557_454_841, 1)
    )


def _order(a: int, p: int) -> int:
    """Multiplicative order of ``a`` modulo the prime ``p``."""
    t = p - 1
    for q, _ in _trial_division(p - 1):
        while t % q == 0 and pow(a, t // q, p) == 1:
            t //= q
    return t


def test_classify_of_a_modulus_with_two_large_primes_is_fast():
    # m = 998 244 353 * 1 000 000 007 once took trial division to sqrt(m)
    p, q = 998_244_353, 1_000_000_007
    start = time.perf_counter()
    report = classify_additive(AdditiveRule(p * q, 1, {0: 1}))
    assert [(f.prime, f.exponent) for f in report.factors] == [(p, 1), (q, 1)]
    assert report.stp is StpVerdict.RESIDUAL
    assert report.certificates["equicontinuity"]["identity_power"] == 1
    # multiplying by 2 returns after the order of 2 modulo p * q
    doubling = AdditiveRule(p * q, 1, {0: 2})
    assert certified_identity_power(doubling) == lcm(_order(2, p), _order(2, q))
    assert time.perf_counter() - start < 5


# ---------------------------------------------------------------------------
# surjectivity and sensitivity criteria


def test_surjectivity_examples():
    assert is_surjective_additive(RULE90)
    assert not is_surjective_additive(AdditiveRule(4, 1, {0: 2}))
    assert is_surjective_additive(M6_RULE)


def test_sensitivity_examples():
    assert classify_additive(RULE90).sensitive
    assert not classify_additive(M4_RULE).sensitive
    assert classify_additive(M6_RULE).sensitive
    # the dichotomy does not need surjectivity
    assert not classify_additive(AdditiveRule(4, 1, {0: 2})).sensitive


def test_off_center_gcd():
    assert off_center_gcd(RULE90) == 1
    assert off_center_gcd(M4_RULE) == 2
    assert off_center_gcd(AdditiveRule(4, 1, {0: 3})) == 0


# ---------------------------------------------------------------------------
# CRT decomposition


def test_decompose_crt_splits_composite_moduli():
    factors = decompose_crt(M6_RULE)
    assert [(f.prime, f.exponent) for f in factors] == [(2, 1), (3, 1)]
    assert factors[0].rule == AdditiveRule(2, 1, {0: 1})
    assert factors[1].rule == AdditiveRule(3, 1, {-1: 1, 0: 1, 1: 1})
    assert factors[0].modulus == 2 and factors[1].modulus == 3


def test_decompose_crt_prime_power_is_a_single_factor():
    factors = decompose_crt(M4_RULE)
    assert len(factors) == 1
    assert factors[0] == PrimePowerFactor(2, 2, M4_RULE)


def test_decompose_crt_identity_mod_12():
    factors = decompose_crt(AdditiveRule(12, 0, {0: 1}))
    assert [(f.prime, f.exponent) for f in factors] == [(2, 2), (3, 1)]
    assert all(f.rule.coeffs == {0: 1} for f in factors)


def test_crt_letter_round_trip():
    assert crt_join_letter((1, 2), (2, 3)) == 5
    for m, moduli in ((6, (2, 3)), (12, (4, 3))):
        for c in range(m):
            assert crt_join_letter(tuple(c % q for q in moduli), moduli) == c


def test_crt_join_letter_rejects_bad_residues():
    with pytest.raises(ValueError):
        crt_join_letter((2, 0), (2, 3))
    with pytest.raises(ValueError):
        crt_join_letter((1,), (2, 3))


def _crt_split(x, factors):
    return tuple(_join((x,), lambda a, q=f.modulus: a % q, f.modulus) for f in factors)


def test_crt_split_configs_letterwise():
    factors = decompose_crt(M6_RULE)
    parts = _crt_split(CyclicConfig(6, (0, 5, 3)), factors)
    assert equals(parts[0], CyclicConfig(2, (0, 1, 1)))
    assert equals(parts[1], CyclicConfig(3, (0, 2, 0)))


def test_crt_split_join_round_trip():
    factors = decompose_crt(M6_RULE)
    samples = [
        CyclicConfig(6, (0, 5, 3)),
        CyclicConfig(6, (4,)),
        EpConfig(6, (0,), (5, 1), (3,), -1),
    ]
    moduli = tuple(f.modulus for f in factors)
    for x in samples:
        joined = _join(_crt_split(x, factors), lambda *res: crt_join_letter(res, moduli), 6)
        assert equals(joined, x)


# ---------------------------------------------------------------------------
# boundary indices and the trichotomy


def test_boundary_indices_examples():
    assert boundary_indices(decompose_crt(RULE90)[0]) == (-1, 1)
    assert boundary_indices(decompose_crt(M4_RULE)[0]) == (0, 0)
    assert boundary_indices(decompose_crt(SHIFT2)[0]) == (1, 1)


def test_boundary_indices_require_a_unit_coefficient():
    factor = decompose_crt(AdditiveRule(4, 1, {0: 2}))[0]
    with pytest.raises(NotSurjectiveError):
        boundary_indices(factor)


def test_classify_prime_power_trichotomy():
    assert classify_prime_power(decompose_crt(M4_RULE)[0]) is FactorClass.EQUICONTINUOUS
    assert classify_prime_power(decompose_crt(RULE90)[0]) is FactorClass.POSITIVELY_EXPANSIVE
    assert classify_prime_power(decompose_crt(SHIFT2)[0]) is FactorClass.TRANSITIVE_NOT_EXPANSIVE
    left_sided = decompose_crt(AdditiveRule(2, 1, {-1: 1}))[0]
    assert classify_prime_power(left_sided) is FactorClass.TRANSITIVE_NOT_EXPANSIVE


# ---------------------------------------------------------------------------
# permutative powers


def test_permutative_power_examples():
    cert = permutative_power(decompose_crt(RULE90)[0])
    assert isinstance(cert, PermutativePowerCert) and cert.h == 1

    cert = permutative_power(decompose_crt(M4_RULE)[0])
    assert isinstance(cert, PermutativePowerCert)
    assert cert.h == 2 and cert.rule.coeffs == {0: 1}

    factor = decompose_crt(AdditiveRule(9, 1, {-1: 3, 0: 1}))[0]
    cert = permutative_power(factor)
    assert isinstance(cert, PermutativePowerCert)
    assert cert.h == 3 and cert.rule.coeffs == {0: 1}


def test_permutative_power_cert_invariants():
    for m in (2, 3, 4, 5, 6):
        for rule in enumerate_additive_rules(m):
            if not is_surjective_additive(rule):
                continue
            for factor in decompose_crt(rule):
                cert = permutative_power(factor)
                assert isinstance(cert, PermutativePowerCert)
                L, R = boundary_indices(factor)
                p = factor.prime
                support = cert.rule.support
                assert support[0] == cert.h * L and support[-1] == cert.h * R
                assert cert.rule.coeffs[cert.h * L] % p != 0
                assert cert.rule.coeffs[cert.h * R] % p != 0


# ---------------------------------------------------------------------------
# identity powers


def test_identity_power():
    assert certified_identity_power(M4_RULE) == 2
    assert certified_identity_power(AdditiveRule(4, 0, {0: 1})) == 1
    # (2 + 3x)**t = 2**t + 3t * 2**(t-1) x (mod 9): 6 | t and 3 | t
    assert certified_identity_power(AdditiveRule(9, 1, {-1: 3, 0: 2})) == 6
    assert certified_identity_power(RULE90) is None
    assert certified_identity_power(AdditiveRule(4, 1, {0: 2})) is None


def test_classify_factors_the_modulus_once(monkeypatch):
    seen = []

    def counted(m):
        seen.append(m)
        return prime_power_factorization(m)

    monkeypatch.setattr(additive, "prime_power_factorization", counted)
    # non-surjective, Empty, Dense and Residual rules, and a modulus whose
    # factorisation runs the trial phase above the Miller-Rabin bound
    big = 1_000_003**2 * 7 * 998_244_353 * 1_000_000_007
    for rule in (
        AdditiveRule(4, 1, {0: 2}), RULE90, M6_RULE, M4_RULE,
        AdditiveRule(360, 1, {-1: 60, 0: 7, 1: 30}), AdditiveRule(big, 1, {0: 1}),
    ):
        seen.clear()
        report = classify_additive(rule)
        assert seen.count(rule.modulus) == 1, (rule, seen)
        # every other factorisation is of some p - 1, for the identity power
        assert len(seen) == 1 or report.stp is StpVerdict.RESIDUAL


def _phi(p: int, e: int) -> int:
    return p ** (e - 1) * (p - 1)


def test_power_walks_stop_within_their_proven_bounds():
    for m in (2, 3, 4, 5, 6):
        for rule in enumerate_additive_rules(m):
            if not is_surjective_additive(rule):
                continue
            factors = decompose_crt(rule)
            for f in factors:
                assert permutative_power(f).h <= f.prime ** (f.exponent - 1)
            report = classify_additive(rule)
            if not report.equicontinuous:
                assert certified_identity_power(rule) is None
                continue
            t = report.certificates["equicontinuity"]["identity_power"]
            assert power_additive(rule, t).coeffs == {0: 1}
            bound = lcm(*(f.prime ** (f.exponent - 1) * _phi(f.prime, f.exponent) for f in factors))
            assert bound % t == 0 and bound < m**2


def _walked_permutative_power(factor):
    """``permutative_power`` by trying every ``h`` up to ``p**(e-1)``, each
    power composed from the last, with the extreme coefficients checked."""
    L, R = boundary_indices(factor)
    p, cur = factor.prime, factor.rule
    for h in range(1, p ** (factor.exponent - 1) + 1):
        lo_ok = cur.coeffs.get(h * L, 0) % p != 0
        hi_ok = cur.coeffs.get(h * R, 0) % p != 0
        if lo_ok and hi_ok and cur.support[0] >= h * L and cur.support[-1] <= h * R:
            return PermutativePowerCert(h, cur)
        cur = compose_additive(cur, factor.rule)
    return None


def _walked_identity_power(rule):
    """The least ``t`` with ``rule**t`` the identity, by trying every ``t`` up to ``m**2``."""
    cur = rule
    for t in range(1, rule.modulus**2 + 1):
        if cur.coeffs == {0: 1}:
            return t
        cur = compose_additive(cur, rule)
    return None


def test_power_exponents_match_walks_over_every_exponent():
    for m in range(2, 13):
        primes = [p for p, _ in prime_power_factorization(m)]
        for rule in enumerate_additive_rules(m):
            if any(off_center_gcd(rule) % p for p in primes):
                # sensitive: the walk would try all m**2 powers in vain
                assert certified_identity_power(rule) is None
            else:
                assert certified_identity_power(rule) == _walked_identity_power(rule), rule
            if is_surjective_additive(rule):
                for factor in decompose_crt(rule):
                    assert permutative_power(factor) == _walked_permutative_power(factor), rule


def test_identity_powers_at_large_moduli_are_least():
    rng = random.Random(34)
    for m in (2**30, 3**19, 10**12):
        rad = prod(p for p, _ in prime_power_factorization(m))
        for c0 in (1, *(rng.randrange(m) for _ in range(8))):
            if gcd(c0, m) != 1:
                continue
            # deeper multiples of rad(m) leave smaller h, so ord(c) shows
            offs = {j: rng.choice((rad, rad**5, rad**12)) * rng.randrange(m) for j in (-1, 1)}
            rule = AdditiveRule(m, 1, {**offs, 0: c0})
            t = certified_identity_power(rule)
            assert power_additive(rule, t).coeffs == {0: 1}, rule
            for q, _ in prime_power_factorization(t):
                assert power_additive(rule, t // q).coeffs != {0: 1}, (rule, q)


def test_power_exponents_of_large_moduli_are_computed_not_walked():
    # the walks would compose 5 * 10^8 and 2^29 powers
    assert certified_identity_power(AdditiveRule(1_000_000_007, 1, {0: 2})) == 500_000_003
    cert = permutative_power(decompose_crt(AdditiveRule(2**30, 1, {-1: 2, 0: 1}))[0])
    assert cert.h == 2**29 and cert.rule.coeffs == {0: 1}
    # a wide factor that fits at once builds no power at all
    cert = permutative_power(decompose_crt(AdditiveRule(2**30, 1, {-1: 1, 1: 1}))[0])
    assert cert.h == 1


# ---------------------------------------------------------------------------
# full classification


def test_classify_positively_expansive():
    report = classify_additive(RULE90)
    assert report.surjective and report.sensitive and report.transitive
    assert report.positively_expansive
    assert not report.equicontinuous
    assert report.stp is StpVerdict.EMPTY
    assert report.factors == (
        FactorReport(2, 1, FactorClass.POSITIVELY_EXPANSIVE, -1, 1, 1),
    )


def test_classify_mixed_factors_is_sensitive_with_dense_verdict():
    report = classify_additive(M6_RULE)
    assert report.surjective and report.sensitive
    assert not report.transitive and not report.positively_expansive
    assert report.stp is StpVerdict.DENSE
    assert report.factors == (
        FactorReport(2, 1, FactorClass.EQUICONTINUOUS, 0, 0, 1),
        FactorReport(3, 1, FactorClass.POSITIVELY_EXPANSIVE, -1, 1, 1),
    )


def test_classify_equicontinuous():
    report = classify_additive(M4_RULE)
    assert report.surjective and report.equicontinuous and not report.sensitive
    assert not report.transitive and not report.positively_expansive
    assert report.stp is StpVerdict.RESIDUAL
    assert report.factors == (FactorReport(2, 2, FactorClass.EQUICONTINUOUS, 0, 0, 2),)
    assert report.certificates["equicontinuity"]["identity_power"] == 2


def test_classify_shift_is_transitive_not_expansive():
    report = classify_additive(SHIFT2)
    assert report.surjective and report.sensitive and report.transitive
    assert not report.positively_expansive
    assert report.stp is StpVerdict.EMPTY
    assert report.factors == (
        FactorReport(2, 1, FactorClass.TRANSITIVE_NOT_EXPANSIVE, 1, 1, 1),
    )


def test_classify_non_surjective_rule():
    report = classify_additive(AdditiveRule(4, 1, {0: 2}))
    assert not report.surjective
    assert report.stp is StpVerdict.UNKNOWN
    assert not report.transitive and not report.positively_expansive
    assert report.factors == ()
    assert "note" in report.certificates


def test_report_invariants_across_small_moduli():
    for m in (2, 3, 4, 5, 6):
        for rule in enumerate_additive_rules(m):
            report = classify_additive(rule)
            assert report.sensitive == (not report.equicontinuous)
            if not report.surjective:
                assert report.stp is StpVerdict.UNKNOWN
                continue
            classes = [f.factor_class for f in report.factors]
            any_eq = any(c is FactorClass.EQUICONTINUOUS for c in classes)
            all_eq = all(c is FactorClass.EQUICONTINUOUS for c in classes)
            assert report.transitive == (not any_eq)
            assert (report.stp is StpVerdict.EMPTY) == report.transitive
            assert (report.stp is StpVerdict.RESIDUAL) == all_eq
            assert (report.stp is StpVerdict.DENSE) == (any_eq and not all_eq)
            assert report.positively_expansive == all(
                c is FactorClass.POSITIVELY_EXPANSIVE for c in classes
            )


# ---------------------------------------------------------------------------
# serialization


def test_report_dict_shape():
    d = report_to_dict(classify_additive(M6_RULE))
    assert list(d) == [
        "rule",
        "surjective",
        "sensitive",
        "equicontinuous",
        "transitive",
        "positively_expansive",
        "stp",
        "factors",
        "certificates",
    ]
    assert d["rule"] == render_rule_spec(M6_RULE)
    assert d["stp"] == "Dense"
    assert d["factors"][0] == {"p": 2, "k": 1, "class": "Equicontinuous", "L": 0, "R": 0, "h": 1}


def test_report_json_round_trips_byte_identically():
    for rule in (RULE90, M4_RULE, M6_RULE, AdditiveRule(4, 1, {0: 2})):
        text = report_to_json(classify_additive(rule))
        assert json.dumps(json.loads(text), indent=2) == text


def test_enumerate_additive_rules_counts():
    rules2 = list(enumerate_additive_rules(2))
    assert len(rules2) == 8 and len(set(rules2)) == 8
    assert len(list(enumerate_additive_rules(3))) == 27
