"""Classification of additive rules over Z_m.

Everything here reduces dynamical questions about the global map to exact
integer arithmetic on the coefficient polynomial:

* surjectivity  <=>  gcd(m, c_-r, ..., c_r) = 1;
* sensitivity   <=>  some prime p of m does not divide every off-center
  coefficient (otherwise the rule is equicontinuous);
* the map splits letterwise over the prime-power factors of m, and each
  factor is classified by its boundary indices L, R -- the extreme
  positions carrying a coefficient coprime to p: L = R = 0 gives an
  equicontinuous factor, L < 0 < R a positively expansive one, and every
  other shape a transitive, not positively expansive one;
* strict temporal periodicity (temporally periodic points that are not
  spatially periodic): empty iff no factor is equicontinuous (iff the map
  is transitive), residual iff all factors are, dense otherwise.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import count, product
from math import gcd, lcm, prod

from .rules import (
    AdditiveRule,
    NotSurjectiveError,
    ResourceCapError,
    power_additive,
    render_rule_spec,
)


# Miller-Rabin to the prime bases 2 .. 41 decides primality of every number
# below this bound (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
# from the bound up, trial division stops here (about 0.2 s of it)
_TRIAL_LIMIT = 1 << 20


def prime_power_factorization(m: int) -> tuple[tuple[int, int], ...]:
    """Sorted ``(p, k)`` pairs with ``m = prod p**k``.

    From ``_MR_BOUND`` up, primes below ``_TRIAL_LIMIT`` are divided out
    until what is left falls below the bound; a part left at or above it is
    refused with ``ResourceCapError``, as no primality test proven there is
    at hand.  Below the bound the bases are divided out, and what is left is
    split by Pollard-Brent rho until deterministic Miller-Rabin calls every
    part prime."""
    if m < 2:
        return ()
    primes = []
    p = 2
    while m >= _MR_BOUND:
        if p == _TRIAL_LIMIT:
            raise ResourceCapError(
                f"modulus has a factor {m} of at least {_MR_BOUND} with no prime "
                f"factor below {_TRIAL_LIMIT}: its primality cannot be proven"
            )
        while m % p == 0:
            primes.append(p)
            m //= p
        p += 1
    for p in _MR_BASES:
        while m % p == 0:
            primes.append(p)
            m //= p
    parts = [m] if m > 1 else []
    while parts:
        n = parts.pop()
        if _is_prime(n):
            primes.append(n)
        else:
            d = _rho_factor(n)
            parts += (d, n // d)
    return tuple(sorted(Counter(primes).items()))


def _is_prime(n: int) -> bool:
    """Primality of ``1 < n < _MR_BOUND``, which no base divides, by
    Miller-Rabin to the bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper divisor of the composite ``n``, which no base divides, by
    Brent's variant of Pollard rho on ``y -> y**2 + c``, trying c = 1, 2, ...
    until a walk does not close on ``n`` itself."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                # one gcd per block of up to 128 differences
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            # the block overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _coefficient_gcd(rule: AdditiveRule) -> int:
    return gcd(rule.modulus, *rule.coeffs.values())


def is_surjective_additive(rule: AdditiveRule) -> bool:
    return _coefficient_gcd(rule) == 1


def off_center_gcd(rule: AdditiveRule) -> int:
    return gcd(*(c for j, c in rule.coeffs.items() if j != 0))


def _sensitivity_witness(rule: AdditiveRule, factors) -> int | None:
    """Least prime of the modulus that misses the off-center gcd, if any,
    given the rule's ``decompose_crt`` factors."""
    g = off_center_gcd(rule)
    return next((f.prime for f in factors if g % f.prime != 0), None)


@dataclass(frozen=True)
class PrimePowerFactor:
    """The reduction of an additive rule mod one prime power of its modulus."""

    prime: int
    exponent: int
    rule: AdditiveRule

    @property
    def modulus(self) -> int:
        return self.prime**self.exponent


def decompose_crt(rule: AdditiveRule) -> tuple[PrimePowerFactor, ...]:
    """The rule reduced mod each prime power of its modulus, in prime order;
    the one place the modulus is factored."""
    return tuple(
        PrimePowerFactor(p, k, AdditiveRule(p**k, rule.radius, rule.coeffs))
        for p, k in prime_power_factorization(rule.modulus)
    )


def crt_join_letter(residues: tuple[int, ...], moduli: tuple[int, ...]) -> int:
    if len(residues) != len(moduli):
        raise ValueError("residue tuple length does not match moduli")
    total = prod(moduli)
    x = 0
    for r, q in zip(residues, moduli):
        if not 0 <= r < q:
            raise ValueError(f"residue {r} outside 0..{q - 1}")
        stride = total // q
        x += r * stride * pow(stride, -1, q)
    return x % total


def boundary_indices(factor: PrimePowerFactor) -> tuple[int, int]:
    """Extreme coefficient indices coprime to the factor prime."""
    p = factor.prime
    coprime = [j for j, c in factor.rule.coeffs.items() if c % p != 0]
    if not coprime:
        raise NotSurjectiveError(
            f"no coefficient of {render_rule_spec(factor.rule)} is coprime to {p}"
        )
    return (min(coprime), max(coprime))


class FactorClass(Enum):
    EQUICONTINUOUS = "Equicontinuous"
    POSITIVELY_EXPANSIVE = "PositivelyExpansive"
    TRANSITIVE_NOT_EXPANSIVE = "TransitiveNotExpansive"


def classify_prime_power(factor: PrimePowerFactor) -> FactorClass:
    L, R = boundary_indices(factor)
    if L == R == 0:
        return FactorClass.EQUICONTINUOUS
    if L < 0 < R:
        return FactorClass.POSITIVELY_EXPANSIVE
    return FactorClass.TRANSITIVE_NOT_EXPANSIVE


@dataclass(frozen=True)
class PermutativePowerCert:
    """``rule`` is the h-th power, supported exactly on ``[h*L, h*R]`` with
    extreme coefficients coprime to the factor prime."""

    h: int
    rule: AdditiveRule


def permutative_power(factor: PrimePowerFactor) -> PermutativePowerCert:
    """Least ``h`` whose power is permutative with support ``[h*L, h*R]``.

    Call ``h`` fitting when f**h has support in ``[h*L, h*R]``; its extreme
    coefficients are then units, as f = g (mod p) for the g that keeps only
    the coefficients coprime to p, and g**h has the units c_L**h, c_R**h
    there.  Fitting exponents are closed under sums, and under differences
    a < b: f**a is x**(a*L) times a unit of Z_(p**e)[[x]], so f**(b-a) =
    f**b / f**a has no term below (b-a)*L, nor, dividing in
    Z_(p**e)[[x**-1]], above (b-a)*R.  So they are the multiples of the
    least one, which divides p**(e-1): a = b (mod p) gives a**(p**(e-1)) =
    b**(p**(e-1)) (mod p**e) in any commutative ring, so f**(p**(e-1)) =
    g**(p**(e-1)) fits.  Trying ``1, p, p**2, ...`` builds no power beyond
    the least one.
    """
    L, R = boundary_indices(factor)
    cur = factor.rule
    for i in range(factor.exponent):
        h = factor.prime**i
        if cur.support[0] >= h * L and cur.support[-1] <= h * R:
            return PermutativePowerCert(h, cur)
        cur = power_additive(cur, factor.prime)
    raise AssertionError("no permutative power within the proven bound")  # pragma: no cover


class StpVerdict(Enum):
    EMPTY = "Empty"
    DENSE = "Dense"
    RESIDUAL = "Residual"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class FactorReport:
    prime: int
    exponent: int
    factor_class: FactorClass
    L: int
    R: int
    h: int


@dataclass(frozen=True)
class ClassificationReport:
    rule: AdditiveRule
    surjective: bool
    sensitive: bool
    equicontinuous: bool
    transitive: bool
    positively_expansive: bool
    stp: StpVerdict
    factors: tuple[FactorReport, ...]
    certificates: dict


def identity_power(rule: AdditiveRule) -> int | None:
    """Least ``t`` with ``rule**t`` the identity rule, or None if there is none.

    No power of a sensitive rule is the identity.  Otherwise, on each factor
    f = c0 (mod p) for the centre coefficient c0, f**(p**(e-1)) is the
    constant c0**(p**(e-1)) (see ``permutative_power``), and when c0 is a
    unit its ``phi(p**e)``-th power is 1.  So the least t, if there is one,
    divides the lcm over factors of p**(e-1) * phi(p**e); it is found by
    dividing out each prime of that lcm while the power stays the identity.
    """
    return _identity_power(rule, decompose_crt(rule))


def _identity_power(rule: AdditiveRule, factors) -> int | None:
    """``identity_power`` given the rule's ``decompose_crt`` factors."""
    if _sensitivity_witness(rule, factors) is not None:
        return None
    t = lcm(*(f.prime ** (2 * f.exponent - 2) * (f.prime - 1) for f in factors))
    if power_additive(rule, t).coeffs != {0: 1}:
        return None
    # the primes of t, from parts smaller than the modulus
    primes = {f.prime for f in factors if f.exponent > 1}
    primes.update(q for f in factors for q, _ in prime_power_factorization(f.prime - 1))
    for q in sorted(primes):
        while t % q == 0 and power_additive(rule, t // q).coeffs == {0: 1}:
            t //= q
    return t


def classify_additive(rule: AdditiveRule) -> ClassificationReport:
    """Full verdict set for an additive rule.

    Non-surjective rules keep their sensitivity verdict (the dichotomy
    does not need surjectivity); transitivity and positive expansivity
    are reported false because both imply surjectivity, and the strict
    temporal periodicity verdict is left unknown.
    """
    g = _coefficient_gcd(rule)
    # factored once, for the witness, the factor classes and the identity power
    factors = decompose_crt(rule)
    witness = _sensitivity_witness(rule, factors)
    sensitive = witness is not None
    certificates: dict = {
        "surjectivity": {"criterion": "gcd of modulus and coefficients", "gcd": g},
        "sensitivity": {
            "criterion": "some prime of the modulus misses the off-center gcd",
            "off_center_gcd": off_center_gcd(rule),
            "witness_prime": witness,
        },
    }
    reports: tuple[FactorReport, ...] = ()
    stp = StpVerdict.UNKNOWN
    if g != 1:
        certificates["note"] = (
            "rule is not surjective; transitivity and positive expansivity "
            "(which require surjectivity) are reported false and the strict "
            "temporal periodicity verdict is left unknown"
        )
    else:
        reports = tuple(
            FactorReport(
                f.prime, f.exponent, classify_prime_power(f), *boundary_indices(f),
                permutative_power(f).h,
            )
            for f in factors
        )
        eq = [r.factor_class is FactorClass.EQUICONTINUOUS for r in reports]
        if all(eq) == sensitive:  # pragma: no cover - criteria provably agree
            raise AssertionError("factor classes disagree with the sensitivity criterion")
        if all(eq):
            stp = StpVerdict.RESIDUAL
        else:
            stp = StpVerdict.DENSE if any(eq) else StpVerdict.EMPTY
        certificates["factor_classes"] = {
            "criterion": (
                "boundary indices of coefficients coprime to p: L=R=0 equicontinuous, "
                "L<0<R positively expansive, otherwise transitive and not expansive"
            )
        }
        certificates["stp"] = {
            "criterion": (
                "empty iff no factor is equicontinuous (iff transitive); residual iff "
                "all factors are equicontinuous; dense otherwise"
            )
        }
        if not sensitive:
            certificates["equicontinuity"] = {
                "criterion": "some power of the rule is the identity",
                "identity_power": _identity_power(rule, factors),
            }
    return ClassificationReport(
        rule=rule,
        surjective=g == 1,
        sensitive=sensitive,
        equicontinuous=not sensitive,
        transitive=stp is StpVerdict.EMPTY,
        # false with no factor reports, as for a rule that is not surjective
        positively_expansive=bool(reports)
        and all(r.factor_class is FactorClass.POSITIVELY_EXPANSIVE for r in reports),
        stp=stp,
        factors=reports,
        certificates=certificates,
    )


def report_to_dict(report: ClassificationReport) -> dict:
    """Plain-data view of a report with a fixed key order."""
    return {
        "rule": render_rule_spec(report.rule),
        "surjective": report.surjective,
        "sensitive": report.sensitive,
        "equicontinuous": report.equicontinuous,
        "transitive": report.transitive,
        "positively_expansive": report.positively_expansive,
        "stp": report.stp.value,
        "factors": [
            {
                "p": f.prime,
                "k": f.exponent,
                "class": f.factor_class.value,
                "L": f.L,
                "R": f.R,
                "h": f.h,
            }
            for f in report.factors
        ],
        "certificates": report.certificates,
    }


def report_to_json(report: ClassificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def enumerate_additive_rules(modulus: int, radius: int = 1):
    """All coefficient assignments over the window ``-radius .. radius``."""
    width = 2 * radius + 1
    for coeffs in product(range(modulus), repeat=width):
        yield AdditiveRule(
            modulus, radius, {j - radius: c for j, c in enumerate(coeffs)}
        )
