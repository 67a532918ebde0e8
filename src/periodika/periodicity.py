"""Searches around periodic orbits.

Four constructions, all exact on eventually periodic configurations:

* ``jointly_periodic_points`` -- exhaustive census of configurations that
  are both spatially and temporally periodic, per spatial period;
* ``blocking_word_search`` -- bounded search for a word whose presence
  pins a space-time column regardless of everything outside it;
* ``stp_witness`` / ``stp_witness_additive`` -- construction of strictly
  temporally periodic points: temporally periodic but *not* spatially
  periodic.  A blocking word ``w`` plus a seed ``u`` gives the candidate
  ``y = ^inf(w) . u . (w)^inf`` whose return to itself is then verified
  exactly;
* ``stp_empty_scan`` / ``product_witness_scan`` -- falsification scans:
  the first hunts counterexamples to an "STP is empty" verdict over a
  bounded family of eventually periodic configurations, the second builds
  verified witnesses for product rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice, product
from math import lcm

from .additive import (
    FactorClass,
    classify_additive,
    classify_prime_power,
    crt_join_letter,
    decompose_crt,
    is_surjective_additive,
)
from .configs import (
    Config,
    CyclicConfig,
    EpConfig,
    _canonical_ep,
    _cells,
    _cyclic_root,
    _ep,
    _join,
    _state,
    is_spatially_periodic,
    primitive_root,
)
from .engine import CycleResult, CycleTimeout, _cycle, _ep_stepper, _orbit
from .oracles import (
    EquicontinuityCert,
    _packed_power_walk,
    _preimage_test,
    _square_rule,
    surjectivity_oracle,
)
from .rules import (
    MAX_TABLE_ENTRIES,
    AdditiveRule,
    NotSurjectiveError,
    ResourceCapError,
    TableRule,
    _bijective_ends,
    _cyclic_images,
    _kernel,
    _table_size,
    product_rule,
    table_from_additive,
)


class DegenerateUError(ValueError):
    """The seed word dissolves into the background, leaving a spatially
    periodic configuration that cannot witness strict temporal periodicity."""


# ---------------------------------------------------------------------------
# Jointly periodic census


@dataclass(frozen=True)
class JpCensus:
    """All spatially periodic points of one period that are also temporally
    periodic within the bound, each with its exact temporal period."""

    alphabet_size: int
    length: int
    t_max: int
    points: tuple[tuple[CyclicConfig, int], ...]


def jointly_periodic_points(rule: TableRule, n: int, t_max: int) -> JpCensus:
    """Exhaustive census over all ``|A|^n`` cyclic words of length ``n``.

    The rule induces a map on a finite set, so every word is eventually
    periodic; exactly the words sitting on cycles are temporally periodic.
    Functional-graph traversal of the successor table
    (``rules._cyclic_images``) finds every cycle and its length.  More
    words than ``rules.MAX_TABLE_ENTRIES`` are refused before anything is
    allocated.
    """
    if n < 1:
        raise ValueError("word length must be positive")
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    k = rule.alphabet_size
    states = _table_size(k, n)
    succ = _cyclic_images(rule, n)
    # Walk from every word, stamping each new word with the walk's number,
    # until a stamped word: one stamped by this walk closes a new cycle,
    # whose words are points when the cycle is no longer than t_max.
    mark = [0] * states
    period = {}  # cycle length of the words on cycles no longer than t_max
    for s in range(1, states + 1):
        v = s - 1
        while not mark[v]:
            mark[v] = s
            v = succ[v]
        if mark[v] == s:
            cycle = [v]
            u = succ[v]
            while u != v:
                cycle.append(u)
                u = succ[u]
            if len(cycle) <= t_max:
                for u in cycle:
                    period[u] = len(cycle)
    # Only the points are decoded, in index order (the sort below then reads
    # long sorted runs), each as its primitive root.  A word of n letters
    # that repeats a root u of d letters, d a proper divisor of n, has the
    # index idx(u) * (1 + k^d + k^2d + ...), so those words are listed with
    # their roots for each d, the least d first; every other point is its
    # own root, read as the words of its leading and its trailing half of
    # the digits.  Distinct roots are distinct configurations, and
    # product() yields letters of the alphabet in index order.
    repeats: dict = {}
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            repunit = (states - 1) // (k**d - 1)
            for r, root in enumerate(product(range(k), repeat=d)):
                repeats.setdefault(r * repunit, root)
    tails = list(product(range(k), repeat=n // 2))
    heads = list(product(range(k), repeat=n - n // 2))
    points = [
        (_cyclic_root(k, repeats.get(j) or heads[j // len(tails)] + tails[j % len(tails)]), period[j])
        for j in sorted(period)
    ]
    ordered = sorted(points, key=lambda it: (it[1], len(it[0].word), it[0].word))
    return JpCensus(k, n, t_max, tuple(ordered))


def _primitive_points(rule: TableRule, n_max: int, t_max: int) -> list[tuple[CyclicConfig, int]]:
    """The census points of primitive length ``n`` for ``n = 1 .. n_max``,
    in census order per length: the census of length ``n`` repeats the
    shorter words whose length divides ``n``."""
    return [
        (cfg, t)
        for n in range(1, n_max + 1)
        for cfg, t in jointly_periodic_points(rule, n, t_max).points
        if len(cfg.word) == n
    ]


# ---------------------------------------------------------------------------
# Blocking words


class BlockingStatus(Enum):
    BOUNDED_VERIFIED = "BoundedVerified"
    EXACT = "Exact"


@dataclass(frozen=True)
class BlockingCert:
    """Word ``word`` pins the column of cells ``[offset, offset+width)``:
    within the stated verification bounds, every configuration carrying the
    word at coordinate 0 produces the same column values forever."""

    word: tuple[int, ...]
    offset: int
    width: int
    verified_background_period: int
    verified_steps: int
    status: BlockingStatus


@dataclass(frozen=True)
class BlockingMiss:
    k_max: int
    bg_period: int
    steps: int


def _constant_column_offset(
    rule: TableRule, u, s: int, tails: list, steps: int, advance
) -> int | None:
    """Least offset ``j`` whose column ``[j, j + s)`` reads the same for
    ``steps`` steps in every eventually periodic context ``^inf(a) . u .
    (b)^inf`` with ``a`` and ``b`` in ``tails``, or ``None``.  Each
    context's orbit is walked once, for all offsets at the same time, and
    only while some offset still agrees with the first context's; the walks
    step on the search's stepper ``advance`` (see ``engine._orbit``)."""
    n = len(u)
    offsets = range(n - s + 1)
    ref = None
    for a, b in product(tails, repeat=2):
        orbit = islice(_orbit(rule, _canonical_ep(a, u, b, 0), advance), steps + 1)
        rows = (_cells(*state, 0, n) for state in orbit)
        if ref is None:
            ref = list(rows)
            continue
        for row, want in zip(rows, ref):
            offsets = [j for j in offsets if row[j : j + s] == want[j : j + s]]
            if not offsets:
                return None
    return offsets[0]


def blocking_word_search(
    rule: TableRule,
    k_max: int = 4,
    bg_period: int = 2,
    steps: int = 16,
) -> BlockingCert | BlockingMiss:
    """First word (lexicographic in ``(k, u, j)``) whose column is constant
    across all tested contexts.

    When the rule carries an equicontinuity certificate ``F^q = F^(q+p)``
    the check is exact: if the dependence span of every power
    ``F^0 .. F^(q+p)`` stays inside the word, the column is determined by
    the word for *all* times, and the certificate is marked Exact.  That
    test never reads the letters, so the first such word is all zeros,
    just long enough for the widest spans around the column.  Without a
    certificate the check is bounded simulation, marked BoundedVerified;
    all of its context walks step on one stepper with a successor memo
    (see ``engine._ep_stepper``), which lives only as long as the call,
    and more words than ``rules.MAX_TABLE_ENTRIES`` of length ``k_max``, or
    background tails up to length ``bg_period`` of more letters than that
    cap, are refused before the first is tried.  The background tails are
    built once for every word.
    """
    if min(k_max, steps) < 0 or bg_period < 1:
        raise ValueError("k_max and steps must be non-negative and bg_period positive")
    k = rule.alphabet_size
    s = max(_kernel(rule)[1] // 2, 1)
    cert, powers = _packed_power_walk(rule)
    if isinstance(cert, EquicontinuityCert):
        # F^0 spans [0, 0], so lo <= 0 <= hi and the column fits at j = -lo;
        # a constant power trims to [0, 0] as well, which changes neither end
        j = -min(lo for _, _, lo in powers)
        word_len = j + s + max(lo + width - 1 for _, width, lo in powers)
        if word_len > k_max:
            return BlockingMiss(k_max, bg_period, steps)
        return BlockingCert((0,) * word_len, j, s, 0, cert.q + cert.p, BlockingStatus.EXACT)
    _table_size(k, k_max)
    # the tails hold fewer than k / (k - 1) times this many letters
    if bg_period * _table_size(k, bg_period) > MAX_TABLE_ENTRIES:
        raise ResourceCapError(f"background tails exceed the cap of {MAX_TABLE_ENTRIES} letters")
    # a tail that repeats a shorter one gives the same context, so only
    # primitive tails are walked
    words = (t for p in range(1, bg_period + 1) for t in product(range(k), repeat=p))
    tails = [t for t in words if primitive_root(t) == t]
    advance = _ep_stepper(_kernel(rule), {})
    for word_len in range(s, k_max + 1):
        for u in product(range(k), repeat=word_len):
            j = _constant_column_offset(rule, u, s, tails, steps, advance)
            if j is not None:
                return BlockingCert(u, j, s, bg_period, steps, BlockingStatus.BOUNDED_VERIFIED)
    return BlockingMiss(k_max, bg_period, steps)


# ---------------------------------------------------------------------------
# Strictly temporally periodic witnesses


@dataclass(frozen=True)
class StpWitness:
    """``config`` returns to itself after ``period`` steps and is not
    spatially periodic."""

    config: Config
    period: int


@dataclass(frozen=True)
class WitnessMiss:
    t_max: int
    reason: str


def stp_witness(
    rule: TableRule,
    cert: BlockingCert,
    u,
    t_max: int = 64,
) -> StpWitness | WitnessMiss:
    """Seed ``y = ^inf(w) . u . (w)^inf`` over the blocking word ``w`` and
    detect an exact return of the orbit to ``y``.

    The witness is re-verified by stepping the engine ``t`` more times and
    comparing canonical forms, independently of the cycle detection.
    """
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    u = tuple(u)
    if not u:
        raise ValueError("seed word must be nonempty")
    if not surjectivity_oracle(rule):
        raise NotSurjectiveError("witness construction requires a surjective rule")
    return _seeded_witness(rule, cert.word, u, t_max)


def _seeded_witness(rule: TableRule, background, u, t_max: int):
    """The witness search of ``stp_witness`` over the background word
    ``background``, for a rule already known to be surjective."""
    y = EpConfig(rule.alphabet_size, background, u, background, 0)
    if is_spatially_periodic(y):
        raise DegenerateUError(
            "seed word dissolves into the background word; pick u that breaks the tail pattern"
        )
    res = _return_witness(rule, y, t_max)
    if isinstance(res, CycleTimeout):
        return WitnessMiss(t_max, f"no return within bounds ({res.reason})")
    if isinstance(res, CycleResult):
        return WitnessMiss(t_max, f"orbit is preperiodic (preperiod {res.preperiod})")
    return res


def _return_witness(
    rule: TableRule, y: Config, max_steps: int, max_mid: int = 10_000, advance=None
) -> StpWitness | CycleResult | CycleTimeout:
    """``StpWitness(y, t)`` when the orbit of ``y``, which is not spatially
    periodic, returns to ``y`` itself after ``t`` steps within the budgets
    of ``temporal_cycle``; otherwise the cycle result that rules a return
    out (a timeout, or a nonzero preperiod).  The cycle detection steps on
    the search's stepper ``advance`` when one is given.

    A return is re-checked independently of the cycle detection: the
    ``t``-th state of a walk on a fresh stepper, with no memo, must equal
    the 0-th."""
    res = _cycle(rule, _state(y), max_steps, max_mid, advance)
    if isinstance(res, CycleTimeout) or res.preperiod:
        return res
    y0, yt = islice(_orbit(rule, _state(y)), 0, res.period + 1, res.period)
    if yt != y0 or is_spatially_periodic(y):
        raise AssertionError(f"{y} failed exact re-verification at period {res.period}")
    return StpWitness(y, res.period)


def stp_witness_additive(rule: AdditiveRule, t_max: int = 64) -> StpWitness | WitnessMiss:
    """Witness construction tuned to additive rules with a mixed factor split.

    Over the zero background every letter evolves independently of its
    prime-power residues: choosing the seed letter congruent to 1 at each
    equicontinuous factor and 0 at the others makes the transitive residues
    vanish while the equicontinuous residues return exactly, so the seed
    needs no searched blocking word.
    """
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    if not is_surjective_additive(rule):
        raise NotSurjectiveError("witness construction requires a surjective rule")
    factors = decompose_crt(rule)
    flags = [classify_prime_power(f) is FactorClass.EQUICONTINUOUS for f in factors]
    if not any(flags):
        return WitnessMiss(
            t_max, "every prime-power factor is non-equicontinuous (rule is transitive)"
        )
    moduli = tuple(f.modulus for f in factors)
    u_letter = crt_join_letter(tuple(1 if fl else 0 for fl in flags), moduli)
    return _seeded_witness(table_from_additive(rule), (0,), (u_letter,), t_max)


# ---------------------------------------------------------------------------
# Falsification scan for empty-STP verdicts


@dataclass(frozen=True)
class ScanBounds:
    tail_period_max: int
    mid_len_max: int
    t_max: int


@dataclass(frozen=True)
class ScanResult:
    bounds: ScanBounds
    examined: int
    violations: tuple[StpWitness, ...]
    truncated: bool


def _prune_sides(rule: TableRule | AdditiveRule):
    """Drift sides ``(modulus, h, left, right)`` of each factor's power
    ``f^h``: its nonzero essential-boundary positions in which ``f^h`` is
    bijective, or ``None``; empty when some factor has neither.  A table
    rule is its own factor with ``h = 1``, read off its kernel (a constant
    rule trims to position 0, so neither side drifts).  An additive rule
    reads its factor reports, each power supported exactly on ``[hL, hR]``
    with unit extremes, but never their STP verdict, which the scan
    falsifies; a rule that is not onto has no reports, so no sides."""
    if isinstance(rule, AdditiveRule):
        sides = [
            (f.prime**f.exponent, f.h, f.h * f.L or None, f.h * f.R or None)
            for f in classify_additive(rule).factors
        ]
    else:
        table, width, lo, _ = _kernel(rule)
        hi = lo + width - 1
        left, right = _bijective_ends(table, rule.alphabet_size)
        sides = [(rule.alphabet_size, 1, lo if lo and left else None, hi if hi and right else None)]
    return sides if all(dl is not None or dr is not None for _, _, dl, dr in sides) else []


def _defects(left, mid, right, start: int) -> tuple[int, int]:
    """First coordinate where the canonical state ``(left, mid, right,
    start)``, not spatially periodic, deviates from its left tail pattern
    and last one where it deviates from its right tail pattern.  A
    canonical mid ends on a letter unlike the right tail's, and so does
    the left tail where the mid is empty."""
    n, r = len(left), len(right)
    first = 0 if mid else next(i for i in range(lcm(n, r)) if left[i % n] != right[i % r])
    return start + first, start + len(mid) - 1


def stp_empty_scan(
    rule: TableRule | AdditiveRule,
    tail_period_max: int = 2,
    mid_len_max: int = 3,
    t_max: int = 32,
    max_violations: int = 100,
) -> ScanResult:
    """Hunt counterexamples to "no strictly temporally periodic points".

    Enumerates, up to shift, the canonical eventually periodic
    configurations whose tails have primitive period ``<= tail_period_max``
    and whose middle has length ``<= mid_len_max``, and reports every one
    that returns to itself within ``t_max`` steps, up to ``max_violations``
    of them.  The tails are the jointly periodic words within the bound (a
    periodic orbit forces periodic tails).

    Four devices shortcut the orbit walks; none changes the count of
    examined candidates, the violations or their order.

    * Drift.  When every factor of the rule has a power F^h bijective in
      a nonzero boundary variable (``_prune_sides``: a table rule is its
      own factor with h = 1, read off its kernel; an onto additive rule's
      factor reports give its prime-power reductions at their permutative
      powers), no candidate returns: the defect boundary of that side
      moves strictly every h steps, and a return of the full
      configuration forces a return of every residue, at least one of
      which is not spatially periodic.  The whole family is then counted,
      not walked, after a spot-check: the first candidates are each
      walked once on a fresh stepper, and each factor's residue defect
      edges are read off the walk's states 0 and h.  Still walked: table
      rules with no drift side, additive rules with an equicontinuous
      factor (the Dense and Residual verdicts), and rules that are not
      onto.
    * Limit set.  Otherwise a candidate is walked only if it lies in
      F²(X): a return y = F^p(y), p >= 1, gives y = F^(2p)(y), so every
      point that returns lies in the limit set, the intersection of all
      F^n(X) (Culik, Pachl & Yu, SIAM J. Comput. 18, 1989), and in
      particular in F²(X).  Membership is decided exactly by the de
      Bruijn subset automaton (``oracles._preimage_test``) of F∘F,
      composed from F's span table over ``2w - 1`` positions
      (``oracles._square_rule``).  F²(X) lies inside F(X), so the Gardens
      of Eden of F are skipped too.  Past the test's bit budget for F∘F
      the test is F's own, and past F's every candidate is walked.  An onto additive
      rule has F²(X) = X, so it is not asked.
    * One stepper per search, owning a successor memo (see
      ``engine._ep_stepper``).  Candidate orbits fall into the same
      attractors and reuse the same tails, so a memo hit replaces a step
      by a lookup, and a tail is padded and its image rooted once per
      search.  Every violation is re-derived on a fresh stepper.
    * Runaway edges.  A walk ends as soon as a defect edge is seen to move
      at the rule's full speed forever (see ``engine._cycle``): such an
      orbit never returns.  The walk's mid cap, ``mid_len_max`` plus
      ``width - 1`` cells per step, can never bind, so the exit is always
      open to the scan.

    Without the drift prune, more mids than ``rules.MAX_TABLE_ENTRIES`` of
    length ``mid_len_max`` are refused before the census of tails is
    taken.
    """
    if min(tail_period_max, mid_len_max, t_max) < 0:
        raise ValueError("scan bounds must be non-negative")
    if max_violations < 1:
        raise ValueError("max_violations must be positive")
    additive = rule if isinstance(rule, AdditiveRule) else None
    table = table_from_additive(additive) if additive is not None else rule
    k = table.alphabet_size
    bounds = ScanBounds(tail_period_max, mid_len_max, t_max)
    sides = _prune_sides(rule)
    if not sides:
        _table_size(k, mid_len_max)
    census = _primitive_points(table, tail_period_max, t_max)
    tails = sorted(((cfg.word, t) for cfg, t in census), key=lambda wt: (len(wt[0]), wt))

    def pairs():
        # streamed: the tail pairs can outnumber memory before a cap is read
        return ((a, b) for a, ta in tails for b, tb in tails if lcm(ta, tb) <= t_max)

    def candidates():
        # the configurations ^inf(a) . mid . (b)^inf as (a, mid, b); tails
        # from the census and mids from product(range(k)) are letters of
        # the alphabet, so ``_ep`` builds their canonical states without
        # the public checks
        for a, b in pairs():
            if a != b:
                yield a, (), b
            for n in range(1, mid_len_max + 1):
                for mid in product(range(k), repeat=n):
                    if mid[0] == a[0] or mid[-1] == b[-1]:
                        continue  # not canonical: would absorb into a tail
                    yield a, mid, b

    if sides:
        # No candidate can return: some defect boundary moves strictly every
        # h steps.  Spot-check the first few against their orbits up to the
        # largest h and count the family without building it.
        h_max = max(h for _, h, _, _ in sides)
        for a, mid, b in islice(candidates(), 32):
            orbit = list(islice(_orbit(table, _canonical_ep(a, mid, b, 0)), h_max + 1))
            for q, h, dl, dr in sides:
                ry, rimg = (
                    _canonical_ep(*(tuple(c % q for c in w) for w in z[:3]), z[3])
                    for z in (orbit[0], orbit[h])
                )
                if not ry[1] and ry[0] == ry[2]:
                    continue  # a spatially periodic residue has no defect
                (y_lo, y_hi), (img_lo, img_hi) = _defects(*ry), _defects(*rimg)
                if not (img_lo == y_lo - dr if dr is not None else img_hi == y_hi - dl):
                    raise AssertionError("defect drift disagrees with the engine's steps")
        # a canonical mid starts unlike a[0] and ends unlike b[-1]
        longer = sum((k - 1) ** 2 * k ** (n - 2) for n in range(2, mid_len_max + 1))
        examined = sum(
            (a != b) + (mid_len_max > 0) * (k - 2 + (a[0] == b[-1])) + longer for a, b in pairs()
        )
        return ScanResult(bounds, examined, (), False)

    has_preimage = None
    if additive is None or not is_surjective_additive(additive):
        has_preimage = _preimage_test(_square_rule(table))
    # the mid grows by at most width - 1 per step, so this cap never binds
    max_mid = mid_len_max + (_kernel(table)[1] - 1) * t_max
    examined = 0
    violations: list[StpWitness] = []
    advance = _ep_stepper(_kernel(table), {})
    for a, mid, b in candidates():
        examined += 1
        if has_preimage is not None and not has_preimage(a, mid, b):
            continue  # outside F²(X), or F(X) past the budget: it never returns
        y = _ep(k, *_canonical_ep(a, mid, b, 0))
        res = _return_witness(table, y, t_max, max_mid, advance)
        if isinstance(res, StpWitness):
            violations.append(res)
            if len(violations) == max_violations:
                return ScanResult(bounds, examined, tuple(violations), True)
    return ScanResult(bounds, examined, tuple(violations), False)


# ---------------------------------------------------------------------------
# Product witnesses


def product_witness_scan(f: TableRule, g: TableRule) -> tuple[StpWitness, ...]:
    """Verified strictly temporally periodic points of the product rule.

    Pairs each of up to three witnesses of ``f`` (blocking word pipeline at
    its default bounds, seeds of one or two letters) with each jointly
    periodic point of ``g`` of primitive length up to 3 whose periods admit
    a common multiple within 64 steps; the fused configuration is stepped
    through the product rule and compared exactly.  Returns the first five
    witnesses, none when ``f`` yields no witness.
    """
    cert = blocking_word_search(f)
    if not isinstance(cert, BlockingCert):
        return ()
    if not surjectivity_oracle(f):
        raise NotSurjectiveError("witness construction requires a surjective rule")
    t_max = 64
    seeds = (u for n in (1, 2) for u in product(range(f.alphabet_size), repeat=n))
    f_wits: list[StpWitness] = []
    for u in seeds:
        try:
            wit = _seeded_witness(f, cert.word, u, t_max)
        except DegenerateUError:
            continue
        if isinstance(wit, StpWitness):
            f_wits.append(wit)
            if len(f_wits) == 3:
                break
    g_points = _primitive_points(g, 3, t_max)
    prod = product_rule(f, g)
    kg = g.alphabet_size
    # F^t fixes the fused point, so its orbit returns within t steps
    fused = (
        _return_witness(
            prod,
            _join((wf.config, cg), lambda a, b: a * kg + b, prod.alphabet_size),
            lcm(wf.period, tg),
        )
        for wf in f_wits
        for cg, tg in g_points
        if lcm(wf.period, tg) <= t_max
    )
    return tuple(islice(fused, 5))
