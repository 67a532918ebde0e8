"""Exact evolution of configurations under table rules.

Both configuration classes are closed under one step of a global map: the
image of a spatially periodic configuration is spatially periodic with the
same (or a dividing) period, and the image of an eventually periodic
configuration is eventually periodic with the mid widened by at most the
window width.  Orbit computations therefore never approximate.

Every step reads a rule's essential span through ``rules._kernel``, never
its declared radius or offset.  An eventually periodic walk pads each tail
and roots each tail's image once, in two tables owned by its stepper (see
``_ep_stepper``), so that a step images the mid and absorbs the new
border, and nothing more.  A search's stepper also owns the search's
successor memo, and every walk of the search steps on it.  A spatially
periodic walk steps one ring of fixed length, never re-rooted (see ``_orbit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .configs import (
    Config,
    CyclicConfig,
    _absorb,
    _cells,
    _cyclic_root,
    _ep,
    _repeat,
    _state,
    primitive_root,
)
from .rules import TableRule, _kernel


def _ep_stepper(kernel, memo: dict | None = None):
    """The step of eventually periodic states under the rule whose kernel
    is ``kernel`` (see ``rules._kernel``): a function of a packed state
    ``left, mid, right, start`` whose tails are primitive roots, returning
    the canonical packed image state.

    A tail's image depends on the tail alone, so the stepper keeps two
    tables, one per side, from each tail it has met to the tail's pad (the
    cells around the mid that the image reads) and the primitive root of
    the tail's image.  A tail is padded and its image rooted on its first
    use only; a later step images the padded mid and absorbs the new
    border letters.

    Given a successor ``memo``, the stepper first looks up a state's
    translation class ``(left, mid, right)``, and stores each image that is
    not spatially periodic (those are anchored at start 0, not translated)
    with its start relative to the state's: the global map commutes with
    the shift, so one entry serves every translate.  Tables and memo live
    as long as the stepper: one walk, or every walk of one search."""
    _, width, lo, image = kernel
    d = width - 1
    lefts, rights = {}, {}

    def advance(left, mid, right, start):
        # The image of cells start - d - ell .. end + d + rho - 1 covers the
        # new left tail period, the new mid and the new right tail period.
        # Cell c reads cells c + lo .. c + lo + d, so the image starts at
        # cell start - d - ell - lo.
        ell, rho = len(left), len(right)
        hit_l, hit_r = lefts.get(left), rights.get(right)
        if hit_l is None or hit_r is None:
            pad_l, pad_r = _repeat(left, -d - ell, d + ell), _repeat(right, 0, d + rho)
            img = image(pad_l + mid + pad_r)
            hit_l = lefts[left] = pad_l, primitive_root(img[:ell])
            hit_r = rights[right] = pad_r, primitive_root(img[len(img) - rho :])
        else:
            img = image(hit_l[0] + mid + hit_r[0])
        return _absorb(hit_l[1], img[ell : len(img) - rho], hit_r[1], start - d - lo)

    if memo is None:
        return advance

    def remembered(left, mid, right, start):
        key = left, mid, right
        hit = memo.get(key)
        if hit is not None:
            return (*hit[:3], hit[3] + start)
        state = advance(left, mid, right, start)
        if state[1] or state[0] != state[2]:
            memo[key] = (*state[:3], state[3] - start)
        return state

    return remembered


def step(rule: TableRule, x: Config) -> Config:
    if rule.alphabet_size != x.alphabet_size:
        raise ValueError("alphabet mismatch")
    # image letters come from the validated table and the state is
    # canonical, so the trusted constructors take it once unpacked
    left, mid, right, start = next(islice(_orbit(rule, _state(x)), 1, None))
    if not mid and left == right:  # a ring keeps its length along a walk
        left = right = primitive_root(left)
    if isinstance(x, CyclicConfig):
        return _cyclic_root(x.alphabet_size, tuple(left))
    return _ep(x.alphabet_size, tuple(left), tuple(mid), tuple(right), start)


def _orbit(rule: TableRule, state, advance=None):
    """States ``(left, mid, right, start)`` of ``x, F(x), F^2(x), ...`` for
    ``x`` given by its canonical state (see ``configs._state``), stepped
    without building configurations: image letters come from the validated
    table.  The words of every state are packed in the type of the rule's
    span table (see ``rules._kernel``): ``bytes`` or tuples, which
    ``configs._cells`` reads alike.  A state with a defect takes the
    stepper ``advance`` (see ``_ep_stepper``): a search's own, or a fresh
    one.  States are canonical through the first spatially periodic one,
    ``(w, (), w, 0)``; after it the walk steps the ring of ``len(w)`` cells
    unrooted, so its states are exact within the walk only.  The caller
    checks that the alphabets match."""
    kernel = _kernel(rule)
    pack = type(kernel[0])
    left, mid, right, start = state = (*map(pack, state[:3]), state[3])
    if mid or left != right:
        # a walk that starts spatially periodic builds no stepper
        if advance is None:
            advance = _ep_stepper(kernel)
        while mid or left != right:
            yield state
            left, mid, right, start = state = advance(*state)
    # a rule maps rings of n cells to rings of n cells (Martin, Odlyzko &
    # Wolfram, 1984); image cell c reads the ring from cell (c + lo) mod n
    _, width, lo, image = kernel
    word, n = left, len(left)
    a = lo % n
    b = a + n + width - 1
    reps = -(-b // n)
    while True:
        yield word, mid, word, 0
        word = image((word * reps)[a:b])


@dataclass(frozen=True)
class CycleResult:
    """Orbit shape: ``F^(preperiod + period)(x) = F^preperiod(x)``, minimal."""

    preperiod: int
    period: int


@dataclass(frozen=True)
class CycleTimeout:
    """No repeat of the orbit within its first ``steps_examined`` steps."""

    steps_examined: int
    reason: str = "step budget exhausted"


def temporal_cycle(
    rule: TableRule,
    x: Config,
    max_steps: int = 100_000,
    max_mid: int = 10_000,
) -> CycleResult | CycleTimeout:
    """Exact preperiod and period of the orbit of ``x``, by memoisation.

    States compare exactly within one walk (see ``_orbit``), so the first
    repeat gives the true minimal preperiod and period.  Returns
    ``CycleTimeout`` when the step budget runs out or an eventually
    periodic mid outgrows ``max_mid``; its ``steps_examined`` is the bound
    within which the orbit has no repeat.

    States are memoised up to translation.  A state that recurs shifted
    ends the walk at once with the full budget as bound: the global map
    commutes with the shift, so from then on the orbit is a rigid
    translation of the states in between, none of them spatially periodic
    (those are anchored at start 0), and no state ever recurs exactly nor
    grows a wider mid.

    A walk whose defect edge moves at the rule's full speed forever ends
    early too, with the same bound: once the pair of the edge's tail root
    and border letter recurs along a run of full-speed moves, no state can
    recur (see ``_cycle``).  This exit is taken only where the mid cannot
    outgrow ``max_mid`` within the budget, growing by at most the window
    width less one per step, so it returns what the full walk would.
    """
    if rule.alphabet_size != x.alphabet_size:
        raise ValueError("alphabet mismatch")
    return _cycle(rule, _state(x), max_steps, max_mid)


def _cycle(rule: TableRule, state, max_steps: int, max_mid: int, advance=None):
    """``temporal_cycle`` of the canonical state ``state``, whose alphabet
    the caller has matched, with its orbit stepped by ``advance`` when one
    is given (see ``_orbit``).

    Runaway edges end a walk early.  Let the kernel read cells ``c + lo ..
    c + hi`` for image cell ``c``.  The left edge of a state with a
    nonempty canonical mid is its start; in one step it moves left by at
    most ``hi`` cells, and by exactly ``hi`` iff the image cell at ``start -
    hi`` differs from the left tail's image there.  That cell, the new left
    root and so the next pair ``(left, mid[0])`` depend only on the pair
    ``(left, mid[0])``.  So when a pair recurs along an unbroken run of
    full-speed moves, with ``hi > 0``, the edge moves ``hi`` cells every step
    forever, and no state recurs exactly; mirrored for the right edge
    ``start + len(mid)``, the pair ``(right, mid[-1])`` and ``lo < 0``
    (Shereshevsky's maximal defect speeds, J. Nonlinear Sci. 2, 1992).  The
    full walk would then end on the budget or on a translated repeat, both
    ``CycleTimeout(max_steps)``, unless the mid cap fired first.  The mid
    grows by at most ``width - 1`` cells a step, so the walk returns that
    timeout at once only when ``len(mid) + (max_steps - n) * (width - 1) <=
    max_mid``, and otherwise walks on.  The pairs of each side are kept
    from the last move slower than full speed, or the last empty mid, on.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    if max_mid < 0:
        raise ValueError("max_mid must be non-negative")
    _, width, lo, _ = _kernel(rule)
    d, hi = width - 1, lo + width - 1
    seen = {}
    lefts, rights = set(), set()  # the pairs of each side's current full-speed run
    prev = None  # the previous state, if its mid is nonempty
    for n, cur in enumerate(islice(_orbit(rule, state, advance), max_steps + 1)):
        left, mid, right, start = cur
        if n and len(mid) > max_mid:
            return CycleTimeout(n, "mid width cap exceeded")
        key = left, mid, right
        if key in seen:
            q, s = seen[key]
            return CycleResult(q, n - q) if s == start else CycleTimeout(max_steps)
        seen[key] = n, start
        if not mid:
            if prev is not None:  # both sets are empty while prev is None
                lefts.clear()
                rights.clear()
                prev = None
            continue
        if prev is not None:
            p_left, p_mid, p_right, p_start = prev
            runaway = False
            if hi > 0:
                if start == p_start - hi:
                    lefts.add((p_left, p_mid[0]))
                    runaway = (left, mid[0]) in lefts
                elif lefts:
                    lefts.clear()
            if lo < 0:
                if start + len(mid) == p_start + len(p_mid) - lo:
                    rights.add((p_right, p_mid[-1]))
                    runaway = runaway or (right, mid[-1]) in rights
                elif rights:
                    rights.clear()
            if runaway and len(mid) + (max_steps - n) * d <= max_mid:
                return CycleTimeout(max_steps)
        prev = cur
    return CycleTimeout(max_steps)


@dataclass(frozen=True)
class SpaceTimeTrace:
    alphabet_size: int
    lo: int
    hi: int
    rows: tuple[tuple[int, ...], ...]


def space_time(rule: TableRule, x: Config, steps: int, lo: int, hi: int) -> SpaceTimeTrace:
    """Sampled orbit segment: ``steps + 1`` rows over coordinates ``lo..hi``."""
    if rule.alphabet_size != x.alphabet_size:
        raise ValueError("alphabet mismatch")
    if hi < lo:
        raise ValueError("window must satisfy lo <= hi")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rows = (tuple(_cells(*state, lo, hi + 1)) for state in islice(_orbit(rule, _state(x)), steps + 1))
    return SpaceTimeTrace(x.alphabet_size, lo, hi, tuple(rows))


def ascii_render(trace: SpaceTimeTrace) -> str:
    if trace.alphabet_size <= 10:
        return "\n".join("".join(str(a) for a in row) for row in trace.rows)
    return "\n".join(" ".join(str(a) for a in row) for row in trace.rows)


def pgm_render(trace: SpaceTimeTrace) -> bytes:
    """Binary PGM (P5) image, one pixel per cell, letters scaled to 0..255;
    past 256 letters to 0..65535, two bytes per sample, most significant
    first.  More than 65536 letters are refused."""
    k = trace.alphabet_size
    if k > 65536:
        raise ValueError(f"a PGM image has at most 65536 grey levels, not {k}")
    maxval = 255 if k <= 256 else 65535
    scale = maxval // (k - 1)
    width = trace.hi - trace.lo + 1
    height = len(trace.rows)
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    samples = (a * scale for row in trace.rows for a in row)
    body = bytes(samples) if maxval == 255 else b"".join(v.to_bytes(2, "big") for v in samples)
    return header + body
