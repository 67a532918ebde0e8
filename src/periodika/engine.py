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
successor memo, and every walk of the search steps on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .configs import (
    Config,
    CyclicConfig,
    _absorb,
    _canonical_word,
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
    if isinstance(x, CyclicConfig):
        return _cyclic_root(x.alphabet_size, tuple(left))
    return _ep(x.alphabet_size, tuple(left), tuple(mid), tuple(right), start)


def _orbit(rule: TableRule, state, advance=None):
    """Canonical states ``(left, mid, right, start)`` of ``x, F(x),
    F^2(x), ...`` for ``x`` given by its canonical state (see
    ``configs._state``), stepped without building configurations: image
    letters come from the validated table.  The words of every state are
    packed in the type of the rule's span table (see ``rules._kernel``):
    ``bytes`` or tuples, which ``configs._cells`` reads alike.  A spatially
    periodic state takes the cyclic kernel; any other the stepper
    ``advance`` (see ``_ep_stepper``): a search's own, or a fresh one.  The
    caller checks that the alphabets match."""
    kernel = _kernel(rule)
    pack = type(kernel[0])
    left, mid, right, start = state = (*map(pack, state[:3]), state[3])
    if not mid and left == right:
        # the image of the word repeated from coordinate 0, over its period
        _, width, lo, image = kernel
        word = left
        while True:
            yield word, mid, word, 0
            word = _canonical_word(image(_repeat(word, lo, len(word) + width - 1)), 0)
    if advance is None:
        advance = _ep_stepper(kernel)
    while True:
        yield state
        state = advance(*state)


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

    Canonical forms make state comparison exact, so the first repeat gives
    the true minimal preperiod and period.  Returns ``CycleTimeout`` when
    the step budget runs out or an eventually periodic mid outgrows
    ``max_mid``; its ``steps_examined`` is the bound within which the orbit
    has no repeat.

    States are memoised up to translation.  A state that recurs shifted
    ends the walk at once with the full budget as bound: the global map
    commutes with the shift, so from then on the orbit is a rigid
    translation of the states in between, none of them spatially periodic
    (those are anchored at start 0), and no state ever recurs exactly nor
    grows a wider mid.
    """
    if rule.alphabet_size != x.alphabet_size:
        raise ValueError("alphabet mismatch")
    return _cycle(rule, _state(x), max_steps, max_mid)


def _cycle(rule: TableRule, state, max_steps: int, max_mid: int, advance=None):
    """``temporal_cycle`` of the canonical state ``state``, whose alphabet
    the caller has matched, with its orbit stepped by ``advance`` when one
    is given (see ``_orbit``)."""
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    if max_mid < 0:
        raise ValueError("max_mid must be non-negative")
    seen = {}
    for n, (left, mid, right, start) in enumerate(islice(_orbit(rule, state, advance), max_steps + 1)):
        if n and len(mid) > max_mid:
            return CycleTimeout(n, "mid width cap exceeded")
        key = left, mid, right
        if key in seen:
            q, s = seen[key]
            return CycleResult(q, n - q) if s == start else CycleTimeout(max_steps)
        seen[key] = n, start
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
