"""Brute-force oracles that cross-check the coefficient-level criteria.

These work on explicit tables only, so they are independent of the
additive shortcuts, and both read a rule through ``rules._kernel``, its
table cut to the essential span.  Surjectivity is decided on the de Bruijn
graph by its subset automaton: F is onto iff no word empties the set of
all states.  The same automaton, read along a configuration's left tail,
middle and right tail, decides whether an eventually periodic
configuration has a preimage at all; both read a state set's moves
through one reader, ``_images``, and the test's caches live as long as
the test.  The empty-STP scan asks it of F∘F (``_square_rule``, within
the automaton's bit budget) and skips the candidates outside F²(X).
Equicontinuity is decided by comparing the canonical tables of rule
powers until two are equal; a power that equals an earlier one up to a
nonzero translation ends the walk, because from there on no two powers
can be equal.  All are exact-or-Unknown; none ever guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .rules import ResourceCapError, TableRule, _compose, _kernel, _span_rule, _trim

# Caps on the oracles' exact work; hitting one raises ``ResourceCapError``
# or yields ``OracleUnknown``, never a wrong verdict.
MAX_PREIMAGE_VECTORS = 1_000_000  # subset-automaton state sets, or preimage-test mask bits
MAX_POWERS = 64
MAX_POWER_CELLS = 30_000


def surjectivity_oracle(rule: TableRule) -> bool:
    """Exact surjectivity test by the subset automaton of the de Bruijn graph.

    The automaton reads the rule's essential span (see ``rules._kernel``):
    padding a table or moving its window changes no global map.  For a
    span of w positions over k letters the states are the words of length
    w - 1; reading the window ``u c`` (u a state, c a letter) goes from u to
    the last w - 1 letters of ``u c`` and is labelled by the table's output
    there.  A word has a preimage iff it labels a path, so F is surjective
    iff no word drives the set of all states to the empty set (Hedlund
    1969; Amoroso and Patt 1972).  The sets reachable from the full set,
    each an int bitmask, are explored exhaustively, and the first empty
    image answers False.  A span of one position is onto iff its table is
    a permutation.  The move masks hold k state sets per state, one table
    entry each; more than ``MAX_PREIMAGE_VECTORS`` of them are refused
    before the first is built.
    """
    k = rule.alphabet_size
    table, width, _, _ = _kernel(rule)
    if width == 1:
        return len(set(table)) == k
    states = k ** (width - 1)
    moves = _move_masks(table, k, states)
    full = (1 << states) - 1
    seen = {full}
    frontier = [full]
    while frontier:
        images = _images(moves, frontier.pop())
        for a in range(k):
            nxt = images >> a * states & full
            if not nxt:
                return False
            if nxt not in seen:
                if len(seen) >= MAX_PREIMAGE_VECTORS:
                    raise ResourceCapError("subset-automaton exploration exceeded cap")
                seen.add(nxt)
                frontier.append(nxt)
    return True


def _move_masks(table, k: int, states: int) -> list[int]:
    """The moves of the de Bruijn graph of a span table over ``k`` letters
    with ``states`` = k^(width - 1) states, width >= 2: entry u holds k
    fields of ``states`` bits, field a the states u reaches along an edge
    labelled a.  The k·states fields (one per table entry) are counted
    against ``MAX_PREIMAGE_VECTORS`` before the first is built.

    The window ``u c`` is table entry u*k + c, from u to u*k % states + c, a
    multiple of k plus c, so u's moves are its row's from state 0, shifted
    by u*k % states."""
    if len(table) > MAX_PREIMAGE_VECTORS:
        raise ResourceCapError(f"subset-automaton moves of {len(table)} state sets exceeded cap")
    masks: dict = {}
    moves = []
    for i in range(0, len(table), k):  # i = u*k
        row = table[i : i + k]
        mask = masks.get(row)
        if mask is None:
            mask = masks[row] = sum(1 << a * states + c for c, a in enumerate(row))
        moves.append(mask << i % states)
    return moves


def _images(moves: list[int], cur: int) -> int:
    """The OR of the moves (see ``_move_masks``) of the states in ``cur``."""
    images = 0
    while cur:
        low = cur & -cur
        images |= moves[low.bit_length() - 1]
        cur ^= low
    return images


def _preimage_test_fits(k: int, width: int) -> bool:
    """Whether the k^width move fields of k^(width - 1) bits that
    ``_preimage_test`` builds fit in ``MAX_PREIMAGE_VECTORS`` bits."""
    return k**width * k ** (width - 1) <= MAX_PREIMAGE_VECTORS


def _preimage_test(rule: TableRule):
    """``has_preimage(a, mid, b)``: whether the eventually periodic
    configuration ``^inf(a) . mid . (b)^inf`` lies in F(X), exactly, or
    None when the move masks would hold more than ``MAX_PREIMAGE_VECTORS``
    bits.

    On the de Bruijn graph of the kernel (see ``surjectivity_oracle``) a
    configuration has a preimage iff it labels a bi-infinite path.  S*(a),
    the states that end a left-infinite path labelled ``^inf(a)``, is the
    limit of the sets read from the full set one period of ``a`` at a time.
    R*(b), the states that start a right-infinite path labelled
    ``(b)^inf``, is the limit of the sets that start a path of n periods of
    ``b``: from the full set, keep each state whose one period of ``b``
    ends in the set, the ends read forwards once per state.  Both chains
    decrease, so they settle within V = k^(width - 1) steps, and by König's
    lemma a state in every set of a chain ends, or starts, an infinite
    path.  The configuration has a preimage iff the states reached from
    S*(a) along ``mid`` meet R*(b) (Hedlund 1969; Amoroso and Patt 1972).
    S* and R* per tail and the image of each state set met are cached as
    long as the test lives, so a later candidate costs its mid's lookups
    and one AND.  Over a span of one position a configuration has a
    preimage iff each of its letters is in the table's image.  The V move
    masks are k·V bits each; past the budget of k·V² bits no test is
    built, so a scan of such a rule walks every candidate."""
    k = rule.alphabet_size
    table, width, _, _ = _kernel(rule)
    if width == 1:
        image = set(table)
        return lambda a, mid, b: image.issuperset((*a, *mid, *b))
    if not _preimage_test_fits(k, width):
        return None
    states = k ** (width - 1)
    full = (1 << states) - 1
    moves = _move_masks(table, k, states)
    images = cache(partial(_images, moves))

    def run(cur: int, word) -> int:
        # the states reached from the set cur along a path labelled word
        for c in word:
            cur = images(cur) >> c * states & full
        return cur

    @cache
    def left(a) -> int:
        cur, prev = full, None
        while cur != prev:
            prev, cur = cur, run(cur, a)
        return cur

    @cache
    def right(b) -> int:
        ends = [run(1 << u, b) for u in range(states)]  # the ends of one period of b from each state
        cur, prev = full, None
        while cur != prev:
            prev = cur
            cur = sum(1 << u for u, end in enumerate(ends) if end & prev)
        return cur

    def has_preimage(a, mid, b) -> bool:
        return bool(run(left(a), mid) & right(b))

    return has_preimage


def _square_rule(rule: TableRule) -> TableRule:
    """F∘F over its span of ``2w - 1`` positions, composed from F's span
    table of ``w`` (see ``rules._kernel``), or ``rule`` itself when the
    preimage test of F∘F would be over its bit budget (see
    ``_preimage_test_fits``), read before anything is composed."""
    k = rule.alphabet_size
    table, width, lo, _ = _kernel(rule)
    width2 = 2 * width - 1
    if not _preimage_test_fits(k, width2):
        return rule
    return _span_rule(k, tuple(_compose(k, table, width, table, width)), width2, 2 * lo)


@dataclass(frozen=True)
class EquicontinuityCert:
    """Witness of ``F^q = F^(q+p)`` as global maps (canonical tables equal)."""

    q: int
    p: int


@dataclass(frozen=True)
class OracleUnknown:
    reason: str
    powers_computed: int


def equicontinuity_oracle(rule: TableRule) -> EquicontinuityCert | OracleUnknown:
    """Search for a repeat among canonical tables of ``F^0, F^1, ...``.

    Returns the first ``(q, p)`` with ``q + p <= MAX_POWERS`` such that the
    canonical tables of ``F^q`` and ``F^(q+p)`` coincide -- an exact proof
    of eventual periodicity of the rule powers, hence of equicontinuity.
    Powers of sensitive rules keep growing, so the table cap
    ``MAX_POWER_CELLS`` bounds the work; hitting it yields
    ``OracleUnknown``, never a wrong verdict.  Powers of shift-like
    sensitive rules instead repeat up to a translation, ``F^(q+p) = s^t o
    F^q`` for the shift s and some t != 0; then ``F^(n+p) = s^t o F^n`` for
    every n >= q, and a map that is not constant differs from all its
    translates, so no exact repeat can follow and the answer is the
    ``OracleUnknown`` of an exhausted power budget, returned at once.
    """
    return _packed_power_walk(rule)[0]


def _packed_power_walk(rule: TableRule) -> tuple[EquicontinuityCert | OracleUnknown, list[tuple]]:
    """``equicontinuity_oracle``'s search, returning with its result the
    span tables ``(table, width, lo)`` of ``F^0, F^1, ...`` it built, each
    trimmed to its essential span (see ``rules._trim``); after a
    certificate ``(q, p)`` they are exactly ``F^0 .. F^(q+p)``, after a
    translated repeat ``F^0 .. F^MAX_POWERS``.  The tables have the type of
    F's span table in ``rules._kernel``, which the walk starts from:
    ``bytes`` (composed by ``rules._compose_bytes``) when it has at most
    256 entries, else tuples.

    F^1 is F's kernel span as it is; F^(n+1) = F o F^n for n >= 1 is
    composed over the span of F^n widened by F's, then trimmed.  A trimmed
    table is canonical, so the pair ``(table, width)`` keys the repeat memo
    as it is, and ``lo`` tells an exact repeat from a translated one.  The
    cap test reads ``width // 2``, the radius of a span's canonical
    TableRule, for the power and for F.

    After a translated repeat ``F^n = s^t o F^q`` every later power is the
    one ``p = n - q`` back, moved by t; its width is one the cap test has
    passed, so the walk would run to ``MAX_POWERS`` without a repeat (a
    constant power trims to ``lo = 0`` and repeats exactly).  The rest of
    the list is those translates, and the result is that walk's."""
    k = rule.alphabet_size
    f, f_w, f_lo, _ = _kernel(rule)
    cur = type(f)(range(k)), 1, 0
    powers = [cur]
    memo = {cur[:2]: 0}
    for n in range(1, MAX_POWERS + 1):
        g, g_w, g_lo = cur
        if k ** (2 * (g_w // 2 + f_w // 2) + 1) > MAX_POWER_CELLS:
            return OracleUnknown(f"table cap reached at power {n}", n - 1), powers
        if n == 1:
            cur = f, f_w, f_lo
        else:
            cur = _trim(_compose(k, f, f_w, g, g_w), k, g_w + f_w - 1, g_lo + f_lo)
        powers.append(cur)
        q = memo.setdefault(cur[:2], n)
        if q != n:
            t = cur[2] - powers[q][2]
            if not t:
                return EquicontinuityCert(q, n - q), powers
            for m in range(n + 1, MAX_POWERS + 1):
                table, width, lo = powers[m - n + q]
                powers.append((table, width, lo + t))
            break
    return OracleUnknown("power budget exhausted", MAX_POWERS), powers

