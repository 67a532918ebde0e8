"""Brute-force oracles that cross-check the coefficient-level criteria.

These work on explicit tables only, so they are independent of the
additive shortcuts, and both read a rule through ``rules._kernel``, its
table cut to the essential span.  Surjectivity is decided on the de Bruijn
graph by its subset automaton: F is onto iff no word empties the set of
all states.  Equicontinuity is decided by comparing the canonical tables
of rule powers until two are equal; a power that equals an earlier one up
to a nonzero translation ends the walk, because from there on no two
powers can be equal.  Both are exact-or-Unknown; neither ever guesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rules import ResourceCapError, TableRule, _compose, _kernel, _trim

# Caps on the oracles' exact work; hitting one raises ``ResourceCapError``
# or yields ``OracleUnknown``, never a wrong verdict.
MAX_PREIMAGE_VECTORS = 1_000_000  # state sets of the subset automaton
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
    a permutation.
    """
    k = rule.alphabet_size
    table, width, _, _ = _kernel(rule)
    if width == 1:
        return len(set(table)) == k
    states = k ** (width - 1)
    # moves[u] holds k fields of ``states`` bits: field a is the set of
    # states u reaches by reading an output a.  On letter c, u reads
    # table[u*k + c] and goes to u*k % states + c, a multiple of k plus c,
    # so its moves are its row's from state 0, shifted by u*k % states
    rows: dict = {}
    moves = []
    for i in range(0, len(table), k):  # i = u*k
        row = table[i : i + k]
        mask = rows.get(row)
        if mask is None:
            mask = rows[row] = sum(1 << a * states + c for c, a in enumerate(row))
        moves.append(mask << i % states)
    full = (1 << states) - 1
    seen = {full}
    frontier = [full]
    while frontier:
        cur = frontier.pop()
        images = 0
        while cur:
            low = cur & -cur
            images |= moves[low.bit_length() - 1]
            cur ^= low
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

    F^(n+1) = F o F^n is composed over the span of F^n widened by F's, then
    trimmed.  A trimmed table is canonical, so the pair ``(table, width)``
    keys the repeat memo as it is, and ``lo`` tells an exact repeat from a
    translated one.  The cap test reads ``width // 2``, the radius of a
    span's canonical TableRule, for the power and for F.

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

