"""Brute-force oracles that cross-check the coefficient-level criteria.

These work on explicit tables only, so they are independent of the
additive shortcuts: surjectivity is decided by exact preimage counting on
the de Bruijn graph, equicontinuity by literally comparing canonical
tables of rule powers.  Both are exact-or-Unknown; neither ever guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .rules import (
    ResourceCapError,
    TableRule,
    _compose,
    _table_rule,
    _trim,
    pad_table,
)

# Caps on the oracles' exact work; hitting one raises ``ResourceCapError``
# or yields ``OracleUnknown``, never a wrong verdict.
MAX_PREIMAGE_VECTORS = 1_000_000
MAX_POWERS = 64
MAX_POWER_CELLS = 30_000
MAX_PRODUCT_CELLS = 250_000


def surjectivity_oracle(rule: TableRule) -> bool:
    """Exact surjectivity test by balance of preimage counts.

    A global map of radius r over k letters is surjective iff every word w
    has exactly ``k**(2r)`` preimage words of length ``len(w) + 2r``.  The
    count vector (preimage paths per de Bruijn state) evolves under one
    transfer per letter; the reachable vectors are explored exhaustively.
    In the balanced case entries stay bounded so the walk terminates, and
    an unbalanced word is found at the first bad vector sum.  The window
    offset is ignored: precomposing with a shift preserves surjectivity.
    """
    k, r = rule.alphabet_size, rule.radius
    states = k ** (2 * r)
    table = rule.table
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for u in range(states):
        base = u * k
        for c in range(k):
            buckets[table[base + c]].append((u, (base + c) % states))
    start = (1,) * states
    seen = {start}
    frontier = [start]
    while frontier:
        vec = frontier.pop()
        for a in range(k):
            nxt = [0] * states
            for u, v in buckets[a]:
                nxt[v] += vec[u]
            if sum(nxt) != states:
                return False
            t = tuple(nxt)
            if t not in seen:
                if len(seen) >= MAX_PREIMAGE_VECTORS:
                    raise ResourceCapError("preimage-count exploration exceeded cap")
                seen.add(t)
                frontier.append(t)
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
    ``OracleUnknown``, never a wrong verdict.
    """
    return _packed_power_walk(rule)[0]


def _power_walk(rule: TableRule) -> tuple[EquicontinuityCert | OracleUnknown, list[tuple]]:
    """``equicontinuity_oracle``'s search, returning with its result the
    span tables ``(table, width, lo)`` of ``F^0, F^1, ...`` it built, each
    trimmed to its essential span (see ``rules._trim``); after a
    certificate ``(q, p)`` they are exactly ``F^0 .. F^(q+p)``.  The
    tables are tuples."""
    result, powers = _packed_power_walk(rule)
    return result, [(tuple(table), width, lo) for table, width, lo in powers]


def _packed_power_walk(rule: TableRule) -> tuple[EquicontinuityCert | OracleUnknown, list[tuple]]:
    """``_power_walk`` with the span tables as the walk keeps them: tuples,
    or ``bytes`` when F's trimmed table has at most 256 entries (the size
    rule of ``engine._kernel``); ``bytes`` tables are composed by
    ``rules._compose_bytes``.

    F^(n+1) = F o F^n is composed over the span of F^n widened by F's, then
    trimmed.  A trimmed table is canonical, so it keys the repeat test as
    it is.  The cap test reads ``width // 2``, the radius of the canonical
    TableRule, as if the padded tables were composed."""
    k = rule.alphabet_size
    f, f_w, f_lo = _trim(rule.table, k, rule.width, rule.offset - rule.radius)
    pack = bytes if len(f) <= 256 else tuple
    f = pack(f)
    cur = pack(range(k)), 1, 0
    powers = [cur]
    memo = {cur: 0}
    for n in range(1, MAX_POWERS + 1):
        g, g_w, g_lo = cur
        if k ** (2 * (g_w // 2 + rule.radius) + 1) > MAX_POWER_CELLS:
            return OracleUnknown(f"table cap reached at power {n}", n - 1), powers
        cur = _trim(_compose(k, f, f_w, g, g_w), k, g_w + f_w - 1, g_lo + f_lo)
        powers.append(cur)
        q = memo.setdefault(cur, n)
        if q != n:
            return EquicontinuityCert(q, n - q), powers
    return OracleUnknown("power budget exhausted", MAX_POWERS), powers


def product_rule(f: TableRule, g: TableRule) -> TableRule:
    """Table of the product map (F x G) over the fused alphabet ``a*kg + b``."""
    radius = max(f.radius + abs(f.offset), g.radius + abs(g.offset))
    kf, kg = f.alphabet_size, g.alphabet_size
    k = kf * kg
    width = 2 * radius + 1
    if k**width > MAX_PRODUCT_CELLS:
        raise ResourceCapError("product table too large")
    fp = pad_table(f, radius, 0)
    gp = pad_table(g, radius, 0)
    table = tuple(
        fp(d // kg for d in word) * kg + gp(d % kg for d in word)
        for word in product(range(k), repeat=width)
    )
    return _table_rule(k, radius, table)
