"""Reference arithmetic and stepping that share no code with periodika.

The benchmark checks every output of the package against these routines.
Rules are plain data here: a table rule is ``(k, table, lo, hi)`` with the
window ``x[i+lo] .. x[i+hi]`` read big-endian, and an additive rule is a
coefficient map ``{j: c}`` over Z_m.

A configuration is held as a canonical key, so that equal keys mean equal
bi-infinite configurations:

* ``("P", word)`` -- ``x_i = word[i % len(word)]`` with ``word`` primitive;
* ``("E", left, right, start, mid)`` -- ``x_i = left[i % len(left)]`` for
  ``i < start``, ``mid[i - start]`` up to ``start + len(mid)``, and
  ``right[i % len(right)]`` beyond.  Both patterns are primitive, ``start``
  is the first cell that deviates from the left pattern and the last cell
  of ``mid`` is the last cell that deviates from the right pattern (``mid``
  is empty when the two deviation ranges do not overlap).
"""

from __future__ import annotations

from itertools import product
from math import lcm

# ---------------------------------------------------------------------------
# Integers and additive rules


def factorize(m: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def poly_reduce(coeffs: dict, m: int) -> dict:
    return {j: c % m for j, c in sorted(coeffs.items()) if c % m}


def poly_mul(f: dict, g: dict, m: int) -> dict:
    out: dict[int, int] = {}
    for i, a in f.items():
        for j, b in g.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return poly_reduce(out, m)


def poly_power(f: dict, h: int, m: int) -> dict:
    acc = {0: 1}
    base = poly_reduce(f, m)
    while h:
        if h & 1:
            acc = poly_mul(acc, base, m)
        base = poly_mul(base, base, m)
        h >>= 1
    return poly_reduce(acc, m)


def additive_table(m: int, radius: int, coeffs: dict) -> tuple:
    """Lookup table of an additive rule over the window ``-radius .. radius``."""
    width = 2 * radius + 1
    dense = [coeffs.get(j, 0) for j in range(-radius, radius + 1)]
    return (
        m,
        tuple(sum(c * a for c, a in zip(dense, word)) % m for word in product(range(m), repeat=width)),
        -radius,
        radius,
    )


def table_rule(rule) -> tuple:
    """Plain-data view of a ``periodika.rules.TableRule``."""
    return (rule.alphabet_size, tuple(rule.table), rule.offset - rule.radius, rule.offset + rule.radius)


# ---------------------------------------------------------------------------
# Configurations


def primitive(word: tuple) -> tuple:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


def canonical(lp: tuple, rp: tuple, a: int, cells: tuple):
    """Key of ``x_i = lp[i % len(lp)]`` (i < a), ``cells[i - a]`` (a <= i <
    a + len(cells)), ``rp[i % len(rp)]`` beyond."""
    lp, rp = primitive(lp), primitive(rp)
    nl, nr = len(lp), len(rp)
    b = a + len(cells)
    span = lcm(nl, nr)
    lo = next((i for i in range(a, b) if cells[i - a] != lp[i % nl]), None)
    if lo is None:
        lo = next((i for i in range(b, b + span) if rp[i % nr] != lp[i % nl]), None)
        if lo is None:
            return ("P", lp)
    hi = next((i for i in range(b - 1, a - 1, -1) if cells[i - a] != rp[i % nr]), None)
    if hi is None:
        hi = next(i for i in range(a - 1, a - 1 - span, -1) if lp[i % nl] != rp[i % nr])

    def at(i):
        if i < a:
            return lp[i % nl]
        if i < b:
            return cells[i - a]
        return rp[i % nr]

    return ("E", lp, rp, lo, tuple(at(i) for i in range(lo, hi + 1)))


def key_of(config):
    """Key of a ``periodika.configs`` configuration, read field by field."""
    if hasattr(config, "word"):
        n = len(config.word)
        word = tuple(config.word[(config.phase + i) % n] for i in range(n))
        return ("P", primitive(word))
    return ep_key(config.left, config.mid, config.right, config.start)


def ep_key(left: tuple, mid: tuple, right: tuple, start: int = 0):
    """Key of ``^inf(left) . mid . (right)^inf`` with ``mid`` at ``start``."""
    end = start + len(mid)
    lp = tuple(left[(i - start) % len(left)] for i in range(len(left)))
    rp = tuple(right[(i - end) % len(right)] for i in range(len(right)))
    return canonical(lp, rp, start, tuple(mid))


def value(key, i: int) -> int:
    if key[0] == "P":
        return key[1][i % len(key[1])]
    _, lp, rp, start, mid = key
    if i < start:
        return lp[i % len(lp)]
    if i < start + len(mid):
        return mid[i - start]
    return rp[i % len(rp)]


def mid_width(key) -> int:
    return 0 if key[0] == "P" else len(key[4])


def _image(rule, cells: list) -> list:
    """Outputs for every full window of ``cells`` (rolling big-endian index)."""
    k, table, lo, hi = rule
    width = hi - lo + 1
    top = k ** (width - 1)
    idx = 0
    for a in cells[: width - 1]:
        idx = idx * k + a
    out = []
    for a in cells[width - 1 :]:
        idx = (idx % top) * k + a
        out.append(table[idx])
    return out


def _periodic_image(rule, pattern: tuple) -> tuple:
    """Image of the periodic sequence ``pattern[i % n]``, anchored the same way."""
    _, _, lo, hi = rule
    n = len(pattern)
    cells = [pattern[i % n] for i in range(lo, n + hi)]
    return tuple(_image(rule, cells))


def step(rule, key):
    if key[0] == "P":
        return ("P", primitive(_periodic_image(rule, key[1])))
    _, lp, rp, start, mid = key
    _, _, lo, hi = rule
    a, b = start - hi, start + len(mid) - lo
    cells = _image(rule, [value(key, i) for i in range(a + lo, b + hi)])
    return canonical(_periodic_image(rule, lp), _periodic_image(rule, rp), a, tuple(cells))


def orbit(rule, key, steps: int):
    """``key`` and its first ``steps`` images, lazily."""
    yield key
    for _ in range(steps):
        key = step(rule, key)
        yield key


def first_repeat(rule, key, steps: int, max_mid: int | None = None):
    """First ``(q, n)`` with ``F^n x = F^q x`` and ``n <= steps``, or
    ``("mid", n)`` when the mid first outgrows ``max_mid`` at step ``n``,
    or ``None``.  Keeps only hashes; a hash hit is confirmed by re-walking."""
    seen: dict[int, list[int]] = {}
    for n, cur in enumerate(orbit(rule, key, steps)):
        if max_mid is not None and mid_width(cur) > max_mid:
            return ("mid", n)
        for q in seen.get(hash(cur), ()):
            if _state(rule, key, q) == cur:
                return (q, n)
        seen.setdefault(hash(cur), []).append(n)
    return None


def _state(rule, key, n: int):
    for cur in orbit(rule, key, n):
        pass
    return cur


def first_return(rule, key, steps: int) -> int | None:
    """Least ``t`` in ``1..steps`` with ``F^t x = x``, else None."""
    for t, cur in enumerate(orbit(rule, key, steps)):
        if t and cur == key:
            return t
    return None
