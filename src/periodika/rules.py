"""Local rules of one-dimensional cellular automata.

Two representations are used throughout the package:

* ``TableRule`` -- an explicit lookup table over a finite window.  A rule
  with radius ``r`` and offset ``o`` reads the cells ``i+o-r .. i+o+r``
  (left to right) to produce the new value of cell ``i``.  The offset lets
  one-sided rules keep a minimal window after canonicalisation; plain
  symmetric rules always have offset 0.
* ``AdditiveRule`` -- a linear rule ``f(x)_i = sum_j c_j * x_{i+j} mod m``
  stored as a sparse coefficient map.  Composition of additive rules is
  Laurent-polynomial multiplication over Z_m, so rule powers stay exact.

Table indices are big-endian: the window word ``(x_{-r}, ..., x_r)`` maps
to ``sum x_j * k^(position from the right)``, which matches the usual
Wolfram numbering for ``k=2, r=1``.

Padding a table or moving its window changes no global map, so every exact
reader takes one view of a table rule, ``_kernel``: its table cut to the
essential span.  The builders of new tables (``TableRule.from_wolfram``,
``table_from_additive``, ``compose_table`` and ``product_rule``) refuse a
table of more than ``MAX_TABLE_ENTRIES`` entries before building it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import cycle
from sys import byteorder


class RuleSpecError(ValueError):
    """Raised when a rule literal cannot be parsed."""


class NotSurjectiveError(ValueError):
    """Raised by operations that require a surjective rule."""


class ResourceCapError(RuntimeError):
    """Raised when an exact computation would exceed its resource cap."""


MAX_TABLE_ENTRIES = 2_000_000


def _table_size(alphabet_size: int, width: int) -> int:
    """``alphabet_size ** width``, refused before any table of that size is built."""
    # alphabet_size >= 2, so the bit-length test bounds width before the power is taken
    if width >= MAX_TABLE_ENTRIES.bit_length() or alphabet_size**width > MAX_TABLE_ENTRIES:
        raise ResourceCapError(
            f"a table of {alphabet_size}^{width} entries exceeds the cap of {MAX_TABLE_ENTRIES}"
        )
    return alphabet_size**width


def _image(table: tuple[int, ...], k: int, width: int, cells) -> tuple[int, ...]:
    """Outputs of a window rule on a finite letter sequence, one per full
    window: entry ``i`` is ``table`` at the big-endian index of
    ``cells[i : i + width]``."""
    top = k ** (width - 1)
    idx = 0
    # the first width - 1 lookups read incomplete windows and are dropped
    return tuple([table[idx := idx % top * k + a] for a in cells][width - 1 :])


def _validate_letters(letters, alphabet_size, what):
    """Raise ``ValueError`` naming the first entry of ``letters`` that is not
    an int in ``0 .. alphabet_size - 1``."""
    for a in letters:
        if not isinstance(a, int) or not 0 <= a < alphabet_size:
            raise ValueError(f"{what} contains letter {a!r} outside 0..{alphabet_size - 1}")


@dataclass(frozen=True)
class TableRule:
    """Total lookup table for a local rule.

    ``table[idx]`` is the output for the window word whose big-endian
    base-``alphabet_size`` value is ``idx``.  The window covers positions
    ``offset - radius .. offset + radius`` relative to the updated cell.
    """

    alphabet_size: int
    radius: int
    table: tuple[int, ...]
    offset: int = 0

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be at least 2")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        width = 2 * self.radius + 1
        expected = self.alphabet_size ** width
        if len(self.table) != expected:
            raise ValueError(
                f"table has {len(self.table)} entries, expected {expected} "
                f"for radius {self.radius} over {self.alphabet_size} letters"
            )
        _validate_letters(self.table, self.alphabet_size, "table")

    @property
    def width(self) -> int:
        return 2 * self.radius + 1

    @classmethod
    def from_wolfram(cls, code: int, alphabet_size: int = 2, radius: int = 1) -> "TableRule":
        """Build the rule numbered ``code`` in the Wolfram convention.

        Digit ``v`` (base ``alphabet_size``) of ``code`` is the output for
        the window word of big-endian value ``v``.
        """
        if alphabet_size < 2 or radius < 0:
            raise ValueError("need alphabet_size >= 2 and radius >= 0")
        entries = _table_size(alphabet_size, 2 * radius + 1)
        table, rest = [], code
        for _ in range(entries):
            rest, a = divmod(rest, alphabet_size)
            table.append(a)
        if code < 0 or rest:
            raise ValueError(f"rule code {code} outside 0..{alphabet_size**entries - 1}")
        return cls(alphabet_size, radius, tuple(table))

    def wolfram_code(self) -> int:
        if self.offset != 0:
            raise ValueError("only offset-0 rules have a Wolfram code")
        return sum(a * self.alphabet_size**v for v, a in enumerate(self.table))


def _table_rule(
    alphabet_size: int, radius: int, table: tuple[int, ...], offset: int = 0
) -> TableRule:
    """``TableRule(alphabet_size, radius, table, offset)`` without the checks.

    Only for tables whose every letter is read out of an already validated
    table (or reduced mod the alphabet size) and whose length matches the
    radius by construction."""
    rule = object.__new__(TableRule)
    # the frozen dataclass blocks attribute assignment, not its __dict__
    rule.__dict__.update(alphabet_size=alphabet_size, radius=radius, table=table, offset=offset)
    return rule


@dataclass(frozen=True)
class AdditiveRule:
    """Linear local rule ``f(x)_i = sum_j coeffs[j] * x_{i+j} mod modulus``.

    Coefficients are stored reduced mod ``modulus`` with zero entries
    dropped; ``radius`` is the declared window half-width and may exceed
    the support.
    """

    modulus: int
    radius: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        reduced = {}
        for j, c in self.coeffs.items():
            if abs(j) > self.radius:
                raise ValueError(f"coefficient index {j} exceeds declared radius {self.radius}")
            c %= self.modulus
            if c:
                reduced[j] = c
        object.__setattr__(self, "coeffs", dict(sorted(reduced.items())))

    # the generated __eq__ compares the stored (reduced, zero-free, sorted)
    # coefficients; the dict is unhashable, so the hash reads its items
    def __hash__(self):
        return hash((self.modulus, self.radius, tuple(sorted(self.coeffs.items()))))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def coefficient_list(self) -> list[int]:
        """Dense coefficient list over the declared window ``-r .. r``."""
        return [self.coeffs.get(j, 0) for j in range(-self.radius, self.radius + 1)]


def table_from_additive(rule: AdditiveRule) -> TableRule:
    """Expand an additive rule into an explicit table over Z_m."""
    m, r = rule.modulus, rule.radius
    _table_size(m, 2 * r + 1)
    # one level per window position, left to right (big-endian): every sum
    # so far is extended by each letter's term; reduced mod m at the end
    sums = [0]
    for c in rule.coefficient_list():
        terms = [c * a for a in range(m)]
        sums = [s + t for s in sums for t in terms]
    return _table_rule(m, r, tuple([s % m for s in sums]))


def compose_additive(f: AdditiveRule, g: AdditiveRule) -> AdditiveRule:
    """Rule of the composed map F o G (apply ``g`` first, then ``f``).

    The coefficient of index ``i`` is ``sum_{j+k=i} f_j * g_k mod m`` --
    the Laurent product of the two coefficient polynomials.
    """
    if f.modulus != g.modulus:
        raise ValueError("cannot compose additive rules with different moduli")
    m = f.modulus
    prod: dict[int, int] = {}
    for j, cj in f.coeffs.items():
        for k, ck in g.coeffs.items():
            prod[j + k] = (prod.get(j + k, 0) + cj * ck) % m
    return AdditiveRule(m, f.radius + g.radius, prod)


def power_additive(f: AdditiveRule, h: int) -> AdditiveRule:
    """``h``-fold composition of ``f`` with itself, via repeated squaring."""
    if h < 1:
        raise ValueError("power must be at least 1")
    acc = f
    for bit in bin(h)[3:]:
        acc = compose_additive(acc, acc)
        if bit == "1":
            acc = compose_additive(acc, f)
    return acc


def _is_essential(table, k: int, width: int, j: int) -> bool:
    """Whether a table (a tuple, or ``bytes``) over ``width`` positions
    depends on position ``j`` (0-based, left to right): some letter's
    outputs there differ from letter 0's."""
    n = len(table)
    stride = k ** (width - 1 - j)
    block = stride * k
    # index = base + a * stride + low: compare whole slices against letter
    # 0's, strided by block when there are few lows, else one block at a
    # time against letter 0's run repeated k - 1 times
    if stride <= n // block:
        for low in range(stride):
            ref = table[low::block]
            if any(table[a * stride + low :: block] != ref for a in range(1, k)):
                return True
        return False
    return any(
        table[base + stride : base + block] != table[base : base + stride] * (k - 1)
        for base in range(0, n, block)
    )


def _bijective_ends(table, k: int, width: int) -> tuple[bool, bool]:
    """Whether a table (a tuple, or ``bytes``) over ``width`` positions is
    bijective in its first and in its last position, for every assignment
    of the others."""
    n = len(table)
    # position 0 picks one of k leading blocks, and each column across them
    # must hold k letters; the last position runs through each k-entry run
    blocks = [table[b : b + n // k] for b in range(0, n, n // k)]
    left = all(len(set(col)) == k for col in zip(*blocks))
    right = all(len(set(table[b : b + k])) == k for b in range(0, n, k))
    return left, right


def _trim(table, k: int, width: int, lo: int) -> tuple:
    """A span table -- ``table`` over the ``width`` positions ``lo ..`` --
    cut to its essential span, as ``(table, width, lo)``, the table of the
    same type (tuple or ``bytes``).  A constant map keeps one inessential
    position, at 0."""
    # only the outermost essential positions matter: scan in from both ends
    first = next((j for j in range(width) if _is_essential(table, k, width, j)), None)
    if first is None:
        return table[:1] * k, 1, 0
    last = next(j for j in reversed(range(first, width)) if _is_essential(table, k, width, j))
    # the kept positions read with every stripped position at letter 0
    return table[: k ** (width - first) : k ** (width - 1 - last)], last - first + 1, lo + first


def _pad(table, k: int, left: int, right: int):
    """``table`` (a tuple, or ``bytes``) read over ``left`` more positions on
    the left and ``right`` more on the right, all of them ignored: each entry
    repeats for every word on the right ones, then the whole run for every
    word on the left ones."""
    if right:
        spread = k**right
        out = (bytearray if isinstance(table, bytes) else list)(table) * spread
        for s in range(spread):  # the s-th repeat of every entry
            out[s::spread] = table
        table = type(table)(out)
    return table * k**left


def _span_rule(k: int, table: tuple[int, ...], width: int, lo: int) -> TableRule:
    """The TableRule of a span table, padded by one inessential position on
    the right when ``width`` is even so the window is ``offset +- radius``."""
    radius = width // 2
    return _table_rule(k, radius, _pad(table, k, 0, 1 - width % 2), lo + radius)


def _kernel(rule: TableRule):
    """``(table, width, lo, image)``: the table of ``rule`` cut to its
    essential span, over the positions ``lo .. lo + width - 1`` (see
    ``_trim``), and the reader of its image.  A span table of at most 256
    entries is ``bytes``, read by ``_byte_image`` (every window of a cell
    run at once), a wider one a tuple, read by ``_image``; the cells and
    the image have the type of ``table``.  Built once per rule and kept in
    its ``__dict__``, beside the fields, which the frozen dataclass
    compares, hashes and prints without it."""
    kernel = rule.__dict__.get("_kernel")
    if kernel is None:
        k = rule.alphabet_size
        table, width, lo = _trim(rule.table, k, rule.width, rule.offset - rule.radius)
        if len(table) > 256:
            image = partial(_image, table, k, width)
        else:
            table = bytes(table)
            image = partial(_byte_image, table.ljust(256, b"\0"), k, range(8 * width - 8, -8, -8))
        kernel = rule.__dict__["_kernel"] = table, width, lo, image
    return kernel


def _byte_image(lut: bytes, k: int, shifts: range, cells: bytes) -> bytes:
    """The image of ``cells``, one byte per letter, under the rule over
    ``k`` letters whose table, padded to 256 entries, is ``lut``; ``shifts``
    runs ``8 (width - 1), ..., 8, 0``.

    Byte ``i`` of ``x + (x >> 8) k + (x >> 16) k^2 + ...`` (``width`` terms,
    ``x`` the cells as one big-endian integer) is the big-endian index of
    the window that ends at cell ``i``.  Every index is below 256, so no
    byte carries into the next, and ``translate`` looks them all up."""
    x = int.from_bytes(cells, "big")
    idx = 0
    for bits in shifts:  # the sum above, by Horner's rule
        idx = idx * k + (x >> bits)
    # the first width - 1 bytes index incomplete windows and are dropped
    return idx.to_bytes(len(cells), "big")[len(shifts) - 1 :].translate(lut)


def canonicalize_table(rule: TableRule) -> TableRule:
    """Minimal-window form of a table rule.

    Positions the table provably does not depend on are stripped; when the
    essential span has even width it is padded by one inessential position
    on the right so the window stays of the form ``offset +- radius``.
    Two table rules induce the same global map iff their canonical forms
    are identical.
    """
    table, width, lo, _ = _kernel(rule)
    return _span_rule(rule.alphabet_size, tuple(table), width, lo)


def _window_images(table, k: int, width: int, length: int) -> list[int]:
    """Entry ``j`` is the big-endian index of the image of word ``j`` of
    ``length >= width`` cells, one output letter per full window."""
    # It starts as the table itself (words of one window) and grows one cell
    # per level: idx[j] = idx[j // k] * k + table[j % k**width], where the
    # second term runs through the k-sized blocks of the table cyclically.
    blocks = [table[b : b + k] for b in range(0, len(table), k)]
    idx = list(table)
    for _ in range(length - width):
        idx = [i + a for i, block in zip((i * k for i in idx), cycle(blocks)) for a in block]
    return idx


def _cyclic_images(rule: TableRule, n: int) -> list[int]:
    """Entry ``j`` is the index of the image of the cyclic word ``j`` of
    length ``n``, built for all ``k**n`` words at once: column by column
    in byte lanes when the span table is ``bytes``, else level by level."""
    k = rule.alphabet_size
    table, w, lo, _ = _kernel(rule)
    states = k**n
    if isinstance(table, bytes):
        # One big int per column of all words, one byte per word; every int
        # here reads its bytes in the host's byte order, so byte j is word
        # j's.  Image cell c reads the digit columns (c + lo + i) % n, i < w,
        # which folds in the wrap-around and the rotation by lo; their Horner
        # sum is the window index column (bytes below k**w <= 256), and
        # translate gives the cell's image letters.  g image cells share a
        # byte lane (k**g <= 256); the groups are widened to 4-byte lanes and
        # summed there, each lane a whole index (k**n <= MAX_TABLE_ENTRIES <
        # 2**32), so the lanes are the host's 4-byte unsigned ints.
        def column(c: int) -> int:
            # digit c of every word: each letter k**(n - 1 - c) times, the
            # run repeated k**c times
            c %= n
            run = b"".join(bytes((a,)) * k ** (n - 1 - c) for a in range(k))
            return int.from_bytes(run * k**c, byteorder)

        lut = table.ljust(256, b"\0")
        g = 1
        while k ** (g + 1) <= 256:
            g += 1
        window = [column(lo + i) for i in range(w - 1)]
        wide = bytearray(4 * states)
        low = 0 if byteorder == "little" else 3  # the low byte of a lane
        lanes = packed = 0
        for c in range(n):
            window.append(column(c + lo + w - 1))
            idx = 0
            for col in window:
                idx = idx * k + col
            del window[0]
            lanes = lanes * k + int.from_bytes(idx.to_bytes(states, byteorder).translate(lut), byteorder)
            if c % g == g - 1 or c == n - 1:
                wide[low::4] = lanes.to_bytes(states, byteorder)
                packed = packed * k ** (c % g + 1) + int.from_bytes(wide, byteorder)
                lanes = 0
        return memoryview(packed.to_bytes(4 * states, byteorder)).cast("I").tolist()
    # G, the image with each window starting at its own cell.  Cells
    # 0 .. n - w read the word linearly; each later cell wraps around and
    # reads its window out of X, the word repeated reps times, which is
    # at least n + w - 1 cells long (also when n < w).
    succ = _window_images(table, k, w, n) if n >= w else [0] * states
    reps = -(-(n + w - 1) // n)
    cells = reps * n
    repunit = (k**cells - 1) // (k**n - 1)  # X = word index * repunit
    top = k**w
    xs = range(0, states * repunit, repunit)
    for i in range(max(0, n - w + 1), n):
        d = k ** (cells - w - i)
        succ = [g * k + table[x // d % top] for g, x in zip(succ, xs)]
    # the map commutes with rotation: cell c of the image is cell c + lo
    # of G, so rotate every index left by that much
    s = lo % n
    if s:
        low, high = k ** (n - s), k**s
        succ = [g % low * high + g // low for g in succ]
    return succ


def _compose(k: int, f, f_w: int, g, g_w: int):
    """Table of F o G over ``g_w + f_w - 1`` positions, from the tables of
    ``f`` over ``f_w`` positions and ``g`` over ``g_w``: the f-image of the
    g-images of the windows.  Both tables are tuples, or both ``bytes``
    (then ``f`` has at most 256 entries), and so is the result."""
    if isinstance(f, bytes):
        return _compose_bytes(k, f, f_w, g)
    return tuple(map(f.__getitem__, _window_images(g, k, g_w, g_w + f_w - 1)))


def _compose_bytes(k: int, f: bytes, f_w: int, g: bytes) -> bytes:
    """``_compose`` on ``bytes`` tables, ``f`` of at most 256 entries.

    Entry ``j`` of the result is f at the index ``sum_i g_i(j) k^(f_w-1-i)``,
    ``g_i(j)`` being g on window ``i`` of word ``j``: g padded by ``i``
    ignored positions on its left and ``f_w - 1 - i`` on its right.  All
    f_w padded copies are summed at once as big-endian integers by Horner's
    rule; every index is below ``k**f_w <= 256``, so no byte carries into
    the next, and ``translate`` looks them all up."""
    idx = 0
    for i in range(f_w):
        idx = idx * k + int.from_bytes(_pad(g, k, i, f_w - 1 - i), "big")
    return idx.to_bytes(len(g) * k ** (f_w - 1), "big").translate(f.ljust(256, b"\0"))


def compose_table(f: TableRule, g: TableRule) -> TableRule:
    """Table of the composed map F o G (apply ``g`` first)."""
    if f.alphabet_size != g.alphabet_size:
        raise ValueError("cannot compose rules over different alphabets")
    k = f.alphabet_size
    radius = f.radius + g.radius
    _table_size(k, 2 * radius + 1)
    table = _compose(k, f.table, f.width, g.table, g.width)
    return _table_rule(k, radius, table, f.offset + g.offset)


def product_rule(f: TableRule, g: TableRule) -> TableRule:
    """Table of the product map F x G over the fused alphabet ``a*kg + b``
    (``a`` a letter of ``f``, ``b`` one of ``g``).

    Both factors are read over the union of their essential spans (see
    ``_kernel``): the product depends on a position iff F or G does."""
    kf, kg = f.alphabet_size, g.alphabet_size
    k = kf * kg
    ft, f_w, f_lo, _ = _kernel(f)
    gt, g_w, g_lo, _ = _kernel(g)
    lo, end = min(f_lo, g_lo), max(f_lo + f_w, g_lo + g_w)
    width = end - lo
    _table_size(k, width)
    ft = _pad(ft, kf, f_lo - lo, end - f_lo - f_w)
    gt = _pad(gt, kg, g_lo - lo, end - g_lo - g_w)
    # one level per window position, left to right (big-endian): the fused
    # letter a*kg + b extends every f-index by a and every g-index by b
    fi, gi = [0], [0]
    f_letters, g_letters = [d // kg for d in range(k)], [d % kg for d in range(k)]
    for _ in range(width):
        fi = [i * kf + a for i in fi for a in f_letters]
        gi = [i * kg + b for i in gi for b in g_letters]
    return _span_rule(k, tuple([ft[i] * kg + gt[j] for i, j in zip(fi, gi)]), width, lo)


_ADDITIVE_RE = re.compile(r"^m=(\d+);r=(\d+);c=(-?\d+(?:,-?\d+)*)$")


def parse_rule_spec(text: str) -> TableRule | AdditiveRule:
    """Parse a rule literal.

    Grammar::

        additive:m=<int>;r=<int>;c=<c_-r>,...,<c_r>
        wolfram:<code>[;k=<alphabet>][;r=<radius>]
    """
    if text.startswith("additive:"):
        body = text[len("additive:") :]
        mm = _ADDITIVE_RE.match(body)
        if not mm:
            raise RuleSpecError(
                f"malformed additive rule spec at position {len('additive:')}: {body!r}"
            )
        m, r = int(mm.group(1)), int(mm.group(2))
        if m < 2:
            raise RuleSpecError(f"modulus {m} must be at least 2")
        coeffs = [int(c) for c in mm.group(3).split(",")]
        if len(coeffs) != 2 * r + 1:
            raise RuleSpecError(
                f"expected {2 * r + 1} coefficients for radius {r}, got {len(coeffs)} "
                f"(position {text.index('c=') + 2})"
            )
        return AdditiveRule(m, r, {j - r: c for j, c in enumerate(coeffs)})
    if text.startswith("wolfram:"):
        body = text[len("wolfram:") :]
        parts = body.split(";")
        if not parts[0].isdigit():
            raise RuleSpecError(
                f"malformed wolfram code at position {len('wolfram:')}: {parts[0]!r}"
            )
        code = int(parts[0])
        k, r = 2, 1
        pos = len("wolfram:") + len(parts[0])
        for part in parts[1:]:
            pos += 1
            if part.startswith("k=") and part[2:].isdigit():
                k = int(part[2:])
            elif part.startswith("r=") and part[2:].isdigit():
                r = int(part[2:])
            else:
                raise RuleSpecError(f"malformed wolfram option at position {pos}: {part!r}")
            pos += len(part)
        try:
            return TableRule.from_wolfram(code, k, r)
        except ValueError as exc:
            raise RuleSpecError(str(exc)) from None
    raise RuleSpecError(
        "rule spec must start with 'additive:' or 'wolfram:' (position 0)"
    )


def render_rule_spec(rule: TableRule | AdditiveRule) -> str:
    """Canonical literal for a rule (inverse of ``parse_rule_spec``)."""
    if isinstance(rule, AdditiveRule):
        c = ",".join(str(v) for v in rule.coefficient_list())
        return f"additive:m={rule.modulus};r={rule.radius};c={c}"
    return f"wolfram:{rule.wolfram_code()};k={rule.alphabet_size};r={rule.radius}"
