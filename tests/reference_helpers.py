"""Reference readings of rules and configurations for the tests, written
from the definitions and independent of the package's table and
configuration kernels: window words encoded letter by letter, tables
padded word by word, essential positions found entry by entry, primitive
roots found divisor by divisor, eventually periodic configurations
canonicalised one border letter at a time and stepped by imaging each
padded row whole, letters read off a configuration's presentation,
configurations compared letter by letter, and preimages traced cell by
cell."""

from __future__ import annotations

from functools import cache
from itertools import product
from math import lcm

from periodika.configs import CyclicConfig
from periodika.rules import TableRule


def encode_word(word, k: int) -> int:
    """Big-endian base-``k`` value of a letter sequence."""
    idx = 0
    for a in word:
        idx = idx * k + a
    return idx


def window(rule: TableRule) -> tuple[int, int]:
    """Leftmost and rightmost position, relative to the updated cell, of the
    window ``rule`` declares."""
    return rule.offset - rule.radius, rule.offset + rule.radius


def identity_rule(k: int) -> TableRule:
    return TableRule(k, 0, tuple(range(k)))


def pad_table(rule: TableRule, radius: int, offset: int = 0) -> TableRule:
    """``rule`` over the window ``offset +- radius``, which must contain its
    own: each word of the new window looks up the letters under the old."""
    k = rule.alphabet_size
    (old_lo, old_hi), lo = window(rule), offset - radius
    if lo > old_lo or offset + radius < old_hi:
        raise ValueError("padded window must contain the original window")
    kept = range(old_lo - lo, old_hi - lo + 1)
    table = tuple(
        rule.table[encode_word([w[j] for j in kept], k)]
        for w in product(range(k), repeat=2 * radius + 1)
    )
    return TableRule(k, radius, table, offset)


def mirror_rule(rule: TableRule) -> TableRule:
    """The rule conjugated by the mirror x_i -> x_-i: each window word
    looks up its reverse, around the mirrored offset."""
    k = rule.alphabet_size
    table = tuple(
        rule.table[encode_word(w[::-1], k)] for w in product(range(k), repeat=rule.width)
    )
    return TableRule(k, rule.radius, table, -rule.offset)


def rotate_letters(rule: TableRule) -> TableRule:
    """The rule conjugated by the letter rotation a -> a + 1 mod k: each
    window word looks up its letters rotated back, and its output moves on."""
    k = rule.alphabet_size
    table = tuple(
        (rule.table[encode_word([(a - 1) % k for a in w], k)] + 1) % k
        for w in product(range(k), repeat=rule.width)
    )
    return TableRule(k, rule.radius, table, rule.offset)


def essential_positions(table, k: int, width: int) -> list[int]:
    """The positions (0-based, left to right) of a table over ``width``
    positions and ``k`` letters on which some output depends: position j
    is essential iff some entry differs from the entry of its word with
    letter 0 at j."""
    out = []
    for j in range(width):
        stride = k ** (width - 1 - j)
        # i // stride % k is the letter at j of word i
        if any(table[i] != table[i - i // stride % k * stride] for i in range(len(table))):
            out.append(j)
    return out


def essential_span(rule: TableRule) -> tuple[int, int] | None:
    """Exact dependence span relative to the cell, or None for a constant
    rule."""
    essential = essential_positions(rule.table, rule.alphabet_size, rule.width)
    if not essential:
        return None
    lo = window(rule)[0]
    return lo + essential[0], lo + essential[-1]


def divisor_scan_root(word):
    """Primitive root of ``word`` by trying each divisor ``d`` of its length
    in turn: the first ``d`` at which the word equals itself shifted by
    ``d`` gives the root ``word[:d]``."""
    n = len(word)
    periods = (d for d in range(1, n + 1) if n % d == 0 and word[d:] == word[: n - d])
    return word[: next(periods, n)]


def canonical_ep(left, mid, right, start: int):
    """Canonical ``(left, mid, right, start)`` of ``^inf(left) . mid .
    (right)^inf`` with the mid at ``start``, one letter at a time: each
    border letter that continues its tail is moved into it, then an empty
    mid between two different tails slides leftward while both tails end
    alike.  Words are tuples or ``bytes``, both tails nonempty; quadratic
    in a long absorbed run or slide."""
    left = divisor_scan_root(left)
    right = divisor_scan_root(right)
    while mid and mid[0] == left[0]:
        left = left[1:] + left[:1]
        mid = mid[1:]
        start += 1
    while mid and mid[-1] == right[-1]:
        right = right[-1:] + right[:-1]
        mid = mid[:-1]
    if not mid:
        if len(left) == len(right) and left == right:
            phase = -start % len(left)
            left = right = left[phase:] + left[:phase]
            start = 0
        else:
            guard = lcm(len(left), len(right))
            while left[-1] == right[-1]:
                left = left[-1:] + left[:-1]
                right = right[-1:] + right[:-1]
                start -= 1
                guard -= 1
                if guard < 0:
                    raise AssertionError("boundary slide failed to terminate")
    return left, mid, right, start


def ep_step(kernel, left, mid, right, start: int):
    """Canonical state of the image of ``^inf(left) . mid . (right)^inf``
    with the mid at ``start``, under the rule whose kernel is ``kernel``
    (see ``rules._kernel``), in the type of the words: every step pads both
    tails and images the whole row, then roots the image's tails and
    canonicalises with ``canonical_ep``.  The image reader is the kernel's
    own: this reference pins what a step does around it, and the window
    kernel has references of its own."""
    _, width, lo, image = kernel
    d, ell, rho = width - 1, len(left), len(right)
    # the d + ell cells left of the mid and the d + rho cells right of it;
    # cell c reads cells c + lo .. c + lo + d, so the image starts at cell
    # start - d - ell - lo
    pad_l = (left * (d // ell + 2))[-d - ell :]
    pad_r = (right * (d // rho + 2))[: d + rho]
    img = image(pad_l + mid + pad_r)
    return canonical_ep(img[:ell], img[ell : len(img) - rho], img[len(img) - rho :], start - d - lo)


def value_at(x, i: int) -> int:
    """Letter at coordinate ``i`` of a configuration."""
    if isinstance(x, CyclicConfig):
        return x.word[i % len(x.word)]
    if i < x.start:
        return x.left[(i - x.start) % len(x.left)]
    if i < x.end:
        return x.mid[i - x.start]
    return x.right[(i - x.end) % len(x.right)]


def _extent(x):
    """Start and end of the mid (0, 0 for a cyclic word), and the tail lengths."""
    if isinstance(x, CyclicConfig):
        return 0, 0, (len(x.word),)
    return x.start, x.end, (len(x.left), len(x.right))


def equals(x, y) -> bool:
    """Whether two configurations over one alphabet agree at every
    coordinate.  Left of both mids and right of both, both are periodic
    with periods dividing ``p``, the lcm of all tail lengths, so ``p``
    coordinates more on each side decide the rest.  Equal fields denote
    equal configurations, whether or not they are canonical."""
    if x.alphabet_size != y.alphabet_size:
        raise ValueError("alphabet mismatch")
    if x == y:
        return True
    (xs, xe, xp), (ys, ye, yp) = _extent(x), _extent(y)
    p = lcm(*xp, *yp)
    return all(value_at(x, i) == value_at(y, i) for i in range(min(xs, ys) - p, max(xe, ye) + p))


def preimage_test(rule: TableRule):
    """``has_preimage(a, mid, b)``: whether ``^inf(a) . mid . (b)^inf`` is an
    image of ``rule``, by a dynamic program along the word ``a^L mid b^L``.

    With d = width - 1 of the declared window, the program keeps, cell by
    cell, the set of d-letter words that a preimage of the word read so far
    can end on, starting from all of them; the word has a preimage iff the
    set never empties.  The sets after each further period of a tail can
    only shrink, so after L = k^d + 1 periods they have settled on both
    sides, and the finite word has a preimage iff the configuration has.
    The sets after ``a^L``, each set's successor per letter and the
    verdicts of the sets before ``b^L`` are kept per call."""
    k, d = rule.alphabet_size, rule.width - 1
    reps = k**d + 1
    succ: dict = {}  # (d-letter word, output) -> the d-letter words it enters
    for w in product(range(k), repeat=d + 1):
        succ.setdefault((w[:-1], rule.table[encode_word(w, k)]), []).append(w[1:])

    @cache
    def read(words, y):
        return frozenset(v for u in words for v in succ.get((u, y), ()))

    def run(words, letters):
        for y in letters:
            words = read(words, y)
        return words

    @cache
    def left(a):
        return run(frozenset(product(range(k), repeat=d)), a * reps)

    @cache
    def right(words, b):
        return bool(run(words, b * reps))

    return lambda a, mid, b: right(run(left(a), mid), b)
