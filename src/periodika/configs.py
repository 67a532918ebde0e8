"""Exact finite representations of bi-infinite configurations.

Two families of configurations admit exact arithmetic:

* ``CyclicConfig`` -- spatially periodic: ``x_i = word[(phase + i) mod n]``.
* ``EpConfig`` -- eventually periodic in both directions:
  ``^inf(left) . mid . (right)^inf`` where the left tail's last letter sits
  at ``start - 1`` and the mid begins at ``start``.

Constructors canonicalise: cyclic words are reduced to their primitive
root, rotated so that the letter at coordinate 0 is ``word[0]`` and phase
is 0; eventually periodic tails are reduced to primitive roots, border
letters that match a tail are absorbed into it, and configurations with
empty mid are anchored (spatially periodic ones at coordinate 0,
two-regime ones at the leftmost possible boundary).  Equality of the
frozen dataclasses therefore decides equality of the configurations they
denote, within one class; across the two, the canonical states of
``_state`` are equal iff the configurations are.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .rules import _validate_letters


class ConfigSpecError(ValueError):
    """Raised when a configuration literal cannot be parsed."""


def primitive_root(word: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest ``u`` with ``word = u * (len(word) // len(u))``, as a slice
    of ``word``; a word of fewer than two letters is returned as it is.

    The length of ``u`` is the least ``p >= 1`` at which ``word`` occurs in
    ``word + word`` (Knuth, Morris & Pratt, SIAM J. Comput. 6, 1977), found
    by one C-level substring search over the word as ``bytes``: the word
    itself, or ``bytes(word)`` for a sequence of letters below 256.  A word
    that ``bytes`` refuses (a letter past 255, a ``str``) tries each divisor
    of its length instead."""
    n = len(word)
    if n < 2:
        return word
    try:
        text = word if isinstance(word, bytes) else bytes(word)
    except (ValueError, TypeError):
        periods = (d for d in range(1, n + 1) if n % d == 0 and word[d:] == word[: n - d])
        return word[: next(periods, n)]
    return word[: (text + text).find(text, 1)]


def _canonical_ep(left, mid, right, start: int):
    """Canonical ``(left, mid, right, start)`` of the eventually periodic
    configuration ``^inf(left) . mid . (right)^inf`` with the mid at
    ``start``; all three are sequences of one type (tuples of ints, or the
    ``bytes`` that orbit walks step) and both tails are nonempty."""
    return _absorb(primitive_root(left), mid, primitive_root(right), start)


def _absorb(left, mid, right, start: int):
    """``_canonical_ep`` of a presentation whose tails are already
    primitive roots: the border letters that continue a tail move into it,
    and an empty mid is anchored."""
    # Absorb border letters that already match the adjacent tail: count
    # each matching run by index, then cut the mid and rotate the tail once.
    if mid and mid[0] == left[0]:
        n, i = len(left), 1
        while i < len(mid) and mid[i] == left[i % n]:
            i += 1
        r = i % n
        left = left[r:] + left[:r]
        mid = mid[i:]
        start += i
    if mid and mid[-1] == right[-1]:
        n, j = len(right), 1
        while j < len(mid) and mid[-1 - j] == right[-1 - j % n]:
            j += 1
        r = j % n
        right = right[-r:] + right[:-r]
        mid = mid[:-j]
    if not mid:
        nl, nr = len(left), len(right)
        if nl == nr and left == right:
            # Spatially periodic: anchor the root at coordinate 0.
            phase = -start % nl
            left = right = left[phase:] + left[:phase]
            start = 0
        elif left[-1] == right[-1]:
            # Two-regime configuration: slide the boundary leftmost, past
            # the run on which both tails agree leftward.
            guard, t = lcm(nl, nr), 1
            while left[-1 - t % nl] == right[-1 - t % nr]:
                t += 1
                if t > guard:  # pragma: no cover - primitivity rules this out
                    raise AssertionError("boundary slide failed to terminate")
            rl, rr = t % nl, t % nr
            left = left[-rl:] + left[:-rl]
            right = right[-rr:] + right[:-rr]
            start -= t
    return left, mid, right, start


@dataclass(frozen=True)
class CyclicConfig:
    """Spatially periodic configuration ``x_i = word[(phase + i) mod n]``.

    After construction ``word`` is the primitive root read off from
    coordinate 0 and ``phase`` is 0.
    """

    alphabet_size: int
    word: tuple[int, ...]
    phase: int = 0

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be at least 2")
        word = tuple(self.word)
        if not word:
            raise ValueError("cyclic word must be nonempty")
        _validate_letters(word, self.alphabet_size, "word")
        root = primitive_root(word)
        object.__setattr__(self, "word", _absorb(root, (), root, -self.phase)[0])
        object.__setattr__(self, "phase", 0)


@dataclass(frozen=True)
class EpConfig:
    """Eventually periodic configuration ``^inf(left) . mid . (right)^inf``.

    ``mid`` occupies coordinates ``start .. start + len(mid) - 1``; the
    left tail repeats leftward from ``start - 1`` and the right tail
    repeats rightward from ``start + len(mid)``.
    """

    alphabet_size: int
    left: tuple[int, ...]
    mid: tuple[int, ...]
    right: tuple[int, ...]
    start: int = 0

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be at least 2")
        left, mid, right = tuple(self.left), tuple(self.mid), tuple(self.right)
        if not left or not right:
            raise ValueError("tail words must be nonempty")
        for word, what in ((left, "left"), (mid, "mid"), (right, "right")):
            _validate_letters(word, self.alphabet_size, what)
        left, mid, right, start = _canonical_ep(left, mid, right, self.start)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "start", start)

    @property
    def end(self) -> int:
        """First coordinate covered by the right tail."""
        return self.start + len(self.mid)


Config = CyclicConfig | EpConfig


def _cyclic_root(alphabet_size: int, root: tuple[int, ...]) -> CyclicConfig:
    """``CyclicConfig(alphabet_size, root)`` without the checks, taken as it
    is: only for a primitive tuple whose letters are known to lie in the
    alphabet."""
    x = object.__new__(CyclicConfig)
    # the frozen dataclass blocks attribute assignment, not its __dict__
    x.__dict__.update(alphabet_size=alphabet_size, word=root, phase=0)
    return x


def _ep(alphabet_size: int, left, mid, right, start: int) -> EpConfig:
    """``EpConfig(alphabet_size, left, mid, right, start)`` without the
    checks and without canonicalising: only for a canonical state (see
    ``_canonical_ep``) of tuples of letters known to lie in the alphabet."""
    x = object.__new__(EpConfig)
    x.__dict__.update(alphabet_size=alphabet_size, left=left, mid=mid, right=right, start=start)
    return x


def _state(x: Config):
    """Canonical ``(left, mid, right, start)`` of ``x``; the cyclic word ``w``
    is ``(w, (), w, 0)``, its canonical form as an ``EpConfig``."""
    if isinstance(x, CyclicConfig):
        return x.word, (), x.word, 0
    return x.left, x.mid, x.right, x.start


def _repeat(word, phase: int, n: int):
    """``n`` letters of ``word`` repeated, from ``word[phase % len(word)]``,
    in the type of ``word``; empty when ``n <= 0``."""
    phase %= len(word)
    return (word * -(-(phase + n) // len(word)))[phase : phase + n]


def _cells(left, mid, right, start: int, lo: int, hi: int) -> list[int]:
    """Letters at coordinates ``lo .. hi - 1`` of the state ``(left, mid,
    right, start)``; empty when ``hi <= lo``.  A list of ints, also for
    ``bytes`` words, so that a long mid is copied once."""
    if not mid and left == right:
        return list(_repeat(left, lo - start, hi - lo))
    end = start + len(mid)
    if start <= lo and hi <= end:
        return list(mid[lo - start : hi - start])
    left_hi, right_lo = min(hi, start), max(lo, end)
    # both mid bounds are clamped at 0: a negative stop would count from
    # the end of the mid
    return [
        *_repeat(left, lo - start, left_hi - lo),
        *mid[max(lo - start, 0) : max(min(hi, end) - start, 0)],
        *_repeat(right, right_lo - end, hi - right_lo),
    ]


def shift(x: Config, n: int = 1) -> Config:
    """``n``-fold shift: the result ``y`` satisfies ``y_i = x_{i+n}``."""
    if isinstance(x, CyclicConfig):
        return CyclicConfig(x.alphabet_size, x.word, n % len(x.word))
    return EpConfig(x.alphabet_size, x.left, x.mid, x.right, x.start - n)


def is_spatially_periodic(x: Config) -> bool:
    """Whether some nonzero shift fixes the configuration."""
    if isinstance(x, CyclicConfig):
        return True
    return not x.mid and x.left == x.right


def _join(components, fn, alphabet_size: int) -> Config:
    """Combine configurations letterwise with ``fn(letters...)``: one
    component is a letter map (a residue split), several a CRT join or a
    product fuse.  The result is cyclic when every component is, otherwise
    eventually periodic, and is built by the public constructors, so the
    combined letters are validated."""
    components = tuple(components)
    if not components:
        raise ValueError("need at least one component")
    states = [_state(c) for c in components]

    def joint(lo, hi):
        return tuple(fn(*letters) for letters in zip(*(_cells(*st, lo, hi) for st in states)))

    left_period = lcm(*(len(left) for left, _, _, _ in states))
    right_period = lcm(*(len(right) for _, _, right, _ in states))
    if all(isinstance(c, CyclicConfig) for c in components):
        return CyclicConfig(alphabet_size, joint(0, left_period), 0)
    eps = [c for c in components if isinstance(c, EpConfig)]
    start, end = min(c.start for c in eps), max(c.end for c in eps)
    left, mid, right = joint(start - left_period, start), joint(start, end), joint(end, end + right_period)
    return EpConfig(alphabet_size, left, mid, right, start)


def _word_to_text(word, alphabet_size: int) -> str:
    """One digit per letter, or ``.``-separated numbers past ten letters."""
    return ("." if alphabet_size > 10 else "").join(str(a) for a in word)


def _text_to_word(text: str, alphabet_size: int, what: str) -> tuple[int, ...]:
    if alphabet_size > 10:
        tokens = text.split(".") if text else []
    else:
        tokens = list(text)
    out = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()) or int(tok) >= alphabet_size:
            raise ConfigSpecError(f"bad letter {tok!r} in {what} for alphabet {alphabet_size}")
        out.append(int(tok))
    return tuple(out)


def render_config(x: Config) -> str:
    """Canonical literal for a configuration."""
    k = x.alphabet_size
    if isinstance(x, CyclicConfig):
        return f"cyclic:{_word_to_text(x.word, k)}@{x.phase}"
    return (
        f"ep:{_word_to_text(x.left, k)}|{_word_to_text(x.mid, k)}|{_word_to_text(x.right, k)}"
        f"@{x.start}"
    )


def parse_config(text: str, alphabet_size: int) -> Config:
    """Parse ``cyclic:<word>[@phase]`` or ``ep:<left>|<mid>|<right>[@start]``.

    Words are one digit per letter; over more than ten letters they are
    ``.``-separated numbers instead (``cyclic:10.11.1@0``)."""
    if text.startswith("cyclic:"):
        body = text[len("cyclic:") :]
        phase = 0
        if "@" in body:
            body, _, tail = body.partition("@")
            try:
                phase = int(tail)
            except ValueError:
                raise ConfigSpecError(f"bad phase {tail!r}") from None
        word = _text_to_word(body, alphabet_size, "cyclic word")
        if not word:
            raise ConfigSpecError("cyclic word must be nonempty")
        return CyclicConfig(alphabet_size, word, phase)
    if text.startswith("ep:"):
        body = text[len("ep:") :]
        start = 0
        if "@" in body:
            body, _, tail = body.partition("@")
            try:
                start = int(tail)
            except ValueError:
                raise ConfigSpecError(f"bad start {tail!r}") from None
        parts = body.split("|")
        if len(parts) != 3:
            raise ConfigSpecError("ep literal needs exactly three '|'-separated fields")
        left = _text_to_word(parts[0], alphabet_size, "left tail")
        mid = _text_to_word(parts[1], alphabet_size, "mid")
        right = _text_to_word(parts[2], alphabet_size, "right tail")
        if not left or not right:
            raise ConfigSpecError("tail words must be nonempty")
        return EpConfig(alphabet_size, left, mid, right, start)
    raise ConfigSpecError("config literal must start with 'cyclic:' or 'ep:'")
