"""Ground types for two-colourings of the three-letter cube.

Words are length-n strings over the alphabet {1, 2, 3}.  A combinatorial
line is the three-point set obtained by fixing the letters outside an
"active" coordinate set and letting every active coordinate carry the
same moving letter 1, 2, 3.  The interesting lines here are the ones
whose active set is a single contiguous interval (or a union of at most
m intervals); this module provides the bookkeeping everything else
builds on: ranking, line enumeration, colouring storage, the symmetry
group that respects interval lines, and the on-disk colouring format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

ALPHABET = (1, 2, 3)


@dataclass(frozen=True)
class Word:
    """An element of the cube: a tuple of letters from {1, 2, 3}."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("a word needs at least one letter")
        for v in self.letters:
            if v not in (1, 2, 3):
                raise ValueError(f"letter {v!r} outside alphabet {{1,2,3}}")

    @classmethod
    def from_text(cls, text: str) -> "Word":
        if not text.isascii():  # int() reads the digits of other scripts too
            raise ValueError(f"bad word text {text!r}")
        try:
            return cls(tuple(int(ch) for ch in text))
        except ValueError as exc:
            raise ValueError(f"bad word text {text!r}") from exc

    @property
    def n(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(str(v) for v in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i: int) -> int:
        """1-indexed coordinate access, matching the maths convention."""
        if not 1 <= i <= len(self.letters):
            raise IndexError(f"coordinate {i} outside 1..{len(self.letters)}")
        return self.letters[i - 1]


def rank(word: Word) -> int:
    """Base-3 rank of a word, coordinate 1 most significant, starting at 0."""
    r = 0
    for v in word.letters:
        r = r * 3 + (v - 1)
    return r


def unrank(index: int, n: int) -> Word:
    """Inverse of :func:`rank` for the cube of dimension n."""
    if not 0 <= index < 3**n:
        raise ValueError(f"rank {index} outside 0..{3 ** n - 1} for n={n}")
    digits = []
    for _ in range(n):
        index, d = divmod(index, 3)
        digits.append(d + 1)
    return Word(tuple(reversed(digits)))


def _check_line_parts(n: int, active: tuple[int, ...], fixed: tuple[tuple[int, int], ...]) -> None:
    if n < 1:
        raise ValueError("line needs dimension n >= 1")
    if not active:
        raise ValueError("line needs a nonempty active set")
    if list(active) != sorted(set(active)):
        raise ValueError("active coordinates must be strictly increasing")
    if active[0] < 1 or active[-1] > n:
        raise ValueError(f"active coordinates {active} outside 1..{n}")
    fixed_pos = [p for p, _ in fixed]
    if list(fixed_pos) != sorted(set(fixed_pos)):
        raise ValueError("fixed coordinates must be strictly increasing")
    for p, v in fixed:
        if not 1 <= p <= n:
            raise ValueError(f"fixed coordinate {p} outside 1..{n}")
        if v not in (1, 2, 3):
            raise ValueError(f"fixed letter {v} outside alphabet")
    if set(fixed_pos) & set(active):
        raise ValueError("active and fixed coordinates overlap")
    if set(fixed_pos) | set(active) != set(range(1, n + 1)):
        raise ValueError("active and fixed coordinates must cover 1..n")


@dataclass(frozen=True)
class Line:
    """A combinatorial line: active coordinates move together, the rest are pinned.

    ``active`` is the sorted tuple of moving coordinates, ``fixed`` the
    sorted tuple of (coordinate, letter) pairs covering the complement.
    """

    n: int
    active: tuple[int, ...]
    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_line_parts(self.n, self.active, self.fixed)

    def word_at(self, v: int) -> Word:
        """The line's point with moving letter v."""
        if v not in (1, 2, 3):
            raise ValueError(f"moving letter {v} outside alphabet")
        letters = [v] * self.n
        for p, x in self.fixed:
            letters[p - 1] = x
        return Word(tuple(letters))

    def points(self) -> tuple[Word, Word, Word]:
        return (self.word_at(1), self.word_at(2), self.word_at(3))

    @property
    def lo(self) -> int:
        """First active coordinate; lo..hi is the span of the active set."""
        return self.active[0]

    @property
    def hi(self) -> int:
        return self.active[-1]


def runs_of(coords: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Maximal runs of a nonempty increasing coordinate tuple, as (lo, hi) pairs."""
    runs = []
    lo = prev = coords[0]
    for i in coords[1:]:
        if i == prev + 1:
            prev = i
            continue
        runs.append((lo, prev))
        lo = prev = i
    runs.append((lo, prev))
    return tuple(runs)


def line_names(
    active: tuple[int, ...], pins: Iterable[tuple[int, Iterable[int]]], frame: tuple[str, str] = ("", "")
) -> list[str]:
    """Names "line 1..2+4..4 fixed=3:1,5:2" of lines with one active set, each framed as
    frame[0] + name + frame[1]: one for each choice of a letter at every pinned (position,
    letters), the last position fastest, which with all of ALPHABET at every pinned position
    is the row order of :func:`m_interval_line_members`."""
    texts = [[f"{p}:{v}," for v in letters] for p, letters in pins] or [["-,"]]
    # The head joins the first pin's texts and the frame's end replaces the last one's comma,
    # so the product below makes each name with one concatenation per pinned position.
    head = frame[0] + "line " + "+".join(f"{lo}..{hi}" for lo, hi in runs_of(active)) + " fixed="
    texts[0] = [head + t for t in texts[0]]
    texts[-1] = [t[:-1] + frame[1] for t in texts[-1]]
    names = texts[0]
    for column in texts[1:]:
        names = [name + t for name in names for t in column]
    return names


def interval_line(n: int, lo: int, hi: int, fixed: dict[int, int] | None = None) -> Line:
    """Build the interval line with active set lo..hi and the given fixed letters."""
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"interval {lo}..{hi} outside 1..{n}")
    fixed = dict(fixed or {})
    pairs = tuple(sorted(fixed.items()))
    active = tuple(range(lo, hi + 1))
    return Line(n, active, pairs)


def _fixed_from_rank(positions: tuple[int, ...], fr: int) -> tuple[tuple[int, int], ...]:
    """Decode a fixed-part rank into letters along the given sorted positions."""
    k = len(positions)
    digits = []
    for _ in range(k):
        fr, d = divmod(fr, 3)
        digits.append(d + 1)
    digits.reverse()
    return tuple(zip(positions, digits))


@lru_cache(maxsize=16)
def m_interval_active_sets(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Active sets with at most m runs, in lexicographic order (for m = 1: by lo, then hi),
    the order of the rows of :func:`m_interval_line_members`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []

    def grow(active: tuple[int, ...], runs: int) -> None:
        # A set, then its extensions by larger coordinates: lexicographic order.
        out.append(active)
        for i in range(active[-1] + 1, n + 1):
            more = runs + (i > active[-1] + 1)
            if more <= m:
                grow(active + (i,), more)

    for first in range(1, n + 1):
        grow((first,), 1)
    return tuple(out)


@lru_cache(maxsize=16)
def m_interval_line_members(n: int, m: int) -> np.ndarray:
    """Ranks of the three points of every line with at most m runs, one line per row.

    Lines come by active set, in the order of :func:`m_interval_active_sets`,
    then by the rank of their pinned letters read in increasing coordinate
    order as base-3 digits, the last pinned coordinate fastest.  With m = 1
    these are the interval lines, with m = n every combinatorial line of the
    cube.  A row is the rank of the pinned letters (moving letter 1) plus v
    times the summed weight 3**(n-i) of the active coordinates i, v = 0, 1, 2.
    Cached because the table is the hot input to violation counting, search
    and encoding.
    """
    actives = m_interval_active_sets(n, m)
    steps = np.arange(3, dtype=np.int64)
    # Ranks of the letters at pinned positions of the given weights, the last one fastest;
    # each table is one broadcast of the table of its prefix, and blocks share prefixes.
    ranks = {(): np.zeros(1, dtype=np.int64)}

    def ranks_of(weights: tuple[int, ...]) -> np.ndarray:
        if weights not in ranks:
            ranks[weights] = (ranks_of(weights[:-1])[:, None] + steps * weights[-1]).ravel()
        return ranks[weights]

    out = np.empty((sum(3 ** (n - len(a)) for a in actives), 3), dtype=np.int64)
    start = 0
    for active in actives:
        weights = tuple(3 ** (n - i) for i in range(1, n + 1) if i not in active)
        # A block is one outer sum of the ranks of the first half of the pinned letters,
        # those of the second half and the moving letter's steps along the active weight.
        h = len(weights) // 2
        high, low = ranks_of(weights[:h]), ranks_of(weights[h:])
        low = low[:, None] + steps * sum(3 ** (n - i) for i in active)
        stop = start + 3 ** len(weights)
        np.add(high[:, None, None], low, out=out[start:stop].reshape(len(high), len(low), 3))
        start = stop
    return out


def interval_line_members(n: int) -> np.ndarray:
    """The member table of the interval lines: :func:`m_interval_line_members` at m = 1."""
    return m_interval_line_members(n, 1)


def line_at_row(n: int, row: int, m: int = 1) -> Line:
    """The line behind one row of :func:`m_interval_line_members`, without
    enumerating the rows before it."""
    fr = row
    if fr >= 0:
        for active in m_interval_active_sets(n, m):
            count = 3 ** (n - len(active))
            if fr < count:
                rest = tuple(i for i in range(1, n + 1) if i not in active)
                return Line(n, active, _fixed_from_rank(rest, fr))
            fr -= count
    raise IndexError(f"row {row} outside the member table of n={n}, m={m}")


def mono_mask(bits: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Which rows of a member table the colour array ``bits`` makes monochromatic."""
    cols = bits[members]
    return (cols[:, 0] == cols[:, 1]) & (cols[:, 1] == cols[:, 2])


class Coloring:
    """A two-colouring of the n-cube, stored as one uint8 per word rank."""

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, bits: np.ndarray):
        if n < 1:
            raise ValueError("n must be >= 1")
        bits = np.asarray(bits)
        if bits.shape != (3**n,):
            raise ValueError(f"expected {3 ** n} cells for n={n}, got shape {bits.shape}")
        colours = bits.astype(np.uint8)  # a private copy, so no caller's view can change it
        if colours.max() > 1 or (bits.dtype != np.uint8 and (colours != bits).any()):
            raise ValueError("colours must be 0 or 1")
        colours.setflags(write=False)
        self.n = n
        self._bits = colours

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @classmethod
    def constant(cls, n: int, color: int) -> "Coloring":
        if color not in (0, 1):
            raise ValueError("colour must be 0 or 1")
        return cls(n, np.full(3**n, color, dtype=np.uint8))

    @classmethod
    def from_bits(cls, n: int, values: Iterable[int]) -> "Coloring":
        values = list(values)
        if not all(v == 0 or v == 1 for v in values):  # before uint8 reads 1.5 as 1
            raise ValueError("colours must be 0 or 1")
        return cls(n, np.array(values, dtype=np.uint8))

    @classmethod
    def random(cls, n: int, seed: int) -> "Coloring":
        rng = np.random.default_rng(seed)
        return cls(n, rng.integers(0, 2, size=3**n, dtype=np.uint8))

    def get(self, word: Word) -> int:
        if word.n != self.n:
            raise ValueError(f"word length {word.n} does not match colouring n={self.n}")
        return int(self._bits[rank(word)])

    @property
    def bitstring(self) -> str:
        return (self._bits + ord("0")).tobytes().decode("ascii")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self) -> int:
        return hash((self.n, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, bits={self.bitstring!r})"


def is_monochromatic(coloring: Coloring, line: Line) -> bool:
    """True when the line's three points share one colour."""
    if line.n != coloring.n:
        raise ValueError(f"line n={line.n} does not match colouring n={coloring.n}")
    a, b, c = (coloring.get(w) for w in line.points())
    return a == b == c


# --- symmetries ------------------------------------------------------------
#
# Global alphabet permutations, coordinate reversal and the colour swap all
# send interval lines to interval lines, so the group they generate (order
# 6 * 2 * 2 = 24) acts on colourings without changing whether a
# monochromatic interval line exists.  Per-coordinate letter permutations
# would break line structure and are deliberately not representable here.


@dataclass(frozen=True)
class Symmetry:
    """One element of the 24-element group: letter permutation x reversal x colour swap.

    ``letter_perm[v - 1]`` is the image of letter v.  The letter action
    and the position action touch different structure, so they commute.
    """

    letter_perm: tuple[int, int, int] = (1, 2, 3)
    reverse: bool = False
    swap_colors: bool = False

    def __post_init__(self) -> None:
        if sorted(self.letter_perm) != [1, 2, 3]:
            raise ValueError(f"{self.letter_perm} is not a permutation of (1,2,3)")

    def apply_to_word(self, word: Word) -> Word:
        letters = word.letters[::-1] if self.reverse else word.letters
        return Word(tuple(self.letter_perm[v - 1] for v in letters))

    def inverse(self) -> "Symmetry":
        inv = [0, 0, 0]
        for v, img in enumerate(self.letter_perm, start=1):
            inv[img - 1] = v
        return Symmetry(tuple(inv), self.reverse, self.swap_colors)


def all_symmetries() -> tuple[Symmetry, ...]:
    """The full 24-element group, identity first."""
    perms = sorted(itertools.permutations((1, 2, 3)))
    return tuple(
        Symmetry(p, rev, swap)
        for p in perms
        for rev in (False, True)
        for swap in (False, True)
    )


@lru_cache(maxsize=64)
def rank_permutation(g: Symmetry, n: int) -> np.ndarray:
    """Table P with P[i] = rank of the g-preimage of the word of rank i.

    The transformed colouring reads its cell i from cell P[i] of the
    original (plus a colour flip when g swaps colours).
    """
    ginv = g.inverse()
    return np.fromiter(
        (rank(ginv.apply_to_word(unrank(i, n))) for i in range(3**n)),
        dtype=np.int64,
        count=3**n,
    )


def apply_symmetry(coloring: Coloring, g: Symmetry) -> Coloring:
    """The colouring w -> g(c)(w) = c(g^-1 w), colour-swapped when g asks for it."""
    bits = coloring.bits[rank_permutation(g, coloring.n)]
    if g.swap_colors:
        bits = bits ^ 1
    return Coloring(coloring.n, bits)


# --- colouring file format ---------------------------------------------------
#
# Line 1: "HJC 3 <n>".  Line 2: exactly 3^n characters from {0,1}, position i
# holding the colour of the word of rank i.  Trailing newline optional, any
# other byte is an error.


def is_count(text: str) -> bool:
    """Whether a header field is a count: 1 to 18 ASCII digits, so that int() reads it
    and the value fits in an int64 (int() alone takes other digits and 4300 of them)."""
    return text.isascii() and text.isdigit() and len(text) <= 18


def coloring_to_text(coloring: Coloring) -> str:
    return f"HJC 3 {coloring.n}\n{coloring.bitstring}\n"


def coloring_from_text(text: str) -> Coloring:
    head, sep, body = text.partition("\n")
    if not sep:
        raise ValueError("colouring file needs a header line 'HJC 3 <n>'")
    parts = head.split(" ")
    if len(parts) != 3 or parts[0] != "HJC" or parts[1] != "3" or not is_count(parts[2]):
        raise ValueError(f"bad colouring header {head!r}")
    n = int(parts[2])
    if n < 1:
        raise ValueError(f"bad dimension {n} in colouring header")
    if body.endswith("\n"):
        body = body[:-1]
    # 3**n > 2**n, so an n past the bit length of the body is refused without the power.
    if n > len(body).bit_length() or len(body) != 3**n:
        raise ValueError(f"expected 3**{n} colour characters for n={n}, got {len(body)}")
    # Latin-1 keeps one byte per character; anything beyond it becomes "?".
    bits = np.frombuffer(body.encode("latin-1", "replace"), dtype=np.uint8) - ord("0")
    bad = bits > 1
    if bad.any():
        pos = int(bad.argmax())
        raise ValueError(f"bad colour byte {body[pos]!r} at position {pos}")
    return Coloring(n, bits)


def save_coloring(coloring: Coloring, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(coloring_to_text(coloring))


def load_coloring(path: str) -> Coloring:
    with open(path, "r", encoding="ascii") as fh:
        return coloring_from_text(fh.read())
