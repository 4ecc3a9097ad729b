"""Ground types for two-colourings of the three-letter cube.

Words are length-n strings over the alphabet {1, 2, 3}.  A combinatorial
line is the three-point set obtained by fixing the letters outside an
"active" coordinate set and letting every active coordinate carry the
same moving letter 1, 2, 3.  The interesting lines here are the ones
whose active set is a single contiguous interval (or a union of at most
m intervals); this module provides the bookkeeping everything else
builds on: ranking, the line table, one scan of the cube that yields the
monochromatic lines block by block (for the first hit or the count),
colouring storage, the symmetry group that respects interval lines, and
the file format, the one way colourings are written and read.  The
table's rows and the scan's masks are the cells of the same views of the
cube, so they come in one order.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

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
    """Active and fixed coordinates, each increasing, partition 1..n; fixed letters lie in ALPHABET."""
    positions = [p for p, _ in fixed]
    if not active or any(a >= b for c in (active, positions) for a, b in zip(c, c[1:])):
        raise ValueError("a line needs a nonempty active set and strictly increasing coordinates")
    if sorted([*active, *positions]) != list(range(1, n + 1)):
        raise ValueError(f"active {active} and fixed {tuple(positions)} do not partition 1..{n}")
    for _, v in fixed:
        if v not in ALPHABET:
            raise ValueError(f"fixed letter {v!r} outside alphabet {{1,2,3}}")


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


def line_name(line: Line) -> str:
    """The name "line 1..2+4..4 fixed=3:1,5:2" of a line, "fixed=-" when nothing is pinned."""
    runs = "+".join(f"{lo}..{hi}" for lo, hi in runs_of(line.active))
    return f"line {runs} fixed=" + (",".join(f"{p}:{v}" for p, v in line.fixed) or "-")


def interval_line(n: int, lo: int, hi: int, fixed: dict[int, int] | None = None) -> Line:
    """Build the interval line with active set lo..hi and the given fixed letters."""
    return Line(n, tuple(range(lo, hi + 1)), tuple(sorted(dict(fixed or {}).items())))


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

    One rule orders the rows: for each active set of :func:`m_interval_active_sets`,
    the cells, in C order, of the three views of the rank cube that fix the active
    coordinates to letters 1, 2 and 3 are one block's columns, the views that
    :func:`mono_masks` reads colours through.  With m = 1 these are the interval
    lines, with m = n every combinatorial line of the cube.  Cached because the
    table feeds encoding and local search, which one process may run many times,
    and read-only because every caller shares it.
    """
    actives = m_interval_active_sets(n, m)
    cube = np.arange(3**n, dtype=np.int64).reshape((3,) * n)
    out = np.empty((sum(3 ** (n - len(a)) for a in actives), 3), dtype=np.int64)
    start = 0
    for active in actives:
        stop = start + 3 ** (n - len(active))
        for v in range(3):
            view = cube[tuple(v if i in active else slice(None) for i in range(1, n + 1))]
            out[start:stop, v] = view.ravel()
        start = stop
    out.setflags(write=False)
    return out


def interval_line_members(n: int) -> np.ndarray:
    """The member table of the interval lines: :func:`m_interval_line_members` at m = 1."""
    return m_interval_line_members(n, 1)


def mono_masks(bits: np.ndarray, n: int, m: int = 1) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Each active set of :func:`m_interval_active_sets` with the mask of its block's lines
    that the colour array ``bits`` makes monochromatic, without the table: fixing the active
    coordinates to one letter leaves a view of the cube whose cells, in C order, are the
    block's rows, so a mask's index spells the pinned letters of its line."""
    cube = bits.reshape((3,) * n)
    for active in m_interval_active_sets(n, m):
        a, b, c = (cube[tuple(v if i in active else slice(None) for i in range(1, n + 1))] for v in range(3))
        yield active, (a == b) & (b == c)


def first_mono_line(bits: np.ndarray, n: int, m: int = 1) -> Line | None:
    """The first line, in the row order of :func:`m_interval_line_members`, that the colour
    array ``bits`` makes monochromatic, or None: the first hit of :func:`mono_masks`."""
    for active, mono in mono_masks(bits, n, m):
        if mono.any():
            rest = (i for i in range(1, n + 1) if i not in active)
            letters = np.unravel_index(mono.argmax(), mono.shape)
            return Line(n, active, tuple((p, int(d) + 1) for p, d in zip(rest, letters)))
    return None


class Coloring:
    """A two-colouring of the n-cube, stored as one read-only uint8 per word rank.

    ``Coloring(n, bits)`` holds a private copy of ``bits``.  The package's own functions
    that make colourings hand the arrays they just built to :meth:`_adopt`, which holds
    them without one."""

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, bits: np.ndarray):
        self._hold(n, np.asarray(bits), copy=True)

    @classmethod
    def _adopt(cls, n: int, bits: np.ndarray) -> "Coloring":
        """The colouring whose cells are ``bits``, a uint8 array that its caller just built
        and makes no other use of: checked and made read-only, without a copy."""
        coloring = cls.__new__(cls)
        coloring._hold(n, bits, copy=False)
        return coloring

    def _hold(self, n: int, bits: np.ndarray, copy: bool) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if bits.shape != (3**n,):
            raise ValueError(f"expected {3 ** n} cells for n={n}, got shape {bits.shape}")
        colours = bits.astype(np.uint8, copy=copy)  # copied, so no caller's view can change it
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
        return cls._adopt(n, np.full(3**n, color, dtype=np.uint8))

    @classmethod
    def random(cls, n: int, seed: int) -> "Coloring":
        """Cell i takes bit i of ``random.Random(seed).getrandbits(3**n)``, drawn in chunks
        of 2**24 bits (a multiple of 32, so they join into that one draw) into an array
        allocated first, so a cube too large fails before any draw."""
        bits, rng = np.empty(3**n, dtype=np.uint8), random.Random(seed)
        for start in range(0, 3**n, 1 << 24):
            k = min(1 << 24, 3**n - start)
            chunk = np.frombuffer(rng.getrandbits(k).to_bytes((k + 7) // 8, "little"), np.uint8)
            bits[start : start + k] = np.unpackbits(chunk, count=k, bitorder="little")
        return cls._adopt(n, bits)

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
# The group acts on the axes of the (3,)*n cube: one letter permutation on
# every axis, and reversal as a transpose.


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


def all_symmetries() -> tuple[Symmetry, ...]:
    """The full 24-element group, identity first."""
    perms = sorted(itertools.permutations((1, 2, 3)))
    return tuple(
        Symmetry(p, rev, swap)
        for p in perms
        for rev in (False, True)
        for swap in (False, True)
    )


def rank_permutation(g: Symmetry, n: int) -> np.ndarray:
    """Table P with P[i] = rank of the g-preimage of the word of rank i.

    The transformed colouring reads its cell i from cell P[i] of the
    original (plus a colour flip when g swaps colours).  On the ranks laid
    out as the (3,)*n cube, g^-1 takes letter g(v) back to v along every
    axis, and reverses the axes when g reverses.
    """
    inverse = np.argsort(g.letter_perm)
    table = np.arange(3**n, dtype=np.int64).reshape((3,) * n)[np.ix_(*[inverse] * n)]
    return (table.T if g.reverse else table).ravel()


def apply_symmetry(coloring: Coloring, g: Symmetry) -> Coloring:
    """The colouring w -> g(c)(w) = c(g^-1 w), colour-swapped when g asks for it."""
    bits = coloring.bits[rank_permutation(g, coloring.n)]
    if g.swap_colors:
        bits ^= 1
    return Coloring._adopt(coloring.n, bits)


# --- colouring file format ---------------------------------------------------
#
# Line 1: "HJC 3 <n>".  Line 2: exactly 3^n characters from {0,1}, position i
# holding the colour of the word of rank i.  Trailing newline optional, any
# other byte is an error.  A file is read as bytes, once, into a bytearray
# whose body becomes the colouring's cells in place.  Saving writes the header
# and then the cells plus ord("0") straight from the array.


def is_count(text: str) -> bool:
    """Whether a header field is a count: 1 to 18 ASCII digits, so that int() reads it
    and the value fits in an int64 (int() alone takes other digits and 4300 of them)."""
    return text.isascii() and text.isdigit() and len(text) <= 18


def save_coloring(coloring: Coloring, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(f"HJC 3 {coloring.n}\n".encode("ascii"))
        fh.write(coloring.bits + ord("0"))
        fh.write(b"\n")


def load_coloring(path: str) -> Coloring:
    """The colouring the file spells.  Refusals come in this order: a non-ASCII byte, the
    header, the dimension, the length and the first bad colour byte."""
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)  # 0 bytes for a pipe
        del buf[fh.readinto(buf) :]
        buf += fh.read()  # what a pipe holds, or a file that grew
    if not buf.isascii():
        buf.decode("ascii")  # raises, naming the first non-ASCII byte and its position
    nl = buf.find(b"\n")
    if nl < 0:
        raise ValueError("colouring file needs a header line 'HJC 3 <n>'")
    head = buf[:nl].decode("ascii")
    parts = head.split(" ")
    if len(parts) != 3 or parts[0] != "HJC" or parts[1] != "3" or not is_count(parts[2]):
        raise ValueError(f"bad colouring header {head!r}")
    n = int(parts[2])
    if n < 1:
        raise ValueError(f"bad dimension {n} in colouring header")
    body = np.frombuffer(buf, np.uint8)[nl + 1 :]
    if body.size and body[-1] == ord("\n"):
        body = body[:-1]
    # 3**n > 2**n, so an n past the bit length of the body is refused without the power.
    if n > len(body).bit_length() or len(body) != 3**n:
        raise ValueError(f"expected 3**{n} colour characters for n={n}, got {len(body)}")
    body -= ord("0")  # "0" and "1" become colours; every other byte, wrapping, exceeds 1
    if body.max() > 1:
        pos = (body > 1).argmax()
        raise ValueError(f"bad colour byte {chr((int(body[pos]) + ord('0')) % 256)!r} at position {pos}")
    return Coloring._adopt(n, body)
