"""Run structure of cube words: contraction, breakpoints, and realization.

A pattern is a word with no two adjacent letters equal.  Collapsing every
maximal constant run of a word to a single letter gives its contraction,
a pattern.  The breakpoint set records where runs end; a word is
recovered uniquely from its contraction plus its breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cube import Word


@dataclass(frozen=True)
class Pattern(Word):
    """A word with no two adjacent letters equal."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(a == b for a, b in zip(self.letters, self.letters[1:])):
            raise ValueError(f"adjacent equal letters in pattern {self.letters}")


def contract(word: Word) -> Pattern:
    """Collapse each maximal constant run to one letter."""
    out = [word.letters[0]]
    for v in word.letters[1:]:
        if v != out[-1]:
            out.append(v)
    return Pattern(tuple(out))


def breakpoints(word: Word) -> tuple[int, ...]:
    """The positions i with letter(i) != letter(i+1), in increasing order."""
    return tuple(
        i for i, (a, b) in enumerate(zip(word.letters, word.letters[1:]), start=1) if a != b
    )


def realize(pattern: Pattern, points: Iterable[int], n: int) -> Word:
    """The unique length-n word with the given contraction and breakpoints.

    Block j runs from one breakpoint (exclusive) to the next (inclusive)
    and carries pattern letter j.  Needs exactly len(pattern) - 1
    breakpoints, all inside 1..n-1.
    """
    pts = tuple(sorted(points))
    if len(pts) != len(pattern) - 1:
        raise ValueError(
            f"pattern of length {len(pattern)} needs {len(pattern) - 1} breakpoints, got {len(pts)}"
        )
    if len(set(pts)) != len(pts):
        raise ValueError("breakpoints must be distinct")
    if pts and not (1 <= pts[0] and pts[-1] <= n - 1):
        raise ValueError(f"breakpoints {pts} outside 1..{n - 1}")
    bounds = (0,) + pts + (n,)
    letters = []
    for v, start, end in zip(pattern.letters, bounds, bounds[1:]):
        letters += [v] * (end - start)
    return Word(tuple(letters))
