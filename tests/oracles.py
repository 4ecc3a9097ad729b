"""Slow references that the package's line and symmetry tables are tested against,
and a colouring builder the tests share."""

import itertools

import numpy as np

from hjinterval.cube import ALPHABET, Coloring, Line, Symmetry, Word, rank, runs_of, unrank


def coloring_from_bits(n, values):
    """The colouring whose cell of rank i takes the i-th value, which Coloring
    checks is 0 or 1 before it narrows it to uint8."""
    return Coloring(n, np.array(list(values)))


def enumerate_m_interval_lines(n, m=1):
    """All lines of the n-cube whose active set splits into at most m maximal intervals.

    Active sets come in lexicographic order (for m = 1: by lo, then hi), then
    pinned letters by fixed-part rank, which reads them in increasing
    coordinate order as base-3 digits: the row order of
    ``m_interval_line_members``.  With m = 1 these are the interval lines,
    with m = n every combinatorial line of the cube.
    """
    coords = range(1, n + 1)
    subsets = itertools.chain.from_iterable(itertools.combinations(coords, k) for k in coords)
    for active in sorted(subsets):
        if len(runs_of(active)) > m:
            continue
        rest = tuple(i for i in coords if i not in active)
        for letters in itertools.product(ALPHABET, repeat=len(rest)):
            yield Line(n, active, tuple(zip(rest, letters)))


def line_of_members(n, members):
    """The line whose points, moving letter 1, 2, 3, have the three given ranks: the
    active set is where the first two words differ, the other letters are pinned."""
    first, second = (unrank(int(r), n) for r in members[:2])
    coords = range(1, n + 1)
    line = Line(
        n,
        tuple(i for i in coords if first[i] != second[i]),
        tuple((i, first[i]) for i in coords if first[i] == second[i]),
    )
    assert [rank(p) for p in line.points()] == [int(r) for r in members]
    return line


def symmetry_on_word(g, word):
    """The word g(w): its coordinates reversed when g reverses, then each letter v
    replaced by its image g.letter_perm[v - 1]."""
    letters = word.letters[::-1] if g.reverse else word.letters
    return Word(tuple(g.letter_perm[v - 1] for v in letters))


def inverse_symmetry(g):
    """g^-1: the inverse letter permutation with the same reversal and colour swap,
    since the letter and position actions commute and each swap is an involution."""
    inverse = [0, 0, 0]
    for v, image in enumerate(g.letter_perm, start=1):
        inverse[image - 1] = v
    return Symmetry(tuple(inverse), g.reverse, g.swap_colors)
