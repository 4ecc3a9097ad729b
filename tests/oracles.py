"""Slow references that the package's line and symmetry tables and its gadget and
pipeline routes are tested against, and a colouring builder the tests share."""

import itertools

import numpy as np

from hjinterval.cube import (
    ALPHABET,
    Coloring,
    Line,
    Symmetry,
    Word,
    interval_line,
    is_monochromatic,
)
from hjinterval.gadgets import SEED_PATTERNS, LineCertificate
from hjinterval.patterns import Pattern, realize


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
        if 1 + sum(b > a + 1 for a, b in zip(active, active[1:])) > m:  # maximal runs
            continue
        rest = tuple(i for i in coords if i not in active)
        for letters in itertools.product(ALPHABET, repeat=len(rest)):
            yield Line(n, active, tuple(zip(rest, letters)))


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


# The five-line construction restated: each bracket word's letters on the five blocks
# that four cuts carve out of 1..n, and each candidate line's members (by moving letter
# 1, 2, 3) with its active span, from cut j (exclusive) to cut k (inclusive).
GADGET_WORD_BLOCKS = {
    "w1": (1, 3, 3, 3, 2),
    "w2": (1, 2, 2, 3, 2),
    "w3": (1, 3, 1, 1, 2),
    "w4": (1, 3, 2, 3, 2),
    "w5": (1, 3, 1, 3, 2),
    "v1": (1, 1, 1, 3, 2),
    "v2": (1, 1, 2, 3, 2),
    "v3": (1, 3, 1, 2, 2),
    "u1": (1, 3, 2, 2, 2),
}
GADGET_LINE_SPECS = (
    (("v1", "w2", "w1"), 0, 2),
    (("w3", "u1", "w1"), 1, 3),
    (("v2", "w2", "w4"), 0, 1),
    (("w3", "v3", "w5"), 2, 3),
    (("w5", "w4", "w1"), 1, 2),
)


def reference_bracket_word(blocks, n, cuts):
    """The word with blocks[j] on block j, realized from its contraction and a
    breakpoint at each cut between two different letters."""
    steps = [j for j in range(4) if blocks[j] != blocks[j + 1]]
    pattern = Pattern((blocks[0],) + tuple(blocks[j + 1] for j in steps))
    return realize(pattern, [cuts[j] for j in steps], n)


def reference_gadget_lines(n, cuts):
    """The five candidate lines over the cuts, built from Word objects: each is the
    interval line over its span pinned as its first member, whose points must be its
    three members."""
    words = {name: reference_bracket_word(b, n, cuts) for name, b in GADGET_WORD_BLOCKS.items()}
    out = []
    for names, span_lo, span_hi in GADGET_LINE_SPECS:
        members = tuple(words[name] for name in names)
        lo, hi = cuts[span_lo] + 1, cuts[span_hi]
        line = interval_line(n, lo, hi, {i: members[0][i] for i in range(1, n + 1) if i < lo or i > hi})
        assert line.points() == members
        out.append(line)
    return out


def reference_homogeneous_colors(coloring, cuts):
    """The colour each seed pattern takes on every word realizing it with breakpoints
    among the cuts, or None when some seed pattern takes both colours there."""
    d = []
    for p in SEED_PATTERNS:
        words = (realize(p, A, coloring.n) for A in itertools.combinations(cuts, len(p) - 1))
        colours = set(map(coloring.get, words))
        if len(colours) != 1:
            return None
        d.extend(colours)
    return tuple(d)


def reference_find_line(coloring, method):
    """The certificate of the gadget or pipeline route, found with Word and Line objects.

    gadget: the first monochromatic candidate line over the quadruples of cuts in
    itertools.combinations order.  pipeline: None unless n >= 5 and each seed pattern
    takes one colour on its words with breakpoints among the cuts 1..4; then the first
    monochromatic candidate line over those cuts (the case analysis picks that one).
    """
    n = coloring.n
    if method == "gadget":
        quads = itertools.combinations(range(1, n), 4)
    elif n >= 5 and reference_homogeneous_colors(coloring, (1, 2, 3, 4)) is not None:
        quads = [(1, 2, 3, 4)]
    else:
        return None
    for cuts in quads:
        for line in reference_gadget_lines(n, cuts):
            if is_monochromatic(coloring, line):
                return LineCertificate(line, coloring.get(line.word_at(1)))
    return None
