"""The five-line construction that forces a monochromatic interval line.

Everything here revolves around one combinatorial fact.  Fix four cut
positions a1 < a2 < a3 < a4 inside 1..n-1 and build nine "bracket"
words, each constant on the five blocks those cuts carve out of 1..n.
The nine words assemble into five interval lines, and the colour of
each word is controlled by the contraction it collapses to.  Whenever a
colouring is homogeneous in the right sense (all words realizing a seed
pattern over a common ground set share one colour), the colours seen on
line i form one of five small "colour sets", and a short case analysis
shows some colour set is a singleton: that line is monochromatic.

The construction is written down once, as each word's block letters and
each line's member words: :func:`block_ranks` ranks the words by
arithmetic for the routes, and :func:`gadget_words` and :func:`gadget_lines`
unrank them into Word and Line objects.  The same arithmetic ranks each seed
pattern's words in the homogeneity test over one quadruple of cuts
(:func:`homogeneous_colors`).  The module also holds the case analysis
(:func:`nsets`), the line finder (:func:`find_interval_line`) and the
certificate format for verified monochromatic lines.  The paper
reaches homogeneity by a Ramsey argument on a huge ground set; at desk
scale the pipeline route only tests it over the cuts (1, 2, 3, 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .cube import (
    ALPHABET, Coloring, Line, Word, first_mono_line, interval_line, is_monochromatic, rank, unrank,
)
from .patterns import Pattern, contract

#: The five seed patterns, in the order their colour sets are consulted.
SEED_PATTERNS: tuple[Pattern, ...] = tuple(
    Pattern.from_text(s) for s in ("132", "1232", "1312", "13232", "13132")
)

#: Lengths of the seed patterns: (3, 4, 4, 5, 5).
SEED_LENGTHS: tuple[int, ...] = tuple(len(p) for p in SEED_PATTERNS)

#: Smallest ground set that supports the construction (one quadruple of cuts).
MIN_GROUND_SIZE = 4

ColorVector = tuple[int, int, int, int, int]


def _check_color_vector(d: Sequence[int]) -> ColorVector:
    d = tuple(d)
    if len(d) != 5 or any(v not in (0, 1) for v in d):
        raise ValueError(f"need five colours from {{0,1}}, got {d!r}")
    return d


@dataclass(frozen=True)
class Quadruple:
    """Four cut positions a1 < a2 < a3 < a4 inside 1..n-1 of an n-cube."""

    n: int
    cuts: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        a = self.cuts
        if len(a) != 4:
            raise ValueError("need exactly four cut positions")
        if not (1 <= a[0] < a[1] < a[2] < a[3] <= self.n - 1):
            raise ValueError(f"cuts {a} not strictly increasing inside 1..{self.n - 1}")


def block_ranks(blocks: Iterable[Sequence[int]], cuts: Sequence[int], n: int) -> list[int]:
    """The rank of the word with letter l_j on block j, for each letters (l_0, l_1, ...) in
    blocks.  With c_0 = 0 < cuts < n, block j is c_j+1 .. c_(j+1); its coordinates i weigh
    3**(n-i) in :func:`rank`, W_j = (3**(n-c_j) - 3**(n-c_(j+1))) / 2 together, so the rank is
    sum (l_j - 1) W_j: sum l_j W_j less the rank 3**n // 2 of 22...2."""
    weights = [(3 ** (n - lo) - 3 ** (n - hi)) // 2 for lo, hi in zip((0, *cuts), (*cuts, n))]
    twos = 3**n // 2
    return [sum(map(mul, letters, weights)) - twos for letters in blocks]


_WORD_BLOCKS: dict[str, tuple[int, int, int, int, int]] = {
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

# Member names and active block span of the five candidate lines.  A span
# (j, k) means the active interval runs from cut j (exclusive) to cut k
# (inclusive); the members are ordered by moving letter 1, 2, 3.
_LINE_SPECS: tuple[tuple[tuple[str, str, str], int, int], ...] = (
    (("v1", "w2", "w1"), 0, 2),
    (("w3", "u1", "w1"), 1, 3),
    (("v2", "w2", "w4"), 0, 1),
    (("w3", "v3", "w5"), 2, 3),
    (("w5", "w4", "w1"), 1, 2),
)

# The SEED_PATTERNS indices of line i's members' contractions (a letter per run of block
# letters): line i is monochromatic exactly when the colours of these patterns coincide.
_COLOR_SET_PATTERNS: tuple[tuple[int, ...], ...] = tuple(
    tuple(sorted({SEED_PATTERNS.index(contract(Word(_WORD_BLOCKS[w]))) for w in ws}))
    for ws, _, _ in _LINE_SPECS
)


def gadget_words(quad: Quadruple) -> dict[str, Word]:
    """The nine bracket words over the given cuts, by name (w1..w5, v1..v3, u1)."""
    ranks = block_ranks(_WORD_BLOCKS.values(), quad.cuts, quad.n)
    return {name: unrank(r, quad.n) for name, r in zip(_WORD_BLOCKS, ranks)}


def gadget_rank_triples(quad: Quadruple) -> tuple[tuple[int, int, int], ...]:
    """The ranks of the points of the five candidate lines over the cuts, by moving
    letter, by :func:`block_ranks` alone: gadget_lines(quad) is built from them."""
    ranks = dict(zip(_WORD_BLOCKS, block_ranks(_WORD_BLOCKS.values(), quad.cuts, quad.n)))
    return tuple((ranks[a], ranks[b], ranks[c]) for (a, b, c), _, _ in _LINE_SPECS)


def _candidate_line(quad: Quadruple, spec: int, first: int) -> Line:
    """Candidate line spec + 1 over the cuts, pinned as its point of rank first outside its span."""
    _, span_lo, span_hi = _LINE_SPECS[spec]
    lo, hi = quad.cuts[span_lo] + 1, quad.cuts[span_hi]
    base = unrank(first, quad.n).letters
    return interval_line(quad.n, lo, hi, {i: v for i, v in enumerate(base, 1) if not lo <= i <= hi})


def gadget_lines(quad: Quadruple) -> tuple[Line, ...]:
    """The five candidate interval lines over the given cuts; line i is entry i-1.

    Line i is built from its triple in :func:`gadget_rank_triples`, and its
    points' ranks are re-checked to be that triple: block arithmetic against
    interval_line and rank, which share no code.  A failure would falsify the
    construction itself, so it aborts loudly instead of returning partial output.
    """
    out = []
    for idx, (a, b, c) in enumerate(gadget_rank_triples(quad)):
        line = _candidate_line(quad, idx, a)
        if tuple(map(rank, line.points())) != (a, b, c):
            raise RuntimeError(
                f"construction broken: candidate line {idx + 1} over cuts {quad.cuts} "
                f"does not match its member words"
            )
        out.append(line)
    return tuple(out)


def nsets(d: Sequence[int]) -> tuple[frozenset[int], ...]:
    """The five colour sets induced by colours d for the five seed patterns.

    Set i collects the colours that the members of candidate line i
    carry when every word with seed pattern p takes colour d[p].
    """
    d = _check_color_vector(d)
    return tuple(frozenset(d[p] for p in ps) for ps in _COLOR_SET_PATTERNS)


def first_singleton_index(d: Sequence[int]) -> int:
    """Smallest i (1-based) whose colour set is a singleton.

    Every assignment of five colours has one: if the first four sets all
    have two elements then d2 = d3 and d1 = d4 = d5, which collapses the
    fifth set.  Exhausting all 32 cases without a hit would falsify the
    construction, hence the loud failure.
    """
    for i, s in enumerate(nsets(d), start=1):
        if len(s) == 1:
            return i
    raise RuntimeError(f"construction broken: no singleton colour set for d={d}")


def case_lemma_check() -> list[tuple[ColorVector, int, int]]:
    """All 32 colour assignments with their first singleton set.

    Returns rows (d, index, colour), where colour is the single element
    of the chosen set; the chosen candidate line is forced monochromatic
    in that colour.
    """
    rows = []
    for bits in itertools.product((0, 1), repeat=5):
        i = first_singleton_index(bits)
        (colour,) = nsets(bits)[i - 1]
        rows.append((bits, i, colour))
    return rows


# --- homogeneity machinery ---------------------------------------------------


def homogeneous_colors(coloring: Coloring, quad: Quadruple) -> ColorVector | None:
    """The colour of each seed pattern over the quadruple's cuts, if it has one.

    The paper's induced colouring for seed pattern p of length t colours each
    (t-1)-subset A of a ground set by the word with contraction p and breakpoints
    A: p's letters on the blocks A cuts, read at its rank (:func:`block_ranks`).
    Returns d when over quad.cuts each seed pattern's induced colouring is the
    constant d[p], None when some seed pattern takes both colours there; with d,
    line first_singleton_index(d) of gadget_lines(quad) is monochromatic.
    """
    if coloring.n != quad.n:
        raise ValueError(f"colouring of n={coloring.n} against cuts of n={quad.n}")
    bits, n = coloring.bits, coloring.n
    d = []
    for p in SEED_PATTERNS:
        subsets = itertools.combinations(quad.cuts, len(p) - 1)
        colours = {int(bits[r]) for A in subsets for r in block_ranks([p.letters], A, n)}
        if len(colours) != 1:
            return None
        d.extend(colours)
    return tuple(d)


# --- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class LineCertificate:
    """The claim that an interval line is monochromatic in one colour."""

    line: Line
    color: int

    def __post_init__(self) -> None:
        if self.color not in (0, 1):
            raise ValueError("certificate colour must be 0 or 1")
        if self.line.active != tuple(range(self.line.lo, self.line.hi + 1)):
            raise ValueError(f"active set {self.line.active} is not one interval")

    def verify(self, coloring: Coloring) -> bool:
        """Re-check the claim directly against a colouring."""
        if coloring.n != self.line.n:
            return False
        return is_monochromatic(coloring, self.line) and coloring.get(self.line.word_at(1)) == self.color


def _certified(coloring: Coloring, line: Line) -> LineCertificate:
    cert = LineCertificate(line, coloring.get(line.word_at(1)))
    if not cert.verify(coloring):
        raise RuntimeError(f"internal error: line {line} reported monochromatic but is not")
    return cert


def render_certificate(cert: LineCertificate | None, method: str = "direct") -> str:
    """Serialize a certificate, or an explicit absence marker."""
    if cert is None:
        return f"NONE method={method}\n"
    line = cert.line
    fixed = ",".join(f"{p}:{v}" for p, v in line.fixed)
    head = f"MONO-LINE n={line.n} color={cert.color} active={line.lo}..{line.hi} fixed={fixed}"
    rows = [head] + [f"W{i} {w}" for i, w in enumerate(line.points(), start=1)]
    return "\n".join(rows) + "\n"


# --- line extraction ---------------------------------------------------------


def find_interval_line(
    coloring: Coloring, method: str = "direct"
) -> LineCertificate | None:
    """Search for a monochromatic interval line by one of three routes.

    direct    scan the interval lines in row order up to the first
              monochromatic one; None is a proof of absence.
    gadget    read the colours at the five candidate lines' rank triples
              over every quadruple of cuts, in order, and build the first
              monochromatic one; None only means this route saw nothing.
    pipeline  the paper's two steps at desk scale: test by ranks that
              every seed pattern is homogeneous over the cuts 1..4, then
              certify the line the case analysis picks; None only means
              the colouring is not homogeneous there (or n < 5).

    Whatever the route, a returned certificate has been re-verified
    against the colouring point by point.
    """
    n, bits = coloring.n, coloring.bits
    if method == "direct":
        line = first_mono_line(bits, n)
        return None if line is None else _certified(coloring, line)
    if method == "gadget":
        for cuts in itertools.combinations(range(1, n), 4):
            quad = Quadruple(n, cuts)
            for spec, (a, b, c) in enumerate(gadget_rank_triples(quad)):
                if bits[a] == bits[b] == bits[c]:
                    return _certified(coloring, _candidate_line(quad, spec, a))
        return None
    if method == "pipeline":
        if n < 5:
            return None
        quad = Quadruple(n, (1, 2, 3, 4))
        d = homogeneous_colors(coloring, quad)
        if d is None:
            return None
        spec = first_singleton_index(d) - 1
        return _certified(coloring, _candidate_line(quad, spec, gadget_rank_triples(quad)[spec][0]))
    raise ValueError(f"unknown method {method!r}")


def pattern_coloring(n: int, d: Sequence[int]) -> Coloring:
    """Colour each word by its seed pattern: d[p] when the contraction is
    seed pattern p, and d[0] for every other word."""
    d = _check_color_vector(d)
    cube = np.empty(3**n, dtype=np.uint8)  # first, so a cube too large is refused at once
    longest = max(SEED_LENGTHS)
    # An automaton reads a word's letters.  Its states are the contractions of at most
    # `longest` letters, then None for all longer ones, numbered as they are reached, and
    # step[i][v - 1] is the state after state i reads letter v.  The cube's states, one
    # uint8 a word in rank order, grow by a coordinate a step, the last one fastest; the
    # last step reads colours instead of states.
    states, number, step = [()], {(): 0}, []
    for state in states:  # grows as states are reached
        row = []
        for v in ALPHABET:
            if state is None or state[-1:] == (v,):
                after = state
            else:
                after = state + (v,) if len(state) < longest else None
            if after not in number:
                number[after] = len(states)
                states.append(after)
            row.append(number[after])
        step.append(row)
    seeds = {p.letters: colour for p, colour in zip(SEED_PATTERNS, d)}
    colour = np.array([[seeds.get(states[j], d[0]) for j in row] for row in step], dtype=np.uint8)
    table, cells = np.array(step, dtype=np.uint8), np.zeros(1, dtype=np.uint8)
    for _ in range(n - 1):
        cells = table[cells].ravel()
    np.take(colour, cells, axis=0, out=cube.reshape(-1, 3))
    return Coloring._adopt(n, cube)
