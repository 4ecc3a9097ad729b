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

The module exposes the construction itself (:func:`gadget_words`,
:func:`gadget_lines`, :func:`nsets`, :func:`case_lemma_check`), the
homogeneity test over one quadruple of cuts (:func:`induced_coloring`,
:func:`homogeneous_colors`), the line finder
(:func:`find_interval_line`), and the certificate file format used to
report verified monochromatic lines.  The paper reaches homogeneity by
a Ramsey argument on a huge ground set; at desk scale the pipeline route
only tests it over the cuts (1, 2, 3, 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cube import (
    Coloring,
    Line,
    Word,
    interval_line,
    interval_line_members,
    is_count,
    is_monochromatic,
    line_at_row,
    mono_mask,
)
from .patterns import Pattern, realize

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


def bracket_word(block_letters: Sequence[int], quad: Quadruple) -> Word:
    """The word constant on each of the five blocks cut out by the quadruple.

    Block j covers coordinates a(j-1)+1 .. a(j) (with a0 = 0 and a5 = n)
    and carries block_letters[j-1].  Adjacent blocks may repeat a letter,
    so the word realizes the contraction of the block letters with a
    breakpoint at each cut between two different letters.
    """
    b = tuple(block_letters)
    if len(b) != 5:
        raise ValueError("need exactly five block letters")
    steps = [j for j in range(4) if b[j] != b[j + 1]]
    pattern = Pattern((b[0],) + tuple(b[j + 1] for j in steps))
    return realize(pattern, [quad.cuts[j] for j in steps], quad.n)


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

# Which of the five pattern colours can appear on line i.  Index p here
# refers to SEED_PATTERNS[p]; line i is monochromatic exactly when the
# colours of these patterns coincide.
_COLOR_SET_PATTERNS: tuple[tuple[int, ...], ...] = (
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 4),
    (0, 3, 4),
)


def gadget_words(quad: Quadruple) -> dict[str, Word]:
    """The nine bracket words over the given cuts, by name (w1..w5, v1..v3, u1)."""
    return {name: bracket_word(blocks, quad) for name, blocks in _WORD_BLOCKS.items()}


def gadget_lines(quad: Quadruple) -> tuple[Line, ...]:
    """The five candidate interval lines over the given cuts; line i is entry i-1.

    Each line's points are re-checked to be exactly its three named
    bracket words, ordered by moving letter.  A failure here would
    falsify the construction itself, so it aborts loudly instead of
    returning partial output.
    """
    words = gadget_words(quad)
    out = []
    for idx, (names, span_lo, span_hi) in enumerate(_LINE_SPECS, start=1):
        members = tuple(words[name] for name in names)
        lo, hi = quad.cuts[span_lo] + 1, quad.cuts[span_hi]
        base = members[0]
        fixed = {i: base[i] for i in range(1, quad.n + 1) if i < lo or i > hi}
        line = interval_line(quad.n, lo, hi, fixed)
        if line.points() != members:
            raise RuntimeError(
                f"construction broken: candidate line {idx} over cuts {quad.cuts} "
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


def induced_coloring(
    coloring: Coloring, pattern_index: int, ground: Iterable[int]
) -> dict[tuple[int, ...], int]:
    """Colour each breakpoint choice for one seed pattern inside a ground set.

    For seed pattern p of length t, every (t-1)-subset A of the ground
    set realizes a unique word with contraction p and breakpoints A; its
    colour is recorded under key A.  Ground elements must lie in 1..n-1.
    """
    if not 1 <= pattern_index <= 5:
        raise ValueError(f"pattern index {pattern_index} outside 1..5")
    pat = SEED_PATTERNS[pattern_index - 1]
    ground = tuple(sorted(set(ground)))
    if ground and not (1 <= ground[0] and ground[-1] <= coloring.n - 1):
        raise ValueError(f"ground set {ground} outside 1..{coloring.n - 1}")
    size = len(pat) - 1
    if len(ground) < size:
        raise ValueError(f"ground set of {len(ground)} cannot host {size}-subsets")
    return {
        A: coloring.get(realize(pat, A, coloring.n))
        for A in itertools.combinations(ground, size)
    }


def homogeneous_colors(coloring: Coloring, quad: Quadruple) -> ColorVector | None:
    """The colour of each seed pattern over the quadruple's cuts, if it has one.

    Returns d when, for every seed pattern p, each word with contraction p
    and breakpoints among quad.cuts has colour d[p]; None when some seed
    pattern takes both colours there.  This is the homogeneity the case
    analysis needs: with it, line first_singleton_index(d) of
    gadget_lines(quad) is monochromatic.
    """
    if coloring.n != quad.n:
        raise ValueError(f"colouring of n={coloring.n} against cuts of n={quad.n}")
    d = []
    for i in range(1, 6):
        colours = set(induced_coloring(coloring, i, quad.cuts).values())
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


def parse_certificate(text: str) -> LineCertificate | None:
    """Inverse of :func:`render_certificate`; None for absence markers."""
    rows = [r for r in text.split("\n") if r]
    if not rows:
        raise ValueError("empty certificate text")
    if rows[0].startswith("NONE"):
        parts = rows[0].split(" ")
        if len(parts) != 2 or not parts[1].startswith("method="):
            raise ValueError(f"bad absence marker {rows[0]!r}")
        return None
    fields = rows[0].split(" ")
    if len(fields) != 5 or fields[0] != "MONO-LINE":
        raise ValueError(f"bad certificate header {rows[0]!r}")
    kv = {}
    for tok in fields[1:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"bad certificate field {tok!r}")
        kv[key] = val
    try:
        lo_s, _, hi_s = kv["active"].partition("..")
        pairs = [pair.partition(":")[::2] for pair in kv["fixed"].split(",")] if kv["fixed"] else []
        numbers = [kv["n"], kv["color"], lo_s, hi_s, *itertools.chain.from_iterable(pairs)]
    except KeyError as exc:
        raise ValueError(f"bad certificate header {rows[0]!r}") from exc
    if not all(map(is_count, numbers)):
        raise ValueError(f"bad certificate header {rows[0]!r}")
    n, color, lo, hi, *fixed = map(int, numbers)
    if len(rows) != 4:
        raise ValueError("certificate needs exactly three member rows")
    members = []
    for i, row in enumerate(rows[1:4], start=1):
        tag, _, wtext = row.partition(" ")
        if tag != f"W{i}":
            raise ValueError(f"bad member row {row!r}")
        members.append(Word.from_text(wtext))
    # The rows bound n, so the line below is no larger than the text.
    if any(w.n != n for w in members):
        raise ValueError(f"certificate header n={n} does not match the length of its member rows")
    line = interval_line(n, lo, hi, dict(zip(fixed[::2], fixed[1::2])))
    if line.points() != tuple(members):
        raise ValueError("certificate members do not match the line's points")
    return LineCertificate(line, color)


# --- line extraction ---------------------------------------------------------


def find_interval_line(
    coloring: Coloring, method: str = "direct"
) -> LineCertificate | None:
    """Search for a monochromatic interval line by one of three routes.

    direct    scan every interval line; None is a proof of absence.
    gadget    test the five candidate lines over every quadruple of
              cuts; cheap, but None only means this route saw nothing.
    pipeline  the paper's two steps at desk scale: test that every seed
              pattern is homogeneous over the cuts 1..4, then certify
              the line the case analysis picks; None again only means
              the colouring is not homogeneous there (or n < 5).

    Whatever the route, a returned certificate has been re-verified
    against the colouring point by point.
    """
    n = coloring.n
    if method == "direct":
        hits = np.flatnonzero(mono_mask(coloring.bits, interval_line_members(n)))
        if hits.size == 0:
            return None
        return _certified(coloring, line_at_row(n, int(hits[0])))
    if method == "gadget":
        for cuts in itertools.combinations(range(1, n), 4):
            for line in gadget_lines(Quadruple(n, cuts)):
                if is_monochromatic(coloring, line):
                    return _certified(coloring, line)
        return None
    if method == "pipeline":
        if n < 5:
            return None
        quad = Quadruple(n, (1, 2, 3, 4))
        d = homogeneous_colors(coloring, quad)
        if d is None:
            return None
        return _certified(coloring, gadget_lines(quad)[first_singleton_index(d) - 1])
    raise ValueError(f"unknown method {method!r}")


def pattern_coloring(n: int, d: Sequence[int]) -> Coloring:
    """Colour each word by its seed pattern: d[p] when the contraction is
    seed pattern p, and d[0] for every other word."""
    d = _check_color_vector(d)
    longest = max(SEED_LENGTHS)
    size = 3**n
    ranks = np.arange(size, dtype=np.min_scalar_type(size))
    # One pass over the coordinates: count the runs and pack the letters
    # of the first `longest` runs base 4, so a contraction's code is unique.
    runs = np.zeros(size, dtype=np.uint8)
    code = np.zeros(size, dtype=np.uint16)
    prev = np.zeros(size, dtype=np.uint8)  # no letter: coordinate 1 opens a run
    for i in range(n):
        letter = (ranks // 3 ** (n - 1 - i) % 3 + 1).astype(np.uint8)
        new_run = letter != prev
        runs += new_run
        code = np.where(new_run & (runs <= longest), code * 4 + letter, code)
        prev = letter
    code[runs > longest] = 0
    colour_of_code = np.full(4**longest, d[0], dtype=np.uint8)
    for p, colour in zip(SEED_PATTERNS, d):
        colour_of_code[_pattern_code(p)] = colour
    return Coloring(n, colour_of_code[code])


def _pattern_code(pattern: Pattern) -> int:
    code = 0
    for v in pattern.letters:
        code = code * 4 + v
    return code
