"""Slow references that the package's line tables are tested against."""

import itertools

from hjinterval.cube import ALPHABET, Line, runs_of


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
