"""Acceptance gate: every finite claim behind the library, checked end to end.

Each test prints one `acceptance <name>: PASS/FAIL` line even under captured
output, so a plain `pytest -v` run shows the verdict per criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from hjinterval.bounds import ramsey_upper, tower
from hjinterval.cnf import decode_model, encode, solve_builtin
from hjinterval.cube import Coloring, Word
from hjinterval.gadgets import (
    Quadruple,
    case_lemma_check,
    find_interval_line,
    gadget_lines,
    homogeneous_colors,
    nsets,
    pattern_coloring,
)
from hjinterval.patterns import breakpoints, contract, realize
from hjinterval.search import exhaustive_search, local_search, violation_count

from oracles import enumerate_m_interval_lines

LEAST_AVOIDER_N3 = "001010100001100011110001011"


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"acceptance {name}: FAIL")
            raise
        else:
            with capsys.disabled():
                print(f"acceptance {name}: PASS")

    return _criterion


def naive_violations(coloring):
    """Monochromatic interval lines counted straight from the definition."""
    n = coloring.n
    total = 0
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            outside = [i for i in range(1, n + 1) if i < lo or i > hi]
            for fixed in itertools.product((1, 2, 3), repeat=len(outside)):
                seen = set()
                for letter in (1, 2, 3):
                    letters = [letter] * n
                    for pos, val in zip(outside, fixed):
                        letters[pos - 1] = val
                    seen.add(coloring.get(Word(tuple(letters))))
                if len(seen) == 1:
                    total += 1
    return total


def test_case_lemma(criterion):
    with criterion("1 case-lemma"):
        start = time.perf_counter()
        rows = case_lemma_check()
        elapsed = time.perf_counter() - start
        assert elapsed < 0.001
        assert len(rows) == 32
        for d, idx, color in rows:
            assert 1 <= idx <= 5
            assert nsets(d)[idx - 1] == frozenset({color})
        reach5 = [d for d, idx, _ in rows if idx == 5]
        assert reach5 == [(0, 1, 1, 0, 0), (1, 0, 0, 1, 1)]
        for d in reach5:
            d1, d2, d3, d4, d5 = d
            assert d2 == d3 and d1 == d4 == d5 and d1 != d2


def test_gadget_geometry(criterion):
    with criterion("2 gadget-geometry"):
        def check(quad):
            a1, a2, a3, a4 = quad.cuts
            spans = [(a1 + 1, a3), (a2 + 1, a4), (a1 + 1, a2), (a3 + 1, a4), (a2 + 1, a3)]
            lines = gadget_lines(quad)
            assert [(line.lo, line.hi) for line in lines] == spans

        for n in (5, 6):
            for cuts in itertools.combinations(range(1, n), 4):
                check(Quadruple(n, cuts))
        rng = random.Random(20260819)
        for _ in range(10_000):
            n = rng.randint(5, 12)
            cuts = tuple(sorted(rng.sample(range(1, n), 4)))
            check(Quadruple(n, cuts))


def test_pattern_machinery(criterion):
    with criterion("3 pattern-machinery"):
        start = time.perf_counter()
        w = Word.from_text("1122333111")
        assert str(contract(w)) == "1231"
        assert breakpoints(w) == (2, 4, 7)
        for letters in itertools.product((1, 2, 3), repeat=5):
            word = Word(letters)
            assert realize(contract(word), breakpoints(word), 5) == word
        assert time.perf_counter() - start < 1.0


def test_homogeneous_world(criterion):
    with criterion("4 homogeneous-world"):
        start = time.perf_counter()
        for d in itertools.product((0, 1), repeat=5):
            c = pattern_coloring(5, d)
            via_gadget = find_interval_line(c, method="gadget")
            assert via_gadget is not None and via_gadget.verify(c)
            assert homogeneous_colors(c, Quadruple(5, (1, 2, 3, 4))) == d
            cert = find_interval_line(c, method="pipeline")
            assert cert is not None and cert.verify(c)
        assert time.perf_counter() - start < 1.0


def test_enumeration_counts(criterion):
    with criterion("5 enumeration-counts"):
        for n, expected in ((1, 1), (2, 7), (3, 34)):
            closed = sum((n - w + 1) * 3 ** (n - w) for w in range(1, n + 1))
            assert closed == expected
            assert sum(1 for _ in enumerate_m_interval_lines(n)) == expected
        for n in range(1, 5):
            assert sum(1 for _ in enumerate_m_interval_lines(n, n)) == 4**n - 3**n


def test_search_sat_agreement(criterion):
    with criterion("6 search-sat-agreement"):
        timings = {}
        for n in (1, 2, 3):
            start = time.perf_counter()
            report = exhaustive_search(n)
            timings[n] = time.perf_counter() - start
            sat = solve_builtin(encode(n))
            assert (report.outcome == "avoider-found") == (sat.status == "sat")
        assert timings[2] < 1.0
        assert timings[3] < 600.0
        # frozen regressions, produced by these same searches and pinned
        assert exhaustive_search(3).coloring.bitstring == LEAST_AVOIDER_N3
        n4 = solve_builtin(encode(4))
        assert n4.status == "sat"
        decoded = decode_model(n4.model, 4)
        assert violation_count(decoded) == 0
        local = local_search(4, seed=7, budget=40000)
        assert local.outcome == "avoider-found"
        assert violation_count(local.coloring) == 0


def test_bound_tower(criterion):
    with criterion("7 bound-tower"):
        assert ramsey_upper(1, 4, 4).value == 7
        assert ramsey_upper(2, 4, 4).value == 20
        rows = tower()
        assert [label for label, _ in rows] == ["n0", "n1", "n2", "n3", "n4", "n5", "n"]
        values = dict(rows)
        assert values["n0"].value == 4
        assert values["n1"].value == 20
        for label in ("n2", "n3", "n4", "n5", "n"):
            assert not values[label].is_exact
        # the uniformity climbing the tower follows the seed lengths (3,4,4,5,5)
        symbolic = dict(tower(cap_digits=1))
        assert symbolic["n1"].render() == "R2(4,4)"
        assert symbolic["n2"].render().startswith("R3(")
        assert symbolic["n3"].render().startswith("R3(")
        assert symbolic["n4"].render().startswith("R4(")
        assert symbolic["n5"].render().startswith("R4(")
        assert symbolic["n"].render().endswith("+1")


def test_certificate_integrity(criterion):
    with criterion("8 certificate-integrity"):
        # certificates from every route re-verify against their colouring
        for d in itertools.product((0, 1), repeat=5):
            c = pattern_coloring(5, d)
            for method in ("direct", "gadget", "pipeline"):
                cert = find_interval_line(c, method=method)
                assert cert is not None and cert.verify(c)
        # avoiders from every route have no monochromatic line at all
        for n in (1, 2, 3):
            for route in (
                exhaustive_search(n).coloring,
                local_search(n, seed=0, budget=20000).coloring,
                decode_model(solve_builtin(encode(n)).model, n),
            ):
                assert naive_violations(route) == 0
        # fuzz: the vectorized counter agrees with the naive scan
        rng = random.Random(1)
        for n in (1, 2, 3):
            for _ in range(1000):
                c = Coloring.random(n, seed=rng.getrandbits(32))
                assert violation_count(c) == naive_violations(c)
