import concurrent.futures
import hashlib
import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjinterval import search
from hjinterval.cnf import SolveOutcome
from hjinterval.cube import Coloring, Word, apply_symmetry, all_symmetries, interval_line_members
from hjinterval.search import (
    OUTCOME_FOUND,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_REFUTED,
    SearchReport,
    _cell_lines,
    _one_restart,
    exhaustive_search,
    local_search,
    render_search_report,
    violation_count,
)

LEAST_AVOIDERS = {
    1: "001",
    2: "001010100",
    3: "001010100001100011110001011",
    4: "001010100101010010010101101101001010010100101001110010010110101101101010100001011",
}


def naive_violations(coloring):
    """Count monochromatic interval lines straight from the definition."""
    n = coloring.n
    total = 0
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            outside = [i for i in range(1, n + 1) if i < lo or i > hi]
            for fixed in itertools.product((1, 2, 3), repeat=len(outside)):
                colors = set()
                for letter in (1, 2, 3):
                    letters = [0] * n
                    for i in range(lo, hi + 1):
                        letters[i - 1] = letter
                    for pos, val in zip(outside, fixed):
                        letters[pos - 1] = val
                    colors.add(coloring.get(Word(tuple(letters))))
                if len(colors) == 1:
                    total += 1
    return total


def test_violation_count_constant():
    # every interval line is monochromatic under a constant colouring
    assert violation_count(Coloring.constant(1, 0)) == 1
    assert violation_count(Coloring.constant(2, 1)) == 7
    assert violation_count(Coloring.constant(3, 0)) == 34


def test_violation_count_avoiders():
    for n, bits in LEAST_AVOIDERS.items():
        c = Coloring.from_bits(n, [int(b) for b in bits])
        assert violation_count(c) == 0


def test_violation_count_matches_naive_scan():
    rng = random.Random(99)
    for n in (1, 2, 3):
        for _ in range(25):
            c = Coloring.random(n, seed=rng.getrandbits(32))
            assert violation_count(c) == naive_violations(c)


def test_exhaustive_n1():
    report = exhaustive_search(1)
    assert report.outcome == OUTCOME_FOUND
    assert report.coloring.bitstring == LEAST_AVOIDERS[1]
    assert report.violations == 0
    assert (report.stats["solves"], report.stats["unsat_steps"]) == (2, 1)


def test_exhaustive_n2():
    report = exhaustive_search(2)
    assert report.outcome == OUTCOME_FOUND
    assert report.coloring.bitstring == LEAST_AVOIDERS[2]
    assert (report.stats["solves"], report.stats["unsat_steps"]) == (5, 3)


def test_exhaustive_n3():
    report = exhaustive_search(3)
    assert report.outcome == OUTCOME_FOUND
    assert report.coloring.bitstring == LEAST_AVOIDERS[3]
    assert violation_count(report.coloring) == 0


def test_exhaustive_returns_least_avoider():
    # brute-force oracle: scan all colourings of [3]^2 in rank order
    for mask in range(2**9):
        bits = [(mask >> (8 - i)) & 1 for i in range(9)]
        c = Coloring.from_bits(2, bits)
        if violation_count(c) == 0:
            first = c
            break
    assert exhaustive_search(2).coloring == first


def test_exhaustive_symmetry_flag_changes_nothing():
    for n in (1, 2, 3, 4, 5):
        a = exhaustive_search(n, use_symmetry=True)
        b = exhaustive_search(n, use_symmetry=False)
        assert (a.outcome, a.coloring) == (b.outcome, b.coloring)
        assert a.stats["solves"] == b.stats["solves"]
        assert a.stats["lemmas"] <= b.stats["lemmas"]


def test_exhaustive_beyond_n3():
    report = exhaustive_search(4)
    assert report.outcome == OUTCOME_FOUND
    assert report.coloring.bitstring == LEAST_AVOIDERS[4]
    for n in (5, 6, 7):
        report = exhaustive_search(n)
        assert report.outcome == OUTCOME_REFUTED and report.coloring is None
        assert report.stats["solves"] == report.stats["unsat_steps"] == 1
        assert report.stats["lemmas"] > 0


def test_exhaustive_rejects_a_proof_that_does_not_check(monkeypatch):
    # an UNSAT whose proof is only the empty clause: unit propagation alone finds no conflict
    monkeypatch.setattr(search, "solve_builtin", lambda instance: SolveOutcome("unsat", proof=((),)))
    with pytest.raises(RuntimeError, match="refutation"):
        exhaustive_search(2)


def test_exhaustive_rejects_bad_n():
    with pytest.raises(ValueError):
        exhaustive_search(0)


def test_avoider_orbit_still_avoids():
    c = exhaustive_search(3).coloring
    for g in all_symmetries():
        assert violation_count(apply_symmetry(c, g)) == 0


def test_report_rendering_is_stable():
    report = exhaustive_search(2)
    text = render_search_report(report)
    assert text == render_search_report(report)
    assert text.startswith("mode=exhaustive\nn=2\noutcome=avoider-found\n")
    assert "coloring=001010100" in text
    assert "solves=5\n" in text and "unsat_steps=3\n" in text and "lemmas=3\n" in text


def test_report_semantic_fields_ignore_timing():
    a = exhaustive_search(2)
    b = exhaustive_search(2)
    assert a.semantic_fields() == b.semantic_fields()
    assert "wall_time_s" not in str(a.semantic_fields())


def test_local_search_finds_small_avoiders():
    for n in (1, 2, 3):
        report = local_search(n, seed=0, budget=20000)
        assert report.outcome == OUTCOME_FOUND
        assert violation_count(report.coloring) == 0
        assert report.violations == 0


def test_local_search_n4():
    report = local_search(4, seed=7, budget=40000)
    assert report.outcome == OUTCOME_FOUND
    assert violation_count(report.coloring) == 0


def test_local_search_deterministic():
    a = local_search(3, seed=42, budget=5000)
    b = local_search(3, seed=42, budget=5000)
    assert a.semantic_fields() == b.semantic_fields()
    assert a.coloring == b.coloring


@pytest.mark.parametrize(
    "n, seed, budget, outcome, violations, flips, restarts, digest",
    [
        (4, 7, 40000, OUTCOME_FOUND, 0, 1250, 6, "c509d7462879b857"),
        (5, 1, 15000, OUTCOME_INCONCLUSIVE, 4, 2794, 3, "3fa7b70623a74248"),
        (6, 3, 2187, OUTCOME_INCONCLUSIVE, 30, 2187, 1, "276190dde39a2718"),
        # this restart ends by the sideways rule, the longest sideways path pinned here
        (6, 2, 21870, OUTCOME_INCONCLUSIVE, 23, 6978, 1, "90886bf628ac1dbd"),
    ],
)
def test_local_search_reports_are_pinned(n, seed, budget, outcome, violations, flips, restarts, digest):
    # the descent's random-number order, tie-breaks and stopping rules fix these exactly
    report = local_search(n, seed=seed, budget=budget)
    assert report.outcome == outcome
    assert report.violations == violations == violation_count(report.coloring)
    assert (report.stats["flips"], report.stats["restarts"]) == (flips, restarts)
    assert hashlib.sha256(report.coloring.bitstring.encode()).hexdigest()[:16] == digest


def test_local_search_jobs_invariant():
    # (5, 4, 21870) runs three restarts and finds no avoider, so the best of them is chosen
    for n, seed, budget in ((3, 9, 8000), (5, 4, 21870)):
        a = local_search(n, seed=seed, budget=budget, jobs=1)
        b = local_search(n, seed=seed, budget=budget, jobs=2)
        assert a.semantic_fields() == b.semantic_fields()
    assert a.outcome == OUTCOME_INCONCLUSIVE and a.stats["restarts"] == 3


def test_local_search_makes_restarts_only_as_needed():
    # 333 million restarts fit this budget; the first one finds an avoider
    report = local_search(1, seed=0, budget=10**11)
    assert report.outcome == OUTCOME_FOUND
    assert report.stats["restarts"] == 1


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs each call as it is submitted, and records
    the worker count asked for and the number of calls submitted."""

    made = []

    def __init__(self, max_workers):
        self.max_workers, self.submitted = max_workers, 0
        InlinePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_local_search_pool_is_bounded_by_cpus_and_fed_lazily(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(InlinePool, "made", [])
    # Of 17 restarts the sixth finds an avoider: it is in the second batch of four.
    report = local_search(4, seed=7, budget=40000, jobs=64)
    assert report.semantic_fields() == local_search(4, seed=7, budget=40000).semantic_fields()
    report = local_search(1, seed=0, budget=10**11, jobs=64)
    assert report.outcome == OUTCOME_FOUND and report.stats["restarts"] == 1
    assert [(pool.max_workers, pool.submitted) for pool in InlinePool.made] == [(4, 8), (4, 4)]


def full_recount_restart(n, restart_seed, max_flips):
    """Reference for ``_one_restart``: the same descent, recounting every line and
    rescoring every flip on each step; it also returns the rule that stopped it."""
    rng = random.Random(restart_seed)
    size = 3**n
    members = np.ascontiguousarray(interval_line_members(n).T)
    bits = np.array([rng.getrandbits(1) for _ in range(size)], dtype=np.uint8)
    best = members.shape[1] + 1
    flips = 0
    sideways = 0

    def mono(ones):
        return (ones == 0) | (ones == 3)

    while True:
        cols = bits[members].view(np.int8)
        ones = cols.sum(0, dtype=np.int8)
        mono_now = mono(ones)
        violations = int(mono_now.sum())
        if violations < best:
            best, best_bits = violations, bits.copy()
        if violations == 0:
            return best, best_bits, flips, "avoider"
        if flips == max_flips:
            return best, best_bits, flips, "budget"
        gain = mono(ones + 1 - 2 * cols).view(np.int8) - mono_now
        delta = np.bincount(members.ravel(), gain.ravel(), size)
        lowest = delta.min()
        if lowest > 0:
            return best, best_bits, flips, "strict-minimum"
        candidates = np.flatnonzero(delta == lowest)
        if lowest == 0:
            sideways += 1
            if sideways > 2 * size:
                return best, best_bits, flips, "sideways"
            cell = rng.choice(candidates)
        else:
            sideways = 0
            cell = candidates[0]
        bits[cell] ^= 1
        flips += 1


def test_incremental_restart_matches_full_recount():
    # No seed tried (n <= 4, thousands of seeds) stopped at a strict minimum.
    stops = set()
    for n, max_flips in ((1, 300), (2, 300), (3, 810), (4, 2430), (5, 7290), (6, 2187)):
        for seed in range(4):
            best, bits, flips, stop = full_recount_restart(n, seed, max_flips)
            got_best, got_bits, got_flips = _one_restart(n, seed, max_flips)
            assert (got_best, got_flips) == (best, flips)
            assert np.array_equal(got_bits, bits)
            stops.add(stop)
    assert {"avoider", "budget", "sideways"} <= stops


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bucketed_restart_matches_full_recount(data):
    n = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 2**63 - 1))
    max_flips = data.draw(st.integers(1, 3 * 3**n))
    best, bits, flips = _one_restart(n, seed, max_flips)
    ref_best, ref_bits, ref_flips, _ = full_recount_restart(n, seed, max_flips)
    assert (best, flips) == (ref_best, ref_flips)
    assert np.array_equal(bits, ref_bits)


def test_incidence_lists_each_cells_lines_and_their_other_members():
    for n in range(1, 6):
        members = interval_line_members(n).tolist()
        through = _cell_lines(n)
        assert len(through) == 3**n
        seen = [[] for _ in members]
        for cell, triples in enumerate(through):
            assert [line for line, _, _ in triples] == sorted({line for line, _, _ in triples})
            for line, u, v in triples:
                assert sorted((cell, u, v)) == sorted(members[line])
                seen[line].append(cell)
        # each row appears once at each of its three members
        assert [sorted(cells) for cells in seen] == [sorted(row) for row in members]


def test_local_search_gives_up_honestly():
    report = local_search(4, seed=0, budget=40)
    assert report.outcome == OUTCOME_INCONCLUSIVE
    # the best colouring seen is reported along with its violation count
    assert report.violations > 0
    assert violation_count(report.coloring) == report.violations


def test_local_search_rejects_bad_budget():
    with pytest.raises(ValueError):
        local_search(2, seed=0, budget=0)


def test_outcome_constants():
    assert OUTCOME_FOUND == "avoider-found"
    assert OUTCOME_INCONCLUSIVE == "inconclusive"


def test_search_report_is_plain_data():
    report = SearchReport(
        mode="local",
        n=2,
        outcome=OUTCOME_INCONCLUSIVE,
        violations=3,
        seed=1,
        budget=10,
        stats={"flips": 10},
    )
    text = render_search_report(report)
    assert "violations=3" in text
    assert "coloring=-" in text
