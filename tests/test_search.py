import hashlib
import itertools
import os
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjinterval import cnf, cube, search
from hjinterval.cnf import EncoderBugError, SolveOutcome
from hjinterval.cube import Coloring, Word, apply_symmetry, all_symmetries, interval_line_members
from hjinterval.search import (
    OUTCOME_FOUND,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_REFUTED,
    SearchReport,
    _line_tables,
    _one_restart,
    exhaustive_search,
    local_search,
    render_search_report,
    violation_count,
)

from oracles import coloring_from_bits

LEAST_AVOIDERS = {
    1: "001",
    2: "001010100",
    3: "001010100001100011110001011",
    4: "001010100101010010010101101101001010010100101001110010010110101101101010100001011",
}


def semantic_fields(report):
    """Everything in a report except timing, for determinism comparisons."""
    stats = {k: v for k, v in report.stats.items() if k != "wall_time_s"}
    bits = report.coloring.bitstring if report.coloring is not None else None
    return (report.mode, report.n, report.outcome, bits, report.violations, report.seed, report.budget, stats)


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
        c = coloring_from_bits(n, [int(b) for b in bits])
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
        c = coloring_from_bits(2, bits)
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


def test_exhaustive_checks_each_model_against_its_unit_clauses(monkeypatch):
    # A stand-in solver that answers every formula with its first model, whatever unit
    # clauses were added: a search that only scanned the models reported the avoider
    # 001011110001110110110100001 as the least, not 001010100001100011110001011.
    first = []

    def stale(instance):
        if not first:
            first.append(cnf.solve_builtin(instance))
        return first[0]

    monkeypatch.setattr(search, "solve_builtin", stale)
    unit = r"internal error: the built-in solver's model fails: clause 72 \(-3 0\) has no true literal"
    with pytest.raises(RuntimeError, match=unit):
        exhaustive_search(3)


@pytest.fixture
def table_without_last_row(monkeypatch):
    """The member table that the encoder and the local search read loses its last row,
    at n=4 the line 3331, 3332, 3333."""
    full = cube.m_interval_line_members
    for module in (cube, cnf):
        monkeypatch.setattr(module, "m_interval_line_members", lambda n, m: full(n, m)[:-1])


def test_reported_colourings_are_scanned_past_the_table(table_without_last_row):
    # Both engines trust the shortened table; the scan of the cube does not read it.
    with pytest.raises(EncoderBugError, match="leaves line 3331,3332,3333 monochromatic"):
        exhaustive_search(4)
    with pytest.raises(RuntimeError, match="local search miscounted 0 violations"):
        local_search(4, seed=1, budget=40000)


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
    assert semantic_fields(a) == semantic_fields(b)
    assert "wall_time_s" not in str(semantic_fields(a))


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
    assert semantic_fields(a) == semantic_fields(b)
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


def test_local_search_jobs_invariant(monkeypatch):
    # Two CPUs are reported, so jobs=2 forks a worker on any host.  (6, 3, 87480) runs
    # four restarts, two in each worker; (5, 4, 21870) runs three and finds no avoider,
    # so the best of them is chosen.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for n, seed, budget in ((3, 9, 8000), (6, 3, 87480), (5, 4, 21870)):
        a = local_search(n, seed=seed, budget=budget, jobs=1)
        b = local_search(n, seed=seed, budget=budget, jobs=2)
        assert semantic_fields(a) == semantic_fields(b)
        if n == 6:
            assert a.stats["restarts"] == 4
    assert a.outcome == OUTCOME_INCONCLUSIVE and a.stats["restarts"] == 3


def test_local_search_makes_restarts_only_as_needed():
    # 333 million restarts fit this budget; the first one finds an avoider
    report = local_search(1, seed=0, budget=10**11)
    assert report.outcome == OUTCOME_FOUND
    assert report.stats["restarts"] == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_local_search_workers_are_bounded_lazy_and_checked(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    # Of 17 restarts the sixth finds an avoider, in worker 1: three children, not 63.
    report = local_search(4, seed=7, budget=40000, jobs=64)
    assert semantic_fields(report) == semantic_fields(local_search(4, seed=7, budget=40000))
    assert len(forks) == 3
    # 333 million restarts fit this budget: no worker may list its seeds.
    report = local_search(1, seed=0, budget=10**11, jobs=64)
    assert report.outcome == OUTCOME_FOUND and report.stats["restarts"] == 1
    assert len(forks) == 6

    # Without os.fork every restart runs in this process.
    calls, restart = [], search._one_restart
    monkeypatch.setattr(search, "_one_restart", lambda *args: calls.append(args) or restart(*args))
    monkeypatch.delattr(os, "fork")
    report = local_search(5, seed=4, budget=21870, jobs=64)
    assert len(calls) == report.stats["restarts"] == 3
    assert semantic_fields(report) == semantic_fields(local_search(5, seed=4, budget=21870))
    monkeypatch.undo()

    # A worker whose restart raises ends with status 1, and the search says so and why.
    parent = os.getpid()

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise ValueError("the restart fails")
        return restart(*args)

    monkeypatch.setattr(search, "_one_restart", fails_in_a_child)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the search hung on a failed worker"))
    signal.alarm(60)
    try:
        with pytest.raises(
            RuntimeError, match="worker 1 ended with exit status 1: ValueError: the restart fails"
        ):
            local_search(5, seed=4, budget=21870, jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
            got_best, got_bits, got_flips = _one_restart(_line_tables(n), seed, max_flips)
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
    best, bits, flips = _one_restart(_line_tables(n), seed, max_flips)
    ref_best, ref_bits, ref_flips, _ = full_recount_restart(n, seed, max_flips)
    assert (best, flips) == (ref_best, ref_flips)
    assert np.array_equal(bits, ref_bits)


def test_restart_stops_at_a_strict_local_minimum():
    # No two of these 22 lines on 13 cells share two cells.  Seed 19 starts at
    # 1011101000110, which leaves 2 of them monochromatic, and every flip there adds
    # more lines than it removes: no cube's table and seed was seen to stop so.
    rows = [
        (4, 9, 11), (8, 11, 12), (1, 5, 9), (4, 7, 12), (5, 6, 12), (0, 6, 10), (2, 6, 8), (3, 7, 11),
        (3, 4, 5), (1, 2, 7), (1, 10, 12), (0, 1, 11), (0, 9, 12), (2, 3, 12), (2, 5, 10), (3, 9, 10),
        (1, 3, 8), (0, 5, 7), (0, 4, 8), (7, 8, 10), (6, 7, 9), (1, 4, 6),
    ]
    others = [[] for _ in range(13)]
    for row in rows:
        for j, cell in enumerate(row):
            others[cell] += row[:j] + row[j + 1:]
    best, bits, flips = _one_restart((np.array(rows), tuple(map(tuple, others))), 19, 1000)
    assert (best, "".join(map(str, bits)), flips) == (2, "1011101000110", 0)


def test_neighbours_list_the_other_members_of_each_row_through_a_cell():
    for n in range(1, 7):
        members = interval_line_members(n).tolist()
        others = [[] for _ in range(3**n)]
        for row in members:
            for j, cell in enumerate(row):
                others[cell] += row[:j] + row[j + 1:]
        neighbours = _line_tables(n)[1]
        assert [list(cells) for cells in neighbours] == others
        assert all(sorted(cells) == sorted(set(cells)) for cells in neighbours)


def recounted_flip_scores(bits, members):
    """Each cell's flip score counted from scratch: the violations with that one
    cell flipped, minus the violations now."""
    size = len(bits)
    flipped = np.tile(bits, (size + 1, 1))
    flipped[np.arange(size), np.arange(size)] ^= 1  # row c flips cell c; the last row none
    ones = flipped[:, members].sum(2)
    violations = ((ones == 0) | (ones == 3)).sum(1)
    return violations[:-1] - violations[-1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_flip_moves_each_neighbours_score_by_colour_agreement(data):
    n = data.draw(st.integers(1, 4))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=3**n, max_size=3**n)), dtype=np.uint8)
    members = interval_line_members(n)
    before = recounted_flip_scores(bits, members)
    for cell, neighbours in enumerate(_line_tables(n)[1]):
        after_bits = bits.copy()
        after_bits[cell] ^= 1
        expected = before.copy()
        expected[cell] = -before[cell]
        for u in neighbours:
            expected[u] += 1 if bits[u] == bits[cell] else -1
        assert np.array_equal(recounted_flip_scores(after_bits, members), expected)


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


@pytest.mark.parametrize(
    "args, kwargs, message",
    [((0, 0, 100), {}, "n must be >= 1"), ((2, 0, 100), {"jobs": 0}, "jobs must be >= 1")],
)
def test_local_search_refuses_bad_arguments(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        local_search(*args, **kwargs)
