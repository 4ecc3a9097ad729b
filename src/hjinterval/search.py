"""Searching small cubes for colourings with no monochromatic interval line.

Two engines.  The exhaustive one finds the least avoider in rank order,
or refutes one, with the built-in SAT solver: one solve of the CNF
encoding, then one more for each cell that a model colours 1, asking
whether it can be 0; each UNSAT answer counts only once its DRUP proof
has been checked.  The local one is steepest descent on the violation
count with sideways moves and restarts seeded into ``random.Random``; it
keeps each cell's flip score in a Python list, and a flip moves only the
scores of its cell's neighbours (the other members of the lines through
it), each by +1 or -1 as that neighbour does or does not share the
flipped cell's old colour.  Only the cells whose flip adds no violation
are filed, in one ascending list per score, so the best flip needs no
scan and a sideways pick needs no sort.  A search builds the member table
and the neighbour lists once and hands them to every restart; restarts
run in one loop, in this process and in the workers it forks (none for
one job), which inherit the tables, and are read in seed order, so the
report does not depend on the worker count.  The encoding and the
descent read the member table; a reported colouring is
checked by the cube scan of :func:`~hjinterval.cube.mono_masks`, which
does not: each SAT model is decoded, scanned and checked against every
clause it was solved under, unit clauses included, by
:func:`~hjinterval.cnf.check_model`, and a local search's count comes
from the scan.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import time
import warnings
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from .cnf import CnfInstance, check_model, encode, solve_builtin
from .cube import Coloring, interval_line_members, mono_masks
from .drup import check_proof

OUTCOME_FOUND = "avoider-found"
OUTCOME_REFUTED = "refuted"
OUTCOME_INCONCLUSIVE = "inconclusive"


def violation_count(coloring: Coloring) -> int:
    """How many interval lines are monochromatic under the colouring, by the cube scan."""
    return sum(int(np.count_nonzero(mono)) for _, mono in mono_masks(coloring.bits, coloring.n))


@dataclass
class SearchReport:
    """Outcome of one search run, renderable as stable key=value text."""

    mode: str
    n: int
    outcome: str
    coloring: Coloring | None = None
    violations: int | None = None
    seed: int | None = None
    budget: int | None = None
    stats: dict[str, int | float] = field(default_factory=dict)


def render_search_report(report: SearchReport) -> str:
    """Serialize a report as one key=value pair per line, stable order."""
    rows = [
        f"mode={report.mode}",
        f"n={report.n}",
        f"outcome={report.outcome}",
        f"violations={'-' if report.violations is None else report.violations}",
        f"coloring={report.coloring.bitstring if report.coloring is not None else '-'}",
        f"seed={'-' if report.seed is None else report.seed}",
        f"budget={'-' if report.budget is None else report.budget}",
    ]
    for key in sorted(report.stats):
        val = report.stats[key]
        rows.append(f"{key}={val:.3f}" if isinstance(val, float) else f"{key}={val}")
    return "\n".join(rows) + "\n"


def exhaustive_search(n: int, use_symmetry: bool = True) -> SearchReport:
    """Decide whether the n-cube admits an avoider, by SAT with checked proofs.

    Returns the least avoider in rank order when one exists, else a
    refutation.  After one solve of :func:`encode`, each cell that the
    current model colours 1 is asked again with the cells before it fixed
    and itself at 0: a model replaces the current one, UNSAT fixes it at 1.
    Every UNSAT answer counts only once :func:`check_proof` accepts its
    proof, and every model must pass :func:`check_model`, whose scan of the
    cube raises :class:`~hjinterval.cnf.EncoderBugError` on a model with a
    monochromatic line; a model that breaks a clause, a unit clause
    included, raises RuntimeError.  use_symmetry adds the colour-swap unit of
    :func:`encode`; the answer is the same either way, as the swap maps an
    avoider that starts with 1 to a smaller one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t0 = time.perf_counter()
    base = encode(n, sym_break=use_symmetry)
    stats = {"solves": 0, "unsat_steps": 0, "lemmas": 0}

    def model_with(units: list[int]) -> Coloring | None:
        """A model of the formula with these unit clauses added, decoded, or None."""
        rows = np.zeros((len(units), base.clauses.shape[1]), dtype=np.int32)
        rows[:, 0] = units
        formula = CnfInstance(base.n_vars, np.vstack((base.clauses, rows)), base.family)
        outcome = solve_builtin(formula)
        stats["solves"] += 1
        if outcome.status == "sat":
            try:
                return check_model(formula, outcome.model)
            except ValueError as exc:
                raise RuntimeError(f"internal error: the built-in solver's model fails: {exc}") from None
        reason = check_proof(formula.clause_tuples(), outcome.proof)
        if reason is not None:
            raise RuntimeError(f"internal error: the built-in solver's refutation fails: {reason}")
        stats["unsat_steps"] += 1
        stats["lemmas"] += len(outcome.proof)
        return None

    model = model_with([])
    decided: list[int] = []  # one unit clause per cell fixed so far, in rank order
    for cell in range(3**n if model is not None else 0):
        if model.bits[cell] and (better := model_with([*decided, -1 - cell])) is not None:
            model = better
        decided.append(cell + 1 if model.bits[cell] else -1 - cell)
    stats["wall_time_s"] = time.perf_counter() - t0
    if model is None:
        return SearchReport("exhaustive", n, OUTCOME_REFUTED, stats=stats)
    return SearchReport("exhaustive", n, OUTCOME_FOUND, coloring=model, violations=0, stats=stats)


# --- local search ------------------------------------------------------------


def _line_tables(n: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The tables a restart reads: the rows of :func:`interval_line_members`, and per
    cell the other two members of each row through it, rows ascending.  Two cells
    share at most one line (they differ exactly on its active set and agree on its
    pinned letters), so no cell is listed twice."""
    members = interval_line_members(n)
    flat = members.ravel()
    # Member j of row r sits at 3r + j of flat, and its other two at 3r + j of others.
    others = members[:, [1, 2, 0, 2, 0, 1]].reshape(-1, 2)
    pairs = others[np.argsort(flat, kind="stable")].ravel().tolist()
    ends = (2 * np.cumsum(np.bincount(flat, minlength=3**n))).tolist()
    return members, tuple(tuple(pairs[a:b]) for a, b in zip([0, *ends], ends))


def _one_restart(tables: tuple, restart_seed: int, max_flips: int) -> tuple[int, np.ndarray, int]:
    """Steepest descent from one random colouring, on the tables of :func:`_line_tables`.

    Returns (best violation count, best bits, flips used).  Sideways moves
    are taken when no flip improves; a long sideways drift or a strict local
    minimum ends the restart early.  ``random.Random(restart_seed)`` draws one
    start bit per cell in rank order, then each sideways pick by the rule of
    ``random.choice``.  A cell's flip score, the change in violations if it
    flips, is the number of lines through it minus the number of its
    neighbours (the other members of those lines) that share its colour.  It
    is counted once with numpy, then kept in a Python list: when a cell of
    colour b flips, its score is negated, and each neighbour's moves by +1 if
    that neighbour has colour b and by -1 otherwise.  Only a cell whose flip
    adds no violation is filed, a score s <= 0 in ``buckets[-s]``, a list kept
    ascending; so a rescore touches a bucket only when its old or new score is
    <= 0.  ``top`` is at or above the highest non-empty bucket: a rescore above
    it raises it, and the next choice lowers it past empty buckets.  An
    improving flip takes the least cell of the top bucket, a sideways one the
    cell at a random index of bucket 0, which keeps its score 0 and so stays
    filed; with no bucket left, the restart is at a strict local minimum.
    """
    members, neighbours = tables
    size = len(neighbours)
    rng = random.Random(restart_seed)
    getrandbits = rng.getrandbits
    bits = [getrandbits(1) for _ in range(size)]
    cols = np.array(bits, dtype=np.uint8)[members]
    ones = cols.sum(1, dtype=np.int8)[:, None]
    violations = int(np.count_nonzero((ones == 0) | (ones == 3)))
    # A member's flip adds its line when the other two share the other colour and
    # removes it when all three agree: 2 - ones for a one, ones - 1 for a zero.
    gains = np.where(cols, 2 - ones, ones - 1).ravel()
    score = np.bincount(members.ravel(), gains, size).astype(int).tolist()
    # A score is at most the most lines through a cell either way, so top starts there.
    top = max(map(len, neighbours)) // 2
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for cell, s in enumerate(score):
        if s <= 0:
            buckets[-s].append(cell)
    # Violations never rise, so the best colouring is the one at the last improving
    # flip: bits itself until a sideways flip, which first takes its copy.
    best_bits = None
    flips = sideways = 0
    while True:
        if violations == 0 or flips == max_flips:
            break
        while top >= 0 and not buckets[top]:
            top -= 1
        if top < 0:
            break
        gain, bucket = top, buckets[top]
        if gain == 0:
            sideways += 1
            if sideways > 2 * size:
                break
            if best_bits is None:
                best_bits = bits[:]
            # rng.choice(bucket)'s draw; the cell keeps its score 0, so it stays filed.
            k = len(bucket)
            width = k.bit_length()
            i = getrandbits(width)
            while i >= k:
                i = getrandbits(width)
            cell = bucket[i]
        else:
            sideways = 0
            best_bits = None
            cell = bucket.pop(0)
            score[cell] = gain
        b = bits[cell]
        bits[cell] = 1 - b
        for u in neighbours[cell]:
            s = score[u]
            score[u] = su = s + 1 if bits[u] == b else s - 1
            if s > 1:  # then su >= 1: filed in no bucket before or after
                continue
            if s <= 0:
                lst = buckets[-s]
                del lst[bisect_left(lst, u)]
            if su <= 0:
                insort(buckets[-su], u)
                if -su > top:
                    top = -su
        violations -= gain
        flips += 1
    return violations, np.array(bits if best_bits is None else best_bits, dtype=np.uint8), flips


def _restart_results(n: int, per_restart: int, seeds: Iterator[int], workers: int) -> Iterator:
    """Each restart's result, in seed order, all read off one build of the line tables.
    Workers - 1 children, none for one worker, are forked after that build and inherit it;
    worker w (0 is this process) runs restarts k = w mod workers from its own copy of the
    seeds, and a child pickles each result down its pipe, or the type and message of the
    exception that stopped it and exits 1.  Closing kills and reaps the children."""
    tables = _line_tables(n)
    children = []  # (pid, read end) of workers 1..workers-1
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns on forking a multi-threaded process (numpy's BLAS
                # starts a thread); a child runs only _one_restart and pickle, never BLAS.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb") as out:
                        try:
                            for s in islice(seeds, w, None, workers):
                                pickle.dump(_one_restart(tables, s, per_restart), out)
                                out.flush()
                            status = 0
                        except Exception as exc:  # its cause goes to the parent, as text
                            pickle.dump(f"{type(exc).__name__}: {exc}", out)
                finally:
                    os._exit(status)
            children.append((pid, os.fdopen(read_fd, "rb")))
            os.close(write_fd)
        for s in islice(seeds, 0, None, workers):
            yield _one_restart(tables, s, per_restart)
            for w, (pid, pipe) in enumerate(children, 1):
                try:
                    result = pickle.load(pipe)
                except EOFError:  # the child ran out of seeds (exit 0) or died
                    result = None
                if isinstance(result, tuple):
                    yield result
                    continue
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.remove((pid, pipe))  # reaped: not to be killed below
                pipe.close()
                if code:
                    cause = "" if result is None else f": {result}"
                    raise RuntimeError(f"local search worker {w} ended with exit status {code}{cause}")
                return
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def local_search(n: int, seed: int, budget: int, jobs: int = 1) -> SearchReport:
    """Minimize monochromatic interval lines by single-cell flips.

    The budget is a total flip allowance, split into independently
    seeded restarts run in order; the first violation-free colouring
    ends the run, otherwise the best colouring seen is reported as
    inconclusive.  With jobs > 1 the restarts run in up to that many
    worker processes (no more than the CPUs), and the report is the same
    as with one.  Restarts are made as they are needed, so a huge budget
    costs nothing up front.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    t0 = time.perf_counter()
    per_restart = min(budget, max(30 * 3**n, 300))
    restarts = -(-budget // per_restart)
    # Mixed so that nearby (seed, k) pairs do not share low bits.
    seeds = (
        (seed * 0x9E3779B97F4A7C15 + k * 0xBF58476D1CE4E5B9 + 1) % 2**63 for k in range(restarts)
    )
    workers = min(jobs, restarts, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    results = _restart_results(n, per_restart, seeds, workers)
    used = []
    try:
        for result in results:
            used.append(result)
            if result[0] == 0:
                break
    finally:
        results.close()
    best, best_bits, _ = min(used, key=lambda r: r[0])
    flips = sum(r[2] for r in used)
    stats = {"restarts": len(used), "flips": flips, "wall_time_s": time.perf_counter() - t0}
    coloring = Coloring._adopt(n, best_bits)
    if violation_count(coloring) != best:
        raise RuntimeError(f"internal error: local search miscounted {best} violations")
    return SearchReport(
        "local", n, OUTCOME_FOUND if best == 0 else OUTCOME_INCONCLUSIVE, coloring=coloring,
        violations=best, seed=seed, budget=budget, stats=stats,
    )
