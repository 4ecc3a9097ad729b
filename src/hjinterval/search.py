"""Searching small cubes for colourings with no monochromatic interval line.

Two engines.  The exhaustive one finds the least avoider in rank order,
or refutes one, with the built-in SAT solver: one solve of the CNF
encoding, then one more for each cell that a model colours 1, asking
whether it can be 0; each UNSAT answer counts only once its DRUP proof
has been checked.  The local one is steepest descent on the violation
count with sideways moves and restarts seeded into ``random.Random``; it
keeps each line's count of ones and each cell's flip score in Python
lists, so a flip touches only the lines through its cell.  Only the cells
whose flip adds no violation are filed, in one ascending list per score,
so the best flip needs no scan and a sideways pick needs no sort.  Either
way, the reported count is re-checked by a direct scan.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterator

import numpy as np

from .cnf import CnfInstance, encode, solve_builtin
from .cube import Coloring, interval_line_members, mono_mask
from .drup import check_proof

OUTCOME_FOUND = "avoider-found"
OUTCOME_REFUTED = "refuted"
OUTCOME_INCONCLUSIVE = "inconclusive"


def violation_count(coloring: Coloring) -> int:
    """How many interval lines are monochromatic under the colouring."""
    return int(mono_mask(coloring.bits, interval_line_members(coloring.n)).sum())


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

    def semantic_fields(self) -> tuple:
        """Everything except timing, for determinism comparisons."""
        stats = {k: v for k, v in self.stats.items() if k != "wall_time_s"}
        bits = self.coloring.bitstring if self.coloring is not None else None
        return (self.mode, self.n, self.outcome, bits, self.violations, self.seed, self.budget, stats)


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
    proof.  use_symmetry adds the colour-swap unit of :func:`encode`; the
    answer is the same either way, as the swap maps an avoider that starts
    with 1 to a smaller one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t0 = time.perf_counter()
    base = encode(n, sym_break=use_symmetry)
    stats = {"solves": 0, "unsat_steps": 0, "lemmas": 0}

    def model_with(units: list[int]) -> np.ndarray | None:
        """A model of the formula with these unit clauses added, as bits, or None."""
        rows = np.zeros((len(units), base.clauses.shape[1]), dtype=np.int32)
        rows[:, 0] = units
        formula = CnfInstance(base.n_vars, np.vstack((base.clauses, rows)))
        outcome = solve_builtin(formula)
        stats["solves"] += 1
        if outcome.status == "sat":
            return (np.array(outcome.model) > 0).astype(np.uint8)
        reason = check_proof(formula.clause_tuples(), outcome.proof)
        if reason is not None:
            raise RuntimeError(f"internal error: the built-in solver's refutation fails: {reason}")
        stats["unsat_steps"] += 1
        stats["lemmas"] += len(outcome.proof)
        return None

    model = model_with([])
    decided: list[int] = []  # one unit clause per cell fixed so far, in rank order
    for cell in range(3**n if model is not None else 0):
        if model[cell] and (better := model_with([*decided, -1 - cell])) is not None:
            model = better
        decided.append(cell + 1 if model[cell] else -1 - cell)
    stats["wall_time_s"] = time.perf_counter() - t0
    if model is None:
        return SearchReport("exhaustive", n, OUTCOME_REFUTED, stats=stats)
    coloring = Coloring(n, model)
    if violation_count(coloring) != 0:
        raise RuntimeError("internal error: exhaustive search reported a non-avoider")
    return SearchReport(
        "exhaustive", n, OUTCOME_FOUND, coloring=coloring, violations=0, stats=stats
    )


# --- local search ------------------------------------------------------------


#: _GAIN[2*o + b]: change in a line's violation when a colour-b member flips, o its ones.
_GAIN = np.array([-1, 0, 0, 1, 1, 0, 0, -1], dtype=np.int8)
#: _RESCORE[b][2*o + u]: change in a colour-u member's gain when a colour-b member of its
#: line flips (o ones before); the wrapped entries belong to (o, b) pairs that cannot occur.
_RESCORE = [(np.roll(_GAIN, shift) - _GAIN).tolist() for shift in (-2, 2)]


@lru_cache(maxsize=8)
def _cell_lines(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per cell, one (line, other, other) triple for each row of
    :func:`interval_line_members` through it, rows ascending.  The cell ids
    come from one list, so the triples share their int objects."""
    ids = list(range(3**n))
    through: list[list[tuple[int, int, int]]] = [[] for _ in ids]
    for line, (a, b, c) in enumerate(interval_line_members(n).tolist()):
        a, b, c = ids[a], ids[b], ids[c]
        through[a].append((line, b, c))
        through[b].append((line, a, c))
        through[c].append((line, a, b))
    return tuple(map(tuple, through))


def _one_restart(n: int, restart_seed: int, max_flips: int) -> tuple[int, np.ndarray, int]:
    """Steepest descent from one random colouring.

    Returns (best violation count, best bits, flips used).  Sideways moves
    are taken when no flip improves; a long sideways drift or a strict local
    minimum ends the restart early.  ``random.Random(restart_seed)`` draws one
    start bit per cell in rank order, then each sideways pick.  Line counts
    and flip scores are counted once with numpy, then kept in Python lists:
    a flip moves the counts of the lines through its cell and rescores only
    their other members.  Only a cell whose flip adds no violation is filed,
    a score s <= 0 in ``buckets[-s]``, a list kept ascending; so a rescore
    touches a bucket only when its old or new score is <= 0.  ``top`` is at
    or above the highest non-empty bucket: a rescore above it raises it, and
    the next choice lowers it past empty buckets.  An improving flip takes
    the least cell of the top bucket, a sideways one the cell at a random
    index of bucket 0; with no bucket left, the restart is at a strict
    local minimum.
    """
    size = 3**n
    members = interval_line_members(n)
    through = _cell_lines(n)
    rng = random.Random(restart_seed)
    bits = [rng.getrandbits(1) for _ in range(size)]
    cols = np.array(bits, dtype=np.uint8)[members]
    twice = 2 * cols.sum(1, dtype=np.int8)  # twice each line's count of ones
    violations = int(np.count_nonzero((twice == 0) | (twice == 6)))
    delta = np.bincount(members.ravel(), _GAIN[twice[:, None] + cols].ravel(), size)
    # score[c]: the change in violations if cell c flips, at most the most lines through
    # a cell either way, so top starts there.
    twice, score = twice.tolist(), delta.astype(int).tolist()
    top = max(map(len, through))
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for cell, s in enumerate(score):
        if s <= 0:
            buckets[-s].append(cell)
    best = members.shape[0] + 1
    flips = sideways = 0
    while True:
        if violations < best:
            best, best_bits = violations, bits[:]
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
            cell = rng.choice(bucket)
            del bucket[bisect_left(bucket, cell)]
        else:
            sideways = 0
            cell = bucket.pop(0)
        b = bits[cell]
        bits[cell] = 1 - b
        step = 2 - 4 * b
        rescore = _RESCORE[b]
        for line, u, v in through[cell]:
            old = twice[line]
            twice[line] = old + step
            s = score[u]
            score[u] = su = s + rescore[old + bits[u]]
            if s <= 0:
                lst = buckets[-s]
                del lst[bisect_left(lst, u)]
            if su <= 0:
                insort(buckets[-su], u)
                if -su > top:
                    top = -su
            s = score[v]
            score[v] = sv = s + rescore[old + bits[v]]
            if s <= 0:
                lst = buckets[-s]
                del lst[bisect_left(lst, v)]
            if sv <= 0:
                insort(buckets[-sv], v)
                if -sv > top:
                    top = -sv
        score[cell] = gain  # flipping it back would undo the move
        if gain == 0:
            insort(bucket, cell)
        violations -= gain
        flips += 1
    return best, np.array(best_bits, dtype=np.uint8), flips


def _restart_results(n: int, per_restart: int, seeds: Iterator[int], workers: int) -> Iterator:
    """Each restart's result, in seed order.  With workers > 1 the restarts run in a
    process pool, handed that many at a time; closing the generator ends the pool."""
    if workers == 1:
        yield from (_one_restart(n, s, per_restart) for s in seeds)
        return
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        while batch := list(islice(seeds, workers)):
            futures = [pool.submit(_one_restart, n, s, per_restart) for s in batch]
            yield from (future.result() for future in futures)


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
    restarts = max(1, -(-budget // per_restart))
    # Mixed so that nearby (seed, k) pairs do not share low bits.
    seeds = (
        (seed * 0x9E3779B97F4A7C15 + k * 0xBF58476D1CE4E5B9 + 1) % 2**63 for k in range(restarts)
    )
    results = _restart_results(n, per_restart, seeds, min(jobs, restarts, os.cpu_count() or 1))
    used = []
    for result in results:
        used.append(result)
        if result[0] == 0:
            break
    results.close()
    best, best_bits, _ = min(used, key=lambda r: r[0])
    flips = sum(r[2] for r in used)
    stats = {"restarts": len(used), "flips": flips, "wall_time_s": time.perf_counter() - t0}
    coloring = Coloring(n, best_bits)
    if violation_count(coloring) != best:
        raise RuntimeError(f"internal error: local search miscounted {best} violations")
    return SearchReport(
        "local", n, OUTCOME_FOUND if best == 0 else OUTCOME_INCONCLUSIVE, coloring=coloring,
        violations=best, seed=seed, budget=budget, stats=stats,
    )
