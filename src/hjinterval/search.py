"""Searching small cubes for colourings with no monochromatic interval line.

Two engines.  The exhaustive one walks all two-colourings of the n-cube
in lexicographic order of their rank-indexed bitstrings, pruning both on
completed monochromatic lines and (optionally) on prefixes that can
never be the least member of their symmetry orbit; the first surviving
leaf is therefore the lexicographically least avoider overall.  The
local one is plain steepest descent on the violation count with sideways
moves and seeded restarts; it keeps each line's count of ones and each
cell's flip score up to date, so a flip touches only the lines through
its cell.  Either way, the reported count is re-checked by a direct scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cube import (
    Coloring,
    all_symmetries,
    interval_line_members,
    mono_mask,
    rank_permutation,
)

#: Exhaustive search refuses to run above this dimension; larger n goes to SAT.
EXHAUSTIVE_CAP = 3

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


def _symmetry_tables(n: int) -> list[tuple[list[int], int]]:
    """Rank permutation and colour flip for every non-identity group element."""
    tables = []
    for g in all_symmetries():
        flip = 1 if g.swap_colors else 0
        perm = rank_permutation(g, n)
        if flip == 0 and np.array_equal(perm, np.arange(3**n)):
            continue
        tables.append((perm.tolist(), flip))
    return tables


def exhaustive_search(n: int, use_symmetry: bool = True) -> SearchReport:
    """Decide whether the n-cube admits an avoider, by complete enumeration.

    Returns the lexicographically least avoider when one exists (its
    bitstring read in rank order), else a refutation.  The symmetry
    toggle only trims the walk; the outcome is the same either way.
    Dimensions above :data:`EXHAUSTIVE_CAP` are refused because the space grows as
    2**(3**n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXHAUSTIVE_CAP:
        raise ValueError(
            f"n={n} exceeds the exhaustive cap {EXHAUSTIVE_CAP}; decide it by SAT instead: "
            f"hjinterval encode --n {n} --out FILE, then hjinterval solve --cnf FILE"
        )
    t0 = time.perf_counter()
    size = 3**n
    members = interval_line_members(n).tolist()
    closing: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for p, q, r in members:
        closing[r].append((p, q))
    sym = _symmetry_tables(n) if use_symmetry else []
    bits = bytearray(size)
    stats = {"nodes": 0, "violation_prunes": 0, "symmetry_prunes": 0, "leaves": 0}

    def prefix_has_smaller_image(k: int) -> bool:
        # A prefix dies when some group image of every completion is
        # lexicographically smaller, which is decided as soon as the
        # first differing position is assigned on both sides.
        for perm, flip in sym:
            for j in range(size):
                pj = perm[j]
                if j > k or pj > k:
                    break
                own = bits[j]
                img = bits[pj] ^ flip
                if img < own:
                    return True
                if img > own:
                    break
        return False

    def walk(k: int) -> bytes | None:
        if k == size:
            stats["leaves"] += 1
            return bytes(bits)
        for b in (0, 1):
            stats["nodes"] += 1
            bits[k] = b
            violated = False
            for p, q in closing[k]:
                if bits[p] == b and bits[q] == b:
                    violated = True
                    break
            if violated:
                stats["violation_prunes"] += 1
                continue
            if sym and prefix_has_smaller_image(k):
                stats["symmetry_prunes"] += 1
                continue
            hit = walk(k + 1)
            if hit is not None:
                return hit
        return None

    found = walk(0)
    stats["wall_time_s"] = time.perf_counter() - t0
    if found is None:
        return SearchReport("exhaustive", n, OUTCOME_REFUTED, stats=stats)
    coloring = Coloring(n, np.frombuffer(found, dtype=np.uint8))
    violations = violation_count(coloring)
    if violations != 0:
        raise RuntimeError("internal error: exhaustive search reported a non-avoider")
    return SearchReport(
        "exhaustive", n, OUTCOME_FOUND, coloring=coloring, violations=0, stats=stats
    )


# --- local search ------------------------------------------------------------


def _restart_seed(seed: int, index: int) -> int:
    # Mix so that nearby (seed, index) pairs do not share low bits.
    return (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) % (1 << 63)


#: _GAIN[2*o + b]: change in a line's violation when a colour-b member flips, o its ones.
_GAIN = np.array([-1, 0, 0, 1, 1, 0, 0, -1], dtype=np.int8)
#: _RESCORE[b][2*o + u]: change in a colour-u member's gain when a colour-b member of its
#: line flips (o ones before); the wrapped entries belong to (o, b) pairs that cannot occur.
_RESCORE = np.stack((np.roll(_GAIN, -2) - _GAIN, np.roll(_GAIN, 2) - _GAIN))


@lru_cache(maxsize=8)
def _incidence(n: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Per cell c, slices start[c]:start[c + 1] of its rows of :func:`interval_line_members`
    (ascending) and of the two other members of each row."""
    members = interval_line_members(n)
    lines, pos = np.divmod(np.argsort(members.ravel(), kind="stable").astype(np.int32), 3)
    others = members[lines[:, None], (pos[:, None] + (1, 2)) % 3].astype(np.int32)
    lines.flags.writeable = others.flags.writeable = False
    return [0, *np.bincount(members.ravel(), minlength=3**n).cumsum().tolist()], lines, others


def _one_restart(n: int, restart_seed: int, max_flips: int) -> tuple[int, np.ndarray, int]:
    """Steepest descent from one random colouring.

    Returns (best violation count, best bits, flips used).  Sideways
    moves are taken when no flip improves; a long sideways drift or a
    strict local minimum ends the restart early.  Line counts and flip
    scores are counted once; a flip then moves the counts of the lines
    through its cell and rescores only their other members.
    """
    rng = np.random.default_rng(restart_seed)
    size = 3**n
    members = interval_line_members(n)
    start, cell_lines, cell_others = _incidence(n)
    bits = rng.integers(0, 2, size=size, dtype=np.uint8)
    cols = bits[members]
    twice = 2 * cols.sum(1, dtype=np.int8)  # twice each line's count of ones
    violations = int(np.count_nonzero((twice == 0) | (twice == 6)))
    delta = np.bincount(members.ravel(), _GAIN[twice[:, None] + cols].ravel(), size)
    delta = delta.astype(np.int32)  # delta[c]: the change in violations if cell c flips
    best = members.shape[0] + 1
    flips = 0
    sideways = 0
    while True:
        if violations < best:
            best, best_bits = violations, bits.copy()
        if violations == 0 or flips == max_flips:
            break
        lowest = delta.min()
        if lowest > 0:
            break
        candidates = np.flatnonzero(delta == lowest)
        if lowest == 0:
            sideways += 1
            if sideways > 2 * size:
                break
            cell = candidates[rng.integers(0, candidates.size)]
        else:
            sideways = 0
            cell = candidates[0]
        lo, hi = start[cell], start[cell + 1]
        lines, others = cell_lines[lo:hi], cell_others[lo:hi]
        b = int(bits[cell])
        bits[cell] = 1 - b
        old = twice[lines]
        twice[lines] = old + (2 - 4 * b)
        delta[others] += _RESCORE[b][old[:, None] + bits[others]]
        delta[cell] = -lowest  # flipping it back would undo the move
        violations += int(lowest)
        flips += 1
    return best, best_bits, flips


def local_search(n: int, seed: int, budget: int, jobs: int = 1) -> SearchReport:
    """Minimize monochromatic interval lines by single-cell flips.

    The budget is a total flip allowance, split into independently
    seeded restarts run in order; the first violation-free colouring
    ends the run, otherwise the best colouring seen is reported as
    inconclusive.  With jobs > 1 the restarts run in worker processes,
    and the report is the same as with one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    t0 = time.perf_counter()
    size = 3**n
    per_restart = min(budget, max(30 * size, 300))
    restarts = max(1, -(-budget // per_restart))
    args = [(n, _restart_seed(seed, k), per_restart) for k in range(restarts)]
    pool = None
    if jobs > 1 and restarts > 1:
        import concurrent.futures

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, restarts))
    used = []
    try:
        for result in (pool.map if pool else map)(_one_restart, *zip(*args)):
            used.append(result)
            if result[0] == 0:
                break
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    best, best_bits, _ = min(used, key=lambda r: r[0])
    stats = {
        "restarts": len(used),
        "flips": sum(r[2] for r in used),
        "wall_time_s": time.perf_counter() - t0,
    }
    coloring = Coloring(n, best_bits)
    if violation_count(coloring) != best:
        raise RuntimeError(f"internal error: local search miscounted {best} violations")
    return SearchReport(
        "local", n, OUTCOME_FOUND if best == 0 else OUTCOME_INCONCLUSIVE, coloring=coloring,
        violations=best, seed=seed, budget=budget, stats=stats,
    )
