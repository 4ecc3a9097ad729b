"""The built-in CDCL solver and the verdict type every solver returns.

It reads an instance's clauses through ``clause_tuples()`` and needs
nothing else of :mod:`hjinterval.cnf`, which re-exports both names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cnf import CnfInstance


@dataclass(frozen=True)
class SolveOutcome:
    """Solver verdict: sat with a model, unsat, or unknown with a reason.

    ``proof`` holds the built-in solver's learnt clauses, in order, as
    DRUP lemmas; an unsat proof ends with the empty clause.  It is None
    for an external solver.
    """

    status: str
    model: tuple[int, ...] | None = None
    diagnostics: str = ""
    proof: tuple[tuple[int, ...], ...] | None = None


def _luby(i: int) -> int:
    """The i-th term (from 1) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def solve_builtin(instance: CnfInstance, timeout: float | None = None) -> SolveOutcome:
    """Complete CDCL solver in the MiniSat mould (Een & Sorensson 2003).

    Two watched literals, first-UIP clause learning, activity branching
    with phase saving (colour 0 first) and Luby restarts.  There is no
    randomness, so an instance always gets the same model, and no learnt
    clause is ever deleted.  Every learnt clause is logged, in order, as
    a DRUP lemma in ``proof``; an unsat run ends the proof with the empty
    clause.  With a timeout in seconds, the clock is read once per
    conflict, and a run past it stops with status "unknown".  Inside,
    literal l is coded 2*|l| + (l < 0), so code ^ 1 is its negation.
    """
    # Imported here so that importing the package does not load it.
    from heapq import heapify, heappop, heappush

    n_vars = instance.n_vars
    value: list[bool | None] = [None] * (2 * n_vars + 2)  # per literal code
    level = [0] * (n_vars + 1)
    reason: list[int | None] = [None] * (n_vars + 1)  # clause that implied the variable
    phase = [False] * (n_vars + 1)  # last value, True for the positive literal
    activity = [0.0] * (n_vars + 1)
    heap = [(0.0, var) for var in range(1, n_vars + 1)]  # (-activity, var), lazily pruned
    clauses: list[list[int]] = []  # watched literals in positions 0 and 1
    watches: list[list[int]] = [[] for _ in range(2 * n_vars + 2)]
    trail: list[int] = []
    limits: list[int] = []  # trail length when each decision level began
    proof: list[tuple[int, ...]] = []
    qhead = 0
    bump_by = 1.0

    def assign(lit: int, why: int | None) -> None:
        value[lit], value[lit ^ 1] = True, False
        level[lit >> 1], reason[lit >> 1] = len(limits), why
        trail.append(lit)

    def add_clause(lits: list[int]) -> None:
        ci = len(clauses)
        clauses.append(lits)
        watches[lits[0]].append(ci)
        watches[lits[1]].append(ci)

    def propagate() -> int | None:
        """Unit propagation; returns a falsified clause, or None."""
        nonlocal qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watching = watches[false_lit]
            watches[false_lit] = kept = []
            for k, ci in enumerate(watching):
                c = clauses[ci]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if value[first]:
                    kept.append(ci)
                    continue
                for j in range(2, len(c)):
                    if value[c[j]] is not False:
                        c[1], c[j] = c[j], false_lit
                        watches[c[1]].append(ci)
                        break
                else:
                    kept.append(ci)
                    if value[first] is False:
                        kept.extend(watching[k + 1 :])
                        return ci
                    assign(first, ci)
        return None

    def analyze(ci: int) -> list[int]:
        """The first-UIP learnt clause of a conflict, asserting literal first."""
        nonlocal bump_by
        seen = set()
        learnt = [0]
        pending = 0
        idx = len(trail) - 1
        lit = None
        while True:
            c = clauses[ci]
            for q in c if lit is None else c[1:]:  # a reason clause holds its implied literal first
                var = q >> 1
                if var not in seen and level[var]:
                    seen.add(var)
                    activity[var] += bump_by
                    if level[var] == len(limits):
                        pending += 1
                    else:
                        learnt.append(q)
            while trail[idx] >> 1 not in seen:
                idx -= 1
            lit = trail[idx]
            idx -= 1
            pending -= 1
            if not pending:
                break
            ci = reason[lit >> 1]
        learnt[0] = lit ^ 1
        bump_by /= 0.95
        if bump_by > 1e100:
            for var in range(1, n_vars + 1):
                activity[var] *= 1e-100
            bump_by *= 1e-100
            rebuild_heap()
        return learnt

    def rebuild_heap() -> None:
        heap[:] = [(-activity[v], v) for v in range(1, n_vars + 1) if value[2 * v] is None]
        heapify(heap)

    def backtrack(target: int) -> None:
        nonlocal qhead
        if len(limits) > target:
            qhead = limits[target]
            for lit in trail[qhead:]:
                var = lit >> 1
                value[lit] = value[lit ^ 1] = None
                phase[var] = not lit & 1
                heappush(heap, (-activity[var], var))
            del trail[qhead:], limits[target:]

    def unsat() -> SolveOutcome:
        proof.append(())
        return SolveOutcome("unsat", proof=tuple(proof))

    for cl in instance.clause_tuples():
        lits = list(dict.fromkeys(2 * abs(l) + (l < 0) for l in cl))
        if len(lits) > 1:
            add_clause(lits)
        elif value[lits[0]] is None:
            assign(lits[0], None)
        elif value[lits[0]] is False:
            return unsat()
    deadline = None if timeout is None else time.monotonic() + timeout
    conflicts = 0
    restarts = 0
    next_restart = 100 * _luby(1)
    while True:
        ci = propagate()
        if ci is None:
            if conflicts >= next_restart:
                restarts += 1
                next_restart = conflicts + 100 * _luby(restarts + 1)
                backtrack(0)
                rebuild_heap()
            elif len(heap) > 2 * n_vars:  # drop the stale entries that backtracking left
                rebuild_heap()
            while heap and value[2 * heap[0][1]] is not None:
                heappop(heap)
            if not heap:
                model = tuple(v if value[2 * v] else -v for v in range(1, n_vars + 1))
                return SolveOutcome("sat", model, proof=tuple(proof))
            var = heappop(heap)[1]
            limits.append(len(trail))
            assign(2 * var + (not phase[var]), None)
        elif not limits:
            return unsat()
        else:
            if deadline is not None and time.monotonic() >= deadline:
                return SolveOutcome(
                    "unknown",
                    diagnostics=f"built-in solver reached its {timeout}s limit after "
                    f"{conflicts} conflicts and {len(proof)} lemmas",
                )
            conflicts += 1
            learnt = analyze(ci)
            # The asserting literal first, then the one of the highest level left.
            learnt.sort(key=lambda q: level[q >> 1], reverse=True)
            proof.append(tuple(-(q >> 1) if q & 1 else q >> 1 for q in learnt))
            if len(learnt) == 1:
                backtrack(0)
                assign(learnt[0], None)
            else:
                backtrack(level[learnt[1] >> 1])
                add_clause(learnt)
                assign(learnt[0], len(clauses) - 1)
