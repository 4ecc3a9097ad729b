"""CNF export of the avoider question, plus just enough solver plumbing.

Variable i+1 is the colour of the word of rank i.  Every line (active
set a union of at most m intervals) contributes two clauses: not all
three members colour 0, not all three colour 1, so models are exactly
the colourings with no monochromatic line of that family.  Instances
are written as DIMACS with a header comment naming the encoded family
(n, m and symmetry breaking), which also names the line of each clause
pair; they can be fed to any external solver that takes a file path
and prints the usual "s SATISFIABLE" / "v ..." lines, and a small
built-in CDCL solver, which logs a DRUP proof of every unsat answer,
decides the cubes this package cares about when no solver is installed.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap
from typing import Iterable, Iterator

import numpy as np

from .cube import (
    Coloring,
    line_at_row,
    m_interval_line_members,
    m_interval_rows,
    mono_mask,
    runs_of,
)

# First word of the DIMACS comment that names an encoded instance's family.
_HEADER_TAG = "hjinterval"
_HEADER_PATTERN = rf"c {_HEADER_TAG} n=([1-9][0-9]*) m=([1-9][0-9]*) sym_break=([01])"


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula.  ``family`` is (n, m, sym_break) for an instance made by
    :func:`encode` (and read back from its DIMACS header), None for any other."""

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]
    family: tuple[int, int, bool] | None = None

    def __post_init__(self) -> None:
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause")
            for lit in cl:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} outside +-1..{self.n_vars}")


_pin_text = "{}:{}".format  # a fixed pair (p, v) in a line's name


@lru_cache(maxsize=1024)  # the writer names every row, and rows share active sets
def _runs_text(active: tuple[int, ...]) -> str:
    return "+".join(f"{lo}..{hi}" for lo, hi in runs_of(active))


def _line_name(active: tuple[int, ...], pins: Iterable[str]) -> str:
    """A line's name from its active set and pinned texts: "line 1..2+4..4 fixed=3:1,5:2"."""
    return f"line {_runs_text(active)} fixed={','.join(pins) or '-'}"


def encode(n: int, m: int = 1, sym_break: bool = False) -> CnfInstance:
    """Encode "some colouring of the n-cube avoids all m-interval lines".

    With sym_break, one unit clause pins the rank-0 cell to colour 0;
    that is sound because the colour swap maps avoiders to avoiders.
    """
    clauses = []
    for p, q, r in zip(*(m_interval_line_members(n, m) + 1).T.tolist()):
        clauses += ((p, q, r), (-p, -q, -r))
    if sym_break:
        clauses.append((-1,))
    return CnfInstance(3**n, tuple(clauses), family=(n, m, bool(sym_break)))


def write_dimacs(instance: CnfInstance) -> str:
    """DIMACS text, byte-stable for a given instance.

    A family follows the "p cnf" line as "c hjinterval n=<n> m=<m> sym_break=<0|1>";
    if the clause count is the family's, line k of the family is named above clause
    pair k and "symmetry-break rank0=0" above the unit.  So a parsed file writes
    back as it was, and a formula without a family gets no comments.
    """
    return "".join(_dimacs_lines(instance))


def _dimacs_lines(instance: CnfInstance) -> Iterator[str]:
    yield f"p cnf {instance.n_vars} {len(instance.clauses)}\n"
    clauses = (("%d " * len(cl)) % cl + "0\n" for cl in instance.clauses)
    if instance.family is not None:
        n, m, sym_break = instance.family
        yield f"c {_HEADER_TAG} n={n} m={m} sym_break={int(sym_break)}\n"
        if len(instance.clauses) == 2 * len(m_interval_line_members(n, m)) + sym_break:
            for active, pins in m_interval_rows(n, m, _pin_text):
                yield f"c {_line_name(active, pins)}\n{next(clauses)}{next(clauses)}"
            if sym_break:
                yield "c symmetry-break rank0=0\n"
    yield from clauses


def parse_dimacs(text: str) -> CnfInstance:
    """Read DIMACS back; counts are enforced, and comments are dropped
    except the family header that :func:`write_dimacs` puts after "p cnf".
    A file with that header must hold exactly the family's encoding, in order."""
    n_vars = None
    expected = None
    family = None
    lits: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for row in text.splitlines():
        row = row.strip()
        if not row:
            continue
        if row.startswith("c"):
            if row.startswith(f"c {_HEADER_TAG} "):
                match = re.fullmatch(_HEADER_PATTERN, row)
                if match is None:
                    raise ValueError(f"bad {_HEADER_TAG} header {row!r}")
                n, m, sym_break = map(int, match.groups())
                family = (n, m, bool(sym_break))
            continue
        if row.startswith("p"):
            parts = row.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise ValueError(f"bad DIMACS header {row!r}")
            n_vars, expected = int(parts[2]), int(parts[3])
            continue
        if n_vars is None:
            raise ValueError("clause before DIMACS header")
        for tok in row.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(lits))
                lits = []
            else:
                lits.append(lit)
    if n_vars is None:
        raise ValueError("missing DIMACS header")
    if lits:
        raise ValueError("trailing literals without closing 0")
    if expected != len(clauses):
        raise ValueError(f"header promises {expected} clauses, file has {len(clauses)}")
    if family is not None:
        n, m, sym_break = family
        # 3**n > 2**n, so an n past the bit length of n_vars is refused without the power.
        if n > n_vars.bit_length() or 3**n != n_vars:
            raise ValueError(
                f"{_HEADER_TAG} header says n={n}, but the file has {n_vars} variables"
            )
        # Every family holds the 3**(n-1) lines with active set {1}: a file with fewer
        # clause pairs is refused before encode builds the family's table.
        if len(clauses) < 2 * 3 ** (n - 1) or tuple(clauses) != encode(*family).clauses:
            raise ValueError(
                f"the clauses are not the encoding of n={n} m={m} sym_break={int(sym_break)} "
                f"that the {_HEADER_TAG} header names"
            )
    return CnfInstance(n_vars, tuple(clauses), family)


def write_dimacs_file(instance: CnfInstance, path: str) -> None:
    # Line by line, so the whole text never sits in memory at once.
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_dimacs_lines(instance))


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


def run_solver(cnf_path: str, command: str, timeout: float | None = None) -> SolveOutcome:
    """Invoke an external solver as ``<command> <cnf_path>`` and parse s/v lines.

    Crashes, timeouts, missing binaries and unparseable output all come
    back as status "unknown" with diagnostics, never as exceptions: a
    flaky solver must not be mistaken for a refutation.
    """
    argv = shlex.split(command) + [cnf_path]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return SolveOutcome("unknown", diagnostics=f"solver timed out after {timeout}s")
    except OSError as exc:
        return SolveOutcome("unknown", diagnostics=f"solver failed to start: {exc}")
    status = None
    model: list[int] = []
    for row in proc.stdout.splitlines():
        if row.startswith("s "):
            verdict = row[2:].strip()
            if verdict == "SATISFIABLE":
                status = "sat"
            elif verdict == "UNSATISFIABLE":
                status = "unsat"
        elif row.startswith("v "):
            for tok in row[2:].split():
                try:
                    lit = int(tok)
                except ValueError:
                    return SolveOutcome(
                        "unknown", diagnostics=f"bad literal {tok!r} in the solver's v-line"
                    )
                if lit != 0:
                    model.append(lit)
    if status == "sat":
        if not model:
            return SolveOutcome("unknown", diagnostics="solver said sat but printed no model")
        return SolveOutcome("sat", tuple(model))
    if status == "unsat":
        return SolveOutcome("unsat")
    head = (proc.stdout + proc.stderr)[:500]
    return SolveOutcome(
        "unknown", diagnostics=f"no s-line in solver output (exit {proc.returncode}): {head!r}"
    )


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

    for cl in instance.clauses:
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


class EncoderBugError(RuntimeError):
    """A decoded model fails direct verification against the encoded family:
    the solver that produced it, or the encoder, is wrong."""


def decode_model(model: Iterable[int], n: int, m: int = 1) -> Coloring:
    """Turn a model into a colouring and verify it against a direct scan.

    The model must assign every variable 1..3**n.  Verification failure
    does not return: a model that still contains a monochromatic line
    means the solver or the encoder is broken, and silently shipping such
    a "witness" would poison everything downstream.
    """
    size = 3**n
    values = {}
    for lit in model:
        var = abs(lit)
        val = lit > 0
        if values.get(var, val) != val:
            raise ValueError(f"model assigns variable {var} both ways")
        values[var] = val
    missing = [v for v in range(1, size + 1) if v not in values]
    if missing:
        raise ValueError(f"incomplete model: variable {missing[0]} of {size} unassigned")
    bits = np.fromiter((1 if values[v] else 0 for v in range(1, size + 1)), dtype=np.uint8, count=size)
    coloring = Coloring(n, bits)
    hits = np.flatnonzero(mono_mask(coloring.bits, m_interval_line_members(n, m)))
    if hits.size:
        line = line_at_row(n, int(hits[0]), m)
        name = _line_name(line.active, starmap(_pin_text, line.fixed))
        raise EncoderBugError(f"decoded model leaves {name} monochromatic")
    return coloring
