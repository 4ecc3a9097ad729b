"""CNF export of the avoider question, plus just enough solver plumbing.

Variable i+1 is the colour of the word of rank i.  Every line (active
set a union of at most m intervals) contributes two clauses: not all
three members colour 0, not all three colour 1, so models are exactly
the colourings with no monochromatic line of that family.  Clauses are
one int32 array: clause k is row k, zero-padded after its last literal
(width 3 for every encoded family; the sym-break unit is -1 0 0).
Instances are written as DIMACS with a header comment naming the encoded
family (n, m and symmetry breaking), which also names the line of each
clause pair; they can be fed to any external solver that takes a file
path and prints the usual "s SATISFIABLE" / "v ..." lines, and a small
built-in CDCL solver, which logs a DRUP proof of every unsat answer,
decides the cubes this package cares about when no solver is installed.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .cube import (
    ALPHABET,
    Coloring,
    is_count,
    line_at_row,
    line_names,
    m_interval_active_sets,
    m_interval_line_members,
    mono_mask,
)

# First word of the DIMACS comment that names an encoded instance's family.
_HEADER_TAG = "hjinterval"
_HEADER_PATTERN = rf"c {_HEADER_TAG} n=([1-9][0-9]{{0,17}}) m=([1-9][0-9]{{0,17}}) sym_break=([01])"


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula: ``clauses`` is a 2-D integer array, one clause a row, zeros after
    its last literal, kept as a read-only int32 copy.  ``family`` is (n, m, sym_break)
    for an instance made by :func:`encode` (and read back from DIMACS), None for any other."""

    n_vars: int
    clauses: np.ndarray
    family: tuple[int, int, bool] | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.clauses, dtype=np.int64)
        if rows.ndim != 2 or not 0 <= self.n_vars < 2**31:
            raise ValueError(f"need a 2-D clause array and 0..2**31-1 variables, not {self.n_vars}")
        # Clause k is well formed when it starts with a literal and no literal follows a 0.
        # Whole-array tests first: numpy reduces a short row many times slower.
        live = rows != 0
        gaps = live[:, 1:] > live[:, :-1]
        if np.count_nonzero(live[:, :1]) < len(rows) or gaps.any():
            bad = ~live[:, :1].any(1) | gaps.any(1)
            raise ValueError(f"clause {bad.argmax()} is empty or has a 0 before its last literal")
        if rows.size and (rows.max() > self.n_vars or rows.min() < -self.n_vars):
            beyond = (rows > self.n_vars) | (rows < -self.n_vars)
            raise ValueError(f"literal {rows[beyond][0]} outside +-1..{self.n_vars}")
        object.__setattr__(self, "clauses", rows.astype(np.int32))
        self.clauses.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CnfInstance):
            return NotImplemented
        same = (self.n_vars, self.family) == (other.n_vars, other.family)
        return same and bool(np.array_equal(self.clauses, other.clauses))

    def clause_tuples(self) -> list[tuple[int, ...]]:
        """The clauses as tuples of Python ints, the padding stripped."""
        return [tuple(filter(None, row)) for row in self.clauses.tolist()]


def encode(n: int, m: int = 1, sym_break: bool = False) -> CnfInstance:
    """Encode "some colouring of the n-cube avoids all m-interval lines".

    With sym_break, one unit clause pins the rank-0 cell to colour 0;
    that is sound because the colour swap maps avoiders to avoiders.
    """
    members = m_interval_line_members(n, m)
    rows = np.empty((2 * len(members) + bool(sym_break), 3), dtype=np.int32)
    lits = rows[: 2 * len(members) : 2]
    # Exact in int32 for n <= 19; CnfInstance refuses the 3**n variables of any larger n.
    np.add(members, 1, out=lits, casting="same_kind")
    np.negative(lits, out=rows[1 : 2 * len(members) : 2])
    if sym_break:
        rows[-1] = (-1, 0, 0)
    return CnfInstance(3**n, rows, family=(n, m, bool(sym_break)))


def write_dimacs(instance: CnfInstance) -> str:
    """DIMACS text, byte-stable for a given instance.

    A family follows the "p cnf" line as "c hjinterval n=<n> m=<m> sym_break=<0|1>";
    if the clause count is the family's, line k of the family is named above clause
    pair k and "symmetry-break rank0=0" above the unit.  So a parsed file writes
    back as it was, and a formula without a family gets no comments.
    """
    return "".join(_dimacs_lines(instance))


def _dimacs_lines(instance: CnfInstance) -> Iterator[str]:
    rows = instance.clauses
    yield f"p cnf {instance.n_vars} {len(rows)}\n"
    names: list[str] = []  # the comment line above each even row, from the family
    if instance.family is not None:
        n, m, sym_break = instance.family
        yield f"c {_HEADER_TAG} n={n} m={m} sym_break={int(sym_break)}\n"
        if len(rows) == 2 * len(m_interval_line_members(n, m)) + sym_break:
            for active in m_interval_active_sets(n, m):
                pins = [(p, ALPHABET) for p in range(1, n + 1) if p not in active]
                names += line_names(active, pins, ("c ", "\n"))
            names += ["c symmetry-break rank0=0\n"] * sym_break
    # words[top + v] is literal v's text ("" for the padding 0): like the solver's
    # per-variable lists, it takes memory in proportion to the largest variable.
    top = int(np.abs(rows).max(initial=0))
    words = np.array([f"{v} " if v else "" for v in range(-top, top + 1)], dtype=object)
    for start in range(0, len(rows), 4096):  # a slice at a time, so no text is ever whole
        block, above = rows[start : start + 4096], names[start // 2 : start // 2 + 2048]
        cells = np.empty((len(block), block.shape[1] + 2), dtype=object)  # row k: clause k
        cells[:, 0], cells[:, 1:-1], cells[:, -1] = "", words[top + block], "0\n"
        cells[: 2 * len(above) : 2, 0] = above
        yield "".join(cells.ravel().tolist())


def parse_dimacs(text: str) -> CnfInstance:
    """Read DIMACS back; counts are enforced, and comments are dropped
    except the family header that :func:`write_dimacs` puts after "p cnf".
    A file with that header must hold exactly the family's encoding, in order."""
    n_vars = expected = family = None
    body: list[str] = []  # the clause lines
    for row in text.splitlines():
        row = row.strip()
        if not row:
            continue
        if row[0] == "c":
            if row.startswith(f"c {_HEADER_TAG} "):
                match = re.fullmatch(_HEADER_PATTERN, row)
                if match is None:
                    raise ValueError(f"bad {_HEADER_TAG} header {row!r}")
                n, m, sym_break = map(int, match.groups())
                family = (n, m, bool(sym_break))
            continue
        if row[0] == "p":
            parts = row.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"] or not all(map(is_count, parts[2:])):
                raise ValueError(f"bad DIMACS header {row!r}")
            n_vars, expected = int(parts[2]), int(parts[3])
            continue
        if n_vars is None:
            raise ValueError("clause before DIMACS header")
        body.append(row)
    if n_vars is None:
        raise ValueError("missing DIMACS header")
    try:
        lits = np.array(" ".join(body).split(), dtype=np.int64)
    except OverflowError:
        raise ValueError("a literal outside the int64 range") from None
    if lits.size and lits[-1]:
        raise ValueError("trailing literals without closing 0")
    ends = np.flatnonzero(lits == 0)
    if expected != len(ends):
        raise ValueError(f"header promises {expected} clauses, file has {len(ends)}")
    # Row k takes clause k's tokens, closing 0 included, in order; the last column is all 0.
    sizes = np.diff(ends, prepend=-1)
    if len(ends) * sizes.max(initial=1) > 2**26:  # padding can make cells outnumber tokens
        raise ValueError(f"{len(ends)} clauses of up to {sizes.max() - 1} literals pass 2**26 cells")
    rows = np.zeros((len(ends), sizes.max(initial=1)), dtype=np.int64)
    rows[np.arange(rows.shape[1]) < sizes[:, None]] = lits
    rows = rows[:, :-1]
    if family is not None:
        n, m, sym_break = family
        # 3**n > 2**n, so an n past the bit length of n_vars is refused without the power.
        if n > n_vars.bit_length() or 3**n != n_vars:
            raise ValueError(
                f"{_HEADER_TAG} header says n={n}, but the file has {n_vars} variables"
            )
        # Every family holds the 3**(n-1) lines with active set {1}: a file with fewer
        # clause pairs is refused before encode builds the family's table.
        if len(rows) < 2 * 3 ** (n - 1) or not np.array_equal(rows, encode(*family).clauses):
            raise ValueError(
                f"the clauses are not the encoding of n={n} m={m} sym_break={int(sym_break)} "
                f"that the {_HEADER_TAG} header names"
            )
    return CnfInstance(n_vars, rows, family)


def write_dimacs_file(instance: CnfInstance, path: str) -> None:
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
        name = line_names(line.active, [(p, (v,)) for p, v in line.fixed])[0]
        raise EncoderBugError(f"decoded model leaves {name} monochromatic")
    return coloring
