"""CNF export of the avoider question, plus just enough solver plumbing.

Variable i+1 is the colour of the word of rank i.  Every line (active
set a union of at most m intervals) contributes two clauses: not all
three members colour 0, not all three colour 1, so models are exactly
the colourings with no monochromatic line of that family.  Instances
are written as DIMACS with a header comment naming the encoded family
(n, m and symmetry breaking) and one provenance comment per clause
pair; they can be fed to any external solver that takes a file path
and prints the usual "s SATISFIABLE" / "v ..." lines, and a small
built-in DPLL covers the cubes this package cares about when no solver
is installed.
"""

from __future__ import annotations

import itertools
import re
import shlex
import subprocess
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .cube import (
    ALPHABET,
    Coloring,
    Line,
    line_at_row,
    m_interval_active_sets,
    m_interval_line_members,
    mono_mask,
    runs_of,
)

# First word of the DIMACS comment that names an encoded instance's family.
_HEADER_TAG = "hjinterval"
_HEADER_PATTERN = rf"c {_HEADER_TAG} n=([1-9][0-9]*) m=([1-9][0-9]*) sym_break=([01])"


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula with per-clause provenance strings.

    ``family`` is (n, m, sym_break) for an instance made by :func:`encode`
    (and read back from its DIMACS header), None for any other formula.
    """

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]
    provenance: tuple[str, ...]
    family: tuple[int, int, bool] | None = None

    def __post_init__(self) -> None:
        if len(self.clauses) != len(self.provenance):
            raise ValueError("need one provenance entry per clause")
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause")
            for lit in cl:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} outside +-1..{self.n_vars}")


def _runs_text(active: tuple[int, ...]) -> str:
    return "+".join(f"{lo}..{hi}" for lo, hi in runs_of(active))


def _line_provenance(line: Line) -> str:
    fixed = ",".join(f"{p}:{v}" for p, v in line.fixed) or "-"
    return f"line {_runs_text(line.active)} fixed={fixed}"


def encode(n: int, m: int = 1, sym_break: bool = False) -> CnfInstance:
    """Encode "some colouring of the n-cube avoids all m-interval lines".

    With sym_break, one unit clause pins the rank-0 cell to colour 0;
    that is sound because the colour swap maps avoiders to avoiders.
    """
    clauses = []
    for p, q, r in zip(*(m_interval_line_members(n, m) + 1).T.tolist()):
        clauses += ((p, q, r), (-p, -q, -r))
    provenance = []
    for active in m_interval_active_sets(n, m):
        head = f"line {_runs_text(active)} fixed="
        # The product varies the last pinned coordinate fastest: fixed-part rank order.
        choices = [[f"{p}:{v}" for v in ALPHABET] for p in range(1, n + 1) if p not in active]
        for letters in itertools.product(*choices):
            tag = head + (",".join(letters) or "-")
            provenance += (tag, tag)
    if sym_break:
        clauses.append((-1,))
        provenance.append("symmetry-break rank0=0")
    return CnfInstance(3**n, tuple(clauses), tuple(provenance), family=(n, m, bool(sym_break)))


def write_dimacs(instance: CnfInstance) -> str:
    """DIMACS text, byte-stable for a given instance.

    An encoded instance's family follows the "p cnf" line as the comment
    "c hjinterval n=<n> m=<m> sym_break=<0|1>".  Each provenance string
    is emitted as a "c <tag>" comment above its first clause, so
    consecutive clauses from one line share a comment.
    """
    return "".join(_dimacs_lines(instance))


def _dimacs_lines(instance: CnfInstance) -> Iterator[str]:
    yield f"p cnf {instance.n_vars} {len(instance.clauses)}\n"
    if instance.family is not None:
        n, m, sym_break = instance.family
        yield f"c {_HEADER_TAG} n={n} m={m} sym_break={int(sym_break)}\n"
    last_tag = None
    for cl, tag in zip(instance.clauses, instance.provenance):
        if tag != last_tag:
            yield f"c {tag}\n"
            last_tag = tag
        yield " ".join(str(lit) for lit in cl) + " 0\n"


def parse_dimacs(text: str) -> CnfInstance:
    """Read DIMACS back; counts are enforced, and comments are dropped
    except the family header that :func:`write_dimacs` puts after "p cnf"."""
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
    if family is not None and 3 ** family[0] != n_vars:
        raise ValueError(
            f"{_HEADER_TAG} header says n={family[0]}, but the file has {n_vars} variables"
        )
    return CnfInstance(n_vars, tuple(clauses), ("",) * len(clauses), family)


def write_dimacs_file(instance: CnfInstance, path: str) -> None:
    # Line by line, so the whole text never sits in memory at once.
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_dimacs_lines(instance))


@dataclass(frozen=True)
class SolveOutcome:
    """Solver verdict: sat with a model, unsat, or unknown with a reason."""

    status: str
    model: tuple[int, ...] | None = None
    diagnostics: str = ""


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
                lit = int(tok)
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


def solve_builtin(instance: CnfInstance) -> SolveOutcome:
    """Complete DPLL: unit propagation plus branching on the lowest
    unassigned variable, trying colour 0 first.  Occurrence lists keep
    propagation proportional to the clauses a new assignment touches,
    which is all the speed a few hundred variables need."""
    n_vars = instance.n_vars
    clauses = [tuple(cl) for cl in instance.clauses]
    occ: dict[int, list[int]] = {}
    for ci, cl in enumerate(clauses):
        for lit in cl:
            occ.setdefault(lit, []).append(ci)
    assign: list[bool | None] = [None] * (n_vars + 1)

    def propagate(queue: list[int], trail: list[int]) -> bool:
        while queue:
            var = queue.pop()
            falsified = var if not assign[var] else -var
            for ci in occ.get(falsified, ()):
                free = 0
                count = 0
                sat = False
                for lit in clauses[ci]:
                    val = assign[abs(lit)]
                    if val is None:
                        count += 1
                        free = lit
                    elif val == (lit > 0):
                        sat = True
                        break
                if sat:
                    continue
                if count == 0:
                    return False
                if count == 1:
                    fv = abs(free)
                    assign[fv] = free > 0
                    trail.append(fv)
                    queue.append(fv)
        return True

    def branch() -> bool:
        var = next((i for i in range(1, n_vars + 1) if assign[i] is None), None)
        if var is None:
            return True
        for val in (False, True):
            assign[var] = val
            trail = [var]
            if propagate([var], trail) and branch():
                return True
            for v in trail:
                assign[v] = None
        return False

    # Settle the unit clauses before any branching.
    trail: list[int] = []
    for cl in clauses:
        if len(cl) == 1:
            lit = cl[0]
            var = abs(lit)
            if assign[var] is None:
                assign[var] = lit > 0
                trail.append(var)
            elif assign[var] != (lit > 0):
                return SolveOutcome("unsat")
    if propagate([v for v in trail], trail) and branch():
        model = tuple(i if assign[i] else -i for i in range(1, n_vars + 1))
        return SolveOutcome("sat", model)
    return SolveOutcome("unsat")


class EncoderBugError(RuntimeError):
    """A decoded model fails direct verification: the encoding is wrong."""


def decode_model(model: Iterable[int] | Mapping[int, bool], n: int, m: int = 1) -> Coloring:
    """Turn a model into a colouring and verify it against a direct scan.

    The model must assign every variable 1..3**n.  Verification failure
    does not return: a model of the encoding that still contains a
    monochromatic line means the encoder itself is broken, and silently
    shipping such a "witness" would poison everything downstream.
    """
    size = 3**n
    if isinstance(model, Mapping):
        values = dict(model)
    else:
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
        raise EncoderBugError(
            f"decoded model leaves {_line_provenance(line)} monochromatic; "
            f"the encoding for n={n}, m={m} is unsound"
        )
    return coloring
