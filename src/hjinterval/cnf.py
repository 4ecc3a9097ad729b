"""CNF export of the avoider question, plus just enough solver plumbing.

Variable i+1 is the colour of the word of rank i.  Every line (active
set a union of at most m intervals) contributes two clauses: not all
three members colour 0, not all three colour 1, so models are exactly
the colourings with no monochromatic line of that family.  Clauses are
one int32 array, copied from a bool or integer one: clause k is row k,
zero-padded after its last literal (width 3 for every encoded family; the
sym-break unit is -1 0 0).
Instances are written as DIMACS with one header comment naming the encoded
family (n, m and symmetry breaking): clause pair k is row k of
:func:`~hjinterval.cube.m_interval_line_members`, so no line is named
again.  The writer formats from one byte table of literal texts per call,
one 4096-clause block at a time, so it holds that table, which grows with the
largest variable like the solver's per-variable lists, and one block.  Files
can be fed to any external solver that takes a file path and prints the
usual "s SATISFIABLE" / "v ..." lines, and the built-in CDCL solver of
:mod:`hjinterval.solver`, which logs a DRUP proof of every unsat answer,
decides the cubes this package cares about when no solver is installed.
One rule, :func:`clause_tokens`, reads the literals of DIMACS clause lines, of
a solver's v-lines and of DRUP proofs: ASCII digits, "-" and blanks only; and
one, :func:`text_lines`, cuts all three into lines at newlines alone.
:func:`check_model` is the one model check: it reads a model's literals once,
decodes a family's colouring and checks it by a scan that shares no table with
encode, naming a monochromatic line by its member words, then checks every
clause; :func:`decode_model` is that check of a model of ``encode(n, m)``.
"""

from __future__ import annotations

import re
import shlex
import subprocess
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .cube import Coloring, first_mono_line, is_count, m_interval_line_members
from .solver import SolveOutcome, solve_builtin  # noqa: F401  (re-exported: callers import both from here)

# First word of the DIMACS comment that names an encoded instance's family.
_HEADER_TAG = "hjinterval"
_HEADER_PATTERN = rf"c {_HEADER_TAG} n=([1-9][0-9]{{0,17}}) m=([1-9][0-9]{{0,17}}) sym_break=([01])"


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula: ``clauses`` is a 2-D bool or integer array, one clause a row, zeros
    after its last literal, kept as a read-only int32 copy.  ``family`` is (n, m, sym_break)
    for an instance made by :func:`encode` (and read back from DIMACS), None for any other."""

    n_vars: int
    clauses: np.ndarray
    family: tuple[int, int, bool] | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.clauses)
        if rows.size and rows.dtype.kind not in "biu":  # checked as it is, then copied to int32
            raise ValueError(f"clause literals must be integers, not {rows.dtype}")
        if rows.ndim != 2 or not 0 <= self.n_vars < 2**31:
            raise ValueError(f"need a 2-D clause array and 0..2**31-1 variables, not {self.n_vars}")
        # check_model decodes a family's 3**n variables; 3**n > 2**n, so an n past the
        # bit length of n_vars is refused without the power.
        n = self.family[0] if self.family else 0
        if n and (n > self.n_vars.bit_length() or 3**n != self.n_vars):
            raise ValueError(f"a family of n={n} needs 3**{n} variables, not {self.n_vars}")
        # Clause k is well formed when it starts with a literal and no literal follows a 0.
        # One 1-D test per column pair: numpy reduces a short row many times slower.
        live = [column != 0 for column in rows.T] or [np.zeros(len(rows), dtype=bool)]
        if not live[0].all() or any((right > left).any() for left, right in zip(live, live[1:])):
            cells = rows != 0
            bad = ~cells[:, :1].any(1) | (cells[:, 1:] > cells[:, :-1]).any(1)
            raise ValueError(f"clause {bad.argmax() + 1} is empty or has a 0 before its last literal")
        if rows.size and (rows.max() > self.n_vars or rows.min() < -self.n_vars):
            beyond = (rows > self.n_vars) | (rows < -self.n_vars)
            # int(): a bool array, checked as it is, would print True for the literal 1.
            raise ValueError(f"literal {int(rows[beyond][0])} outside +-1..{self.n_vars}")
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
    if not 1 <= m < 10**18:
        raise ValueError(f"m={m} is outside 1..10**18-1, the m a {_HEADER_TAG} header holds")
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

    A family follows the "p cnf" line as "c hjinterval n=<n> m=<m> sym_break=<0|1>",
    the file's one comment; a formula without a family gets none.  So a parsed file
    writes back as it was.
    """
    return b"".join(_dimacs_blocks(instance)).decode("ascii")


def _dimacs_blocks(instance: CnfInstance) -> Iterator[bytes]:
    rows = instance.clauses
    yield f"p cnf {instance.n_vars} {len(rows)}\n".encode("ascii")
    if instance.family is not None:
        n, m, sym_break = instance.family
        yield f"c {_HEADER_TAG} n={n} m={m} sym_break={int(sym_break)}\n".encode("ascii")
    # Row top + v of the table is literal v's text and a space, digits right-aligned after a
    # sign column, NUL-padded (all NUL for the padding 0); row 2*top + 1 is "0\n".
    top = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    width = len(str(top)) + 2
    table = np.zeros((2 * top + 2, width), dtype=np.uint8)
    values = np.arange(1, top + 1, dtype=np.int32)
    for column in range(1, width - 1):
        scale = 10 ** (width - 2 - column)
        table[top + 1 : -1, column] = np.where(values >= scale, values // scale % 10 + ord("0"), 0)
    table[top + 1 : -1, -1] = ord(" ")
    table[:top] = table[2 * top : top : -1]
    table[:top, 0], table[-1, :2] = ord("-"), list(b"0\n")
    entries = table.view(np.dtype((np.void, width))).ravel()  # entry i: row i's bytes
    # Row k of a block: clause k's entries, then "0\n"; intp, as 2*top + 1 passes int32.
    cells = np.full((min(len(rows), 4096), rows.shape[1] + 1), 2 * top + 1, dtype=np.intp)
    for start in range(0, len(rows), 4096):  # a block at a time, so no text is ever whole
        block = cells[: len(rows) - start]
        np.add(rows[start : start + 4096], top, out=block[:, :-1], dtype=np.intp)
        yield entries.take(block).tobytes().translate(None, b"\0")


def clause_tokens(text: str) -> list[str]:
    """The blank-separated literals of clause text, the one rule for DIMACS clause lines, a
    solver's v-lines and DRUP lines: ASCII digits, "-", spaces and tabs, nothing else, as
    int() would read other scripts' digits, "_" and "+" too.  Raises ValueError otherwise."""
    if not text.isascii() or text.encode("ascii").translate(None, b"-0123456789 \t"):
        stray = re.search(r"[^-0-9 \t]", text)[0]
        raise ValueError(f"character {stray!r} in a clause is not an ASCII digit, '-' or blank")
    return text.split()


def text_lines(text: str) -> list[str]:
    """The lines of clause text: each ends at a newline alone (str.splitlines also breaks at
    U+2028 and more) and loses the spaces, tabs and carriage returns at its ends, nothing else."""
    return [row.strip(" \t\r") for row in text.split("\n")]


def parse_dimacs(text: str) -> CnfInstance:
    """Read DIMACS back; counts are enforced, and comments are dropped
    except the family header that :func:`write_dimacs` puts after "p cnf".
    A second "p cnf" line or a second family header is refused.
    A file with that header must hold exactly the family's encoding, in order."""
    n_vars = expected = family = None
    body: list[str] = []  # the clause lines
    for row in text_lines(text):
        if not row:
            continue
        if row[0] == "c":
            if row.startswith(f"c {_HEADER_TAG} "):
                if family is not None:
                    raise ValueError(f"second {_HEADER_TAG} header {row!r}")
                match = re.fullmatch(_HEADER_PATTERN, row)
                if match is None:
                    raise ValueError(f"bad {_HEADER_TAG} header {row!r}")
                n, m, sym_break = map(int, match.groups())
                family = (n, m, bool(sym_break))
            continue
        if row[0] == "p":
            if n_vars is not None:
                raise ValueError(f"second DIMACS header {row!r}")
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
        lits = np.array(clause_tokens(" ".join(body)), dtype=np.int64)
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
    instance = CnfInstance(n_vars, rows, family)  # refuses a family's wrong variable count
    if family is not None:
        n, m, sym_break = family
        # Every family holds the 3**(n-1) lines with active set {1}: a file with fewer
        # clause pairs is refused before encode builds the family's table.
        if len(rows) < 2 * 3 ** (n - 1) or instance != encode(*family):
            raise ValueError(
                f"the clauses are not the encoding of n={n} m={m} sym_break={int(sym_break)} "
                f"that the {_HEADER_TAG} header names"
            )
    return instance


def write_dimacs_file(instance: CnfInstance, path: str) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_dimacs_blocks(instance))


def run_solver(cnf_path: str, command: str, timeout: float | None = None) -> SolveOutcome:
    """Invoke an external solver as ``<command> <cnf_path>`` and parse s/v lines.

    Crashes, timeouts, missing binaries, unparseable output and other s-lines
    (quoted) all come back as status "unknown" with diagnostics, never as
    exceptions: a flaky solver must not be mistaken for a refutation.
    """
    argv = shlex.split(command) + [cnf_path]
    try:
        # A byte that is not UTF-8 reads as U+FFFD, which no verdict or literal matches.
        proc = subprocess.run(argv, capture_output=True, encoding="utf-8", errors="replace", timeout=timeout)
    except subprocess.TimeoutExpired:
        return SolveOutcome("unknown", diagnostics=f"solver timed out after {timeout}s")
    except OSError as exc:
        return SolveOutcome("unknown", diagnostics=f"solver failed to start: {exc}")
    status = s_line = None
    model: list[int] = []
    for row in text_lines(proc.stdout):
        if row.startswith("s "):
            s_line = row
            status = {"SATISFIABLE": "sat", "UNSATISFIABLE": "unsat"}.get(row[2:].lstrip(" \t"), status)
        elif row.startswith("v "):
            try:
                model += filter(None, map(int, clause_tokens(row[2:])))
            except ValueError as exc:
                return SolveOutcome("unknown", diagnostics=f"bad v-line from the solver: {exc}")
    if status == "sat":
        if not model:
            return SolveOutcome("unknown", diagnostics="solver said sat but printed no model")
        return SolveOutcome("sat", tuple(model))
    if status == "unsat":
        return SolveOutcome("unsat")
    if s_line is not None:
        return SolveOutcome("unknown", diagnostics=f"solver answered {s_line!r} (exit {proc.returncode})")
    head = (proc.stdout + proc.stderr)[:500]
    return SolveOutcome(
        "unknown", diagnostics=f"no s-line in solver output (exit {proc.returncode}): {head!r}"
    )


def _literal_values(model: Iterable[int], n_vars: int) -> np.ndarray:
    """Which literals the model holds, as a bool array by literal: entry lit for a variable,
    entry -lit, wrapping round, for its negation, and entry 0 never set.  Raises ValueError
    naming the first literal outside +-1..n_vars, else the least variable given both ways."""
    lits = np.fromiter(model, object)  # Python ints, so a literal past int64 is refused too
    outside = (lits == 0) | (lits < -n_vars) | (lits > n_vars)
    if outside.any():
        raise ValueError(f"model literal {lits[outside.argmax()]} outside +-1..{n_vars}")
    value = np.zeros(2 * n_vars + 1, dtype=bool)
    value[lits.astype(int)] = True
    both = value[1 : n_vars + 1] & value[:n_vars:-1]  # entry v - 1: v and -v
    if both.any():
        raise ValueError(f"model assigns variable {both.argmax() + 1} both ways")
    return value


class EncoderBugError(RuntimeError):
    """A decoded model fails direct verification against the encoded family:
    the solver that produced it, or the encoder, is wrong."""


def check_model(instance: CnfInstance, model: Iterable[int]) -> Coloring | None:
    """Check that the model makes every clause of the instance true, reading its literals
    once.  Raises ValueError for a literal outside +-1..n_vars or a variable given both
    ways.  A family instance's model must then assign every variable, or ValueError, and
    its colouring must pass a direct scan of the family, or EncoderBugError: the scan reads
    the cube, not the encoder's member table, so a line missing there is still caught.
    Last comes ValueError for the first clause with no true literal.  Returns the family's
    colouring, None for an instance without a family."""
    size = instance.n_vars
    value = _literal_values(model, size)
    coloring = None
    if instance.family is not None:
        n, m, _ = instance.family
        bits = value[1 : size + 1]
        assigned = bits | value[:size:-1]
        if not assigned.all():
            raise ValueError(f"incomplete model: variable {assigned.argmin() + 1} of {size} unassigned")
        coloring = Coloring._adopt(n, bits.astype(np.uint8))
        line = first_mono_line(coloring.bits, n, m)
        if line is not None:
            raise EncoderBugError(f"decoded model leaves line {line} monochromatic")
    satisfied = value[instance.clauses].any(axis=1)  # padding reads value[0], never set
    if not satisfied.all():
        k = satisfied.argmin()
        clause = [lit for lit in instance.clauses[k].tolist() if lit]
        raise ValueError(f"clause {k + 1} ({' '.join(map(str, (*clause, 0)))}) has no true literal")
    return coloring


def decode_model(model: Iterable[int], n: int, m: int = 1) -> Coloring:
    """The colouring of a model of ``encode(n, m)``, checked by :func:`check_model`.

    Verification failure does not return: a model that still contains a
    monochromatic line means the solver or the encoder is broken, and
    silently shipping such a "witness" would poison everything downstream.
    """
    return check_model(encode(n, m), model)
