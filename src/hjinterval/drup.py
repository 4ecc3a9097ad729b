"""Forward checking of DRUP proofs, sharing no code with the solver.

A DRUP proof is a sequence of lemmas (clauses).  Each lemma must pass
the reverse-unit-propagation (RUP) test against the formula plus the
lemmas before it: with every literal of the lemma assumed false, unit
propagation reaches a conflict.  This is the check DRAT-trim makes
(Wetzler, Heule & Hunt, SAT 2014), run forwards and without its RAT
case.  A refutation must end with the empty clause.  The formula's clauses
size the tables, so lemmas may name only variables up to its largest.  Proof
lines follow the DIMACS literal rule, :func:`~hjinterval.cnf.clause_tokens`.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from .cnf import clause_tokens


def check_proof(
    formula: Iterable[Sequence[int]], lemmas: Sequence[Sequence[int]], deadline: float | None = None
) -> str | None:
    """None when the lemmas refute the formula, else the reason they do not; TimeoutError
    once past ``deadline``, a :func:`time.monotonic` value read once per lemma."""
    formula = list(formula)
    n_vars = max((abs(lit) for c in formula for lit in c), default=0)
    # Indexed by literal: a negative literal wraps round to the back half.
    value: list[bool | None] = [None] * (2 * n_vars + 1)
    watches: list[list[list[int]]] = [[] for _ in range(2 * n_vars + 1)]
    trail: list[int] = []  # true literals, in assignment order

    def assign(lit: int) -> None:
        value[lit], value[-lit] = True, False
        trail.append(lit)

    def propagate(head: int) -> bool:
        """Unit-propagate the trail from position head; True on a conflict."""
        while head < len(trail):
            lit = -trail[head]
            head += 1
            watching, watches[lit] = watches[lit], []
            for k, c in enumerate(watching):
                if c[0] == lit:
                    c[0], c[1] = c[1], lit
                if not value[c[0]]:
                    other = next((j for j in range(2, len(c)) if value[c[j]] is not False), 0)
                    if other:
                        c[1], c[other] = c[other], lit
                        watches[c[1]].append(c)
                        continue
                    if value[c[0]] is False:
                        watches[lit] += watching[k:]
                        return True
                    assign(c[0])
                watches[lit].append(c)
        return False

    def add(clause: Sequence[int]) -> bool:
        """Add a clause for good; True when unit propagation then conflicts."""
        live = [lit for lit in dict.fromkeys(clause) if value[lit] is not False]
        if any(value[lit] for lit in live):
            return False  # true for good: it can never propagate
        if len(live) == 1:
            assign(live[0])
            return propagate(len(trail) - 1)
        for lit in live[:2]:
            watches[lit].append(live)
        return not live

    def rup(lemma: Sequence[int]) -> bool:
        mark = len(trail)
        for lit in lemma:
            if value[lit]:
                conflict = True  # the lemma holds already
                break
            if value[lit] is None:
                assign(-lit)
        else:
            conflict = propagate(mark)
        for lit in trail[mark:]:
            value[lit] = value[-lit] = None
        del trail[mark:]
        return conflict

    refuted = False  # once unit propagation alone conflicts, every lemma follows
    for clause in formula:
        refuted = refuted or add(clause)
    for k, lemma in enumerate(lemmas, 1):
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(f"the time limit passed with {k - 1} of {len(lemmas)} lemmas checked")
        if any(not 0 < abs(lit) <= n_vars for lit in lemma):  # before any table reads it
            return f"lemma {k} ({_text(lemma)}) names a variable outside the formula's 1..{n_vars}"
        if not (refuted or rup(lemma)):
            return f"lemma {k} ({_text(lemma)}) does not follow by unit propagation"
        refuted = refuted or add(lemma)
    if not lemmas or lemmas[-1]:
        return "the proof does not end with the empty clause"
    return None


def _text(lemma: Sequence[int]) -> str:
    return " ".join(map(str, (*lemma, 0)))


def parse_proof(text: str) -> list[tuple[int, ...]]:
    """Read DRUP text: one "l1 l2 ... 0" lemma a line, by the DIMACS literal rule.
    Lines starting "c" are comments.  Deletion lines ("d l1 l2 ... 0") are read
    by the same rule and dropped: keeping a deleted clause only gives the check
    more to propagate with, and every clause kept is implied by the formula, so
    dropping them never accepts a bad proof."""
    lemmas = []
    for number, row in enumerate(text.splitlines(), 1):
        row = row.strip()
        if not row or row[0] == "c":
            continue
        deletion = row[0] == "d"
        try:
            lits = [int(tok) for tok in clause_tokens(row[1:] if deletion else row)]
        except ValueError as exc:
            raise ValueError(f"proof line {number}: {exc}") from None
        if not lits or lits[-1] != 0 or 0 in lits[:-1]:
            raise ValueError(f"proof line {number}: a lemma is literals ending in one 0: {row!r}")
        if not deletion:
            lemmas.append(tuple(lits[:-1]))
    return lemmas
