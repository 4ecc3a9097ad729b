# The avoider problem as propositional satisfiability.
#
# One boolean variable per cube cell (variable r+1 holds the colour of the
# cell with rank r).  Each interval line contributes two clauses: not all
# three cells colour 0, not all three colour 1.  An avoider exists exactly
# when the formula is satisfiable.  The clauses sit in one int32 array, one
# clause a row; a clause shorter than the widest is padded with zeros after
# its last literal (the sym-break unit is the row -1 0 0), and
# clause_tuples() gives them back as tuples with the padding stripped.

from hjinterval import (
    decode_model,
    encode,
    mono_mask,
    solve_builtin,
    tower,
    violation_count,
    write_dimacs,
)
from hjinterval.cube import m_interval_line_members
from hjinterval.drup import check_proof

# -- how the encoding grows --------------------------------------------------

print("n   vars   clauses")
for n in (1, 2, 3, 4):
    inst = encode(n)
    print(f"{n}   {inst.n_vars:4d}   {len(inst.clauses):5d}")
print()

# The DIMACS header names the encoded family, and the writer names the line
# behind each clause pair from it, so a foreign solver's input is still
# self-describing.

print(write_dimacs(encode(1)))

# -- solving and decoding ----------------------------------------------------
# The bundled solver is a small CDCL (watched literals, clause learning,
# restarts).  Decoding re-verifies a model against an independent line scan
# before handing back a colouring.

for n in (2, 3, 4):
    outcome = solve_builtin(encode(n))
    coloring = decode_model(outcome.model, n)
    print(f"n={n}: {outcome.status}, decoded avoider with "
          f"{violation_count(coloring)} violations")
print()

# -- the exact threshold -----------------------------------------------------
# At n = 5 the formula is unsatisfiable: every 2-colouring of the 5-cube has
# a monochromatic interval line.  The solver's learnt clauses form a DRUP
# proof of that, which a separate checker re-derives by unit propagation.

inst5 = encode(5)
refutation = solve_builtin(inst5)
verdict = check_proof(inst5.clause_tuples(), refutation.proof)
print(f"n=5: {refutation.status}, DRUP proof of {len(refutation.proof)} lemmas "
      f"{'checked' if verdict is None else 'REJECTED: ' + verdict}")
rows = dict(tower())
print("exact threshold for interval lines: n=5 (n=4 has an avoider)")
print(f"the paper's Ramsey tower: n0={rows['n0'].render()}, ..., "
      f"n={rows['n'].render()[:36]}...")
print()

# -- a harder target: unions of two intervals --------------------------------
# Lines whose active set splits into at most two runs.  At n = 3 there are
# still avoiders; the constraint count grows but satisfiability survives.

inst2 = encode(3, m=2)
outcome2 = solve_builtin(inst2)
coloring2 = decode_model(outcome2.model, 3, m=2)
mono = int(mono_mask(coloring2.bits, m_interval_line_members(3, 2)).sum())
print(f"n=3, active sets of up to 2 runs: {len(inst2.clauses)} clauses, "
      f"{outcome2.status}, {mono} monochromatic lines in the decoded colouring")

# A symmetry-breaking unit clause pins the first cell to colour 0; the
# instance stays satisfiable because colour swap maps avoiders to avoiders.

broken = solve_builtin(encode(3, sym_break=True))
print(f"n=3 with symmetry breaking: {broken.status}")
