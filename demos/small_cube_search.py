# How far do avoiders reach?  The least avoider by SAT up to the wall,
# a refutation just past it, and local search for comparison.
#
# An avoider is a 2-colouring of [3]^n with no monochromatic interval line.
# exhaustive_search finds the least avoider in rank order with the built-in
# SAT solver: one solve, then one more for each cell that a model colours 1,
# asking whether it can be 0.  Every UNSAT answer counts only once its DRUP
# proof has been checked, so "refuted" at n = 5 comes with checked evidence.

import time

from hjinterval import (
    all_symmetries,
    apply_symmetry,
    exhaustive_search,
    local_search,
    render_search_report,
    violation_count,
)

# -- the least avoider, n = 1..4 ---------------------------------------------

for n in (1, 2, 3, 4):
    report = exhaustive_search(n)
    print(render_search_report(report))
least = report.coloring

# The colour-swap unit clause fixes the rank-0 cell to 0.  The answer is the
# same either way; only the solver's work can move.

for n in (4, 5):
    with_unit = exhaustive_search(n, use_symmetry=True)
    without = exhaustive_search(n, use_symmetry=False)
    assert (with_unit.outcome, with_unit.coloring) == (without.outcome, without.coloring)
    print(f"n={n}: {with_unit.outcome}")
    for name, report in (("with the unit", with_unit), ("without it", without)):
        print(f"  {name:13}  solves={report.stats['solves']}  lemmas={report.stats['lemmas']}")
print()

# Avoiding is a property of the whole symmetry orbit: letter permutations,
# coordinate reversal and colour swap all preserve interval lines.

orbit = {apply_symmetry(least, g).bitstring for g in all_symmetries()}
assert all(violation_count(apply_symmetry(least, g)) == 0 for g in all_symmetries())
print(f"n=4 least avoider: {least.bitstring}")
print(f"its orbit holds {len(orbit)} avoiders")
print()

# -- local search at n = 4 ---------------------------------------------------
# 3^4 = 81 cells, 142 interval lines.  Steepest descent with sideways moves
# and seeded restarts.  Each restart draws its start and its sideways picks
# from random.Random, so everything is reproducible from the seed.

start = time.perf_counter()
report = local_search(4, seed=7, budget=40000)
elapsed = time.perf_counter() - start
print(render_search_report(report))
print(f"found in {elapsed:.2f}s; independent recount: "
      f"{violation_count(report.coloring)} violations")
