# How large is "sufficiently large"?  Honest arithmetic on Ramsey upper
# bounds, switching to symbolic form the moment numbers stop fitting.
#
# The guarantee that every contraction-invariant colouring contains a
# monochromatic interval line kicks in at a dimension defined through a
# tower of hypergraph Ramsey numbers, one level per seed pattern.  Only
# upper bounds are computable; the library never pretends otherwise.

from hjinterval import BoundExpr, plus_one, ramsey_upper, tower

# -- the computable floor ----------------------------------------------------
# t = 1 is pigeonhole, t = 2 the binomial bound from the neighbourhood
# chasing argument, t >= 3 the stepping-down recursion.

print("pigeonhole     R1(4,4) =", ramsey_upper(1, 4, 4).render())
print("binomial       R2(4,4) =", ramsey_upper(2, 4, 4).render())
print("stepping down  R3(4,4) =", ramsey_upper(3, 4, 4).render())
print("               R3(4,5) =", ramsey_upper(3, 4, 5).render())
print()

# R3(5,5) is still exact under the default 10000-digit cap, just absurd:

e = ramsey_upper(3, 5, 5)
text = e.render()
print(f"R3(5,5) has {len(text)} digits; it starts {text[:24]}...")
print()

# -- the tower ---------------------------------------------------------------
# Level i needs a ground set homogeneous for the seed pattern of length t_i,
# so it applies a Ramsey number of uniformity t_i - 1 to the previous level.

for label, expr in tower():
    print(f"{label:>2} = {expr.render()}")
print()

# Tighten the cap and even the first level goes symbolic; the expressions
# compose instead of overflowing.

for label, expr in tower(cap_digits=1):
    print(f"{label:>2} = {expr.render()}")
print()

# Symbolic values are first-class: they can be fed back into the recursion.

sym = ramsey_upper(3, 20, 20, cap_digits=50)
print("compose:", plus_one(ramsey_upper(4, sym, BoundExpr.exact(10))).render())
