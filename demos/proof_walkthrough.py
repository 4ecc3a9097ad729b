# A guided tour of the combinatorial machinery, at desk scale.
#
# The objects: words over {1,2,3}, their contractions (collapse each constant
# run to a single letter), and interval lines (combinatorial lines whose
# active coordinates form one contiguous block).  The claim made executable
# here: any 2-colouring of a large enough cube that only depends on the
# contraction of a word is forced to contain a monochromatic interval line.

from hjinterval import (
    Quadruple,
    Word,
    breakpoints,
    case_lemma_check,
    contract,
    find_interval_line,
    gadget_lines,
    gadget_words,
    homogeneous_colors,
    pattern_coloring,
    realize,
    render_certificate,
)

# -- contraction and breakpoints ---------------------------------------------
# A word splits into constant runs; the contraction remembers one letter per
# run, the breakpoint set remembers where the runs end.

w = Word.from_text("1122333111")
print("word       ", w)
print("contraction", contract(w))
print("breakpoints", breakpoints(w))
print("rebuilt    ", realize(contract(w), breakpoints(w), 10))
print()

# -- nine words, five lines --------------------------------------------------
# Fix four cut positions a1 < a2 < a3 < a4.  Bracket words are built from
# five-letter block codes laid over the cuts; nine of them arrange into five
# interval lines whose active intervals are cut-to-cut.

quad = Quadruple(9, (2, 4, 5, 7))
words = gadget_words(quad)
for name, word in words.items():
    print(f"{name} = {word}   contracts to {contract(word)}")
print()

for idx, line in enumerate(gadget_lines(quad), start=1):
    members = ", ".join(str(m) for m in line.points())
    print(f"L{idx}: active {line.lo}..{line.hi}   {{{members}}}")
print()

# -- the case analysis -------------------------------------------------------
# Colour each of the five seed patterns independently (32 vectors d).  Each
# line Li is monochromatic as soon as the set Ni of colours seen along it is
# a singleton.  The table shows there is no way to dodge all five lines.

rows = case_lemma_check()
print("d-vector  first mono line  colour")
for d, idx, color in rows:
    print("  " + "".join(map(str, d)), f"        L{idx}", f"        {color}")
deep = [d for d, idx, _ in rows if idx == 5]
print(f"\n{len(rows)} cases, all hit; only {deep} survive until L5\n")

# -- from colouring to certificate -------------------------------------------
# The paper's pipeline has two steps: a Ramsey argument makes every seed
# pattern homogeneous over some quadruple of cuts, then the case table names
# a monochromatic line.  A colouring that depends only on the contraction is
# homogeneous over every quadruple, so at desk scale the first step is one
# test over the cuts 1, 2, 3, 4.

coloring = pattern_coloring(5, (0, 1, 1, 0, 0))
print("colour per seed pattern:", homogeneous_colors(coloring, Quadruple(5, (1, 2, 3, 4))))
cert = find_interval_line(coloring, method="pipeline")
print(render_certificate(cert, method="pipeline"))
