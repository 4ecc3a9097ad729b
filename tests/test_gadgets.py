import itertools
import random

import pytest

from hjinterval import gadgets
from hjinterval.cube import Coloring, Line, Word, interval_line, is_monochromatic, rank, unrank
from hjinterval.gadgets import (
    MIN_GROUND_SIZE,
    SEED_LENGTHS,
    SEED_PATTERNS,
    LineCertificate,
    Quadruple,
    block_ranks,
    case_lemma_check,
    find_interval_line,
    first_singleton_index,
    gadget_lines,
    gadget_rank_triples,
    gadget_words,
    homogeneous_colors,
    nsets,
    pattern_coloring,
    render_certificate,
)
from hjinterval.patterns import contract, realize

from oracles import (
    coloring_from_bits,
    enumerate_m_interval_lines,
    reference_find_line,
    reference_gadget_lines,
    reference_homogeneous_colors,
)

UNIT_QUAD = Quadruple(5, (1, 2, 3, 4))

# which seed pattern each bracket word must contract to
WORD_SEEDS = {
    "w1": "132",
    "w2": "1232",
    "w3": "1312",
    "w4": "13232",
    "w5": "13132",
    "v1": "132",
    "v2": "1232",
    "v3": "1312",
    "u1": "132",
}

# the named bracket words on each candidate line, by moving letter 1, 2, 3
LINE_MEMBERS = (
    ("v1", "w2", "w1"),
    ("w3", "u1", "w1"),
    ("v2", "w2", "w4"),
    ("w3", "v3", "w5"),
    ("w5", "w4", "w1"),
)


def test_seed_patterns():
    assert tuple(str(p) for p in SEED_PATTERNS) == (
        "132",
        "1232",
        "1312",
        "13232",
        "13132",
    )
    assert SEED_LENGTHS == (3, 4, 4, 5, 5)
    assert MIN_GROUND_SIZE == 4


def test_quadruple_validation():
    Quadruple(9, (2, 4, 5, 7))
    with pytest.raises(ValueError):
        Quadruple(5, (1, 2, 3, 5))  # a4 must stay below n
    with pytest.raises(ValueError):
        Quadruple(9, (2, 4, 4, 7))
    with pytest.raises(ValueError):
        Quadruple(9, (0, 4, 5, 7))


def test_bracket_word_example():
    (r,) = block_ranks([(1, 3, 2, 3, 2)], (2, 4, 5, 7), 9)
    assert str(unrank(r, 9)) == "113323322"


def test_block_ranks_match_words_built_block_by_block():
    rng = random.Random(20261019)
    for _ in range(300):
        n = rng.randint(1, 39)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 6))))
        edges = [0, *cuts, n]
        blocks = [[rng.choice((1, 2, 3)) for _ in edges[1:]] for _ in range(3)]
        words = [
            Word(tuple(v for v, lo, hi in zip(b, edges, edges[1:]) for _ in range(hi - lo)))
            for b in blocks
        ]
        assert block_ranks(blocks, cuts, n) == [rank(w) for w in words]


def _point_ranks(lines):
    return tuple(tuple(rank(w) for w in line.points()) for line in lines)


def test_rank_triples_are_the_ranks_of_the_gadget_line_points():
    quads = [Quadruple(n, cuts) for n in range(5, 11) for cuts in itertools.combinations(range(1, n), 4)]
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(5, 39)
        quads.append(Quadruple(n, tuple(sorted(rng.sample(range(1, n), 4)))))
    for quad in quads:
        triples = gadget_rank_triples(quad)
        assert triples == _point_ranks(gadget_lines(quad)), quad
        assert triples == _point_ranks(reference_gadget_lines(quad.n, quad.cuts)), quad


def test_gadget_words_unit_quadruple():
    gw = gadget_words(UNIT_QUAD)
    assert {k: str(w) for k, w in gw.items()} == {
        "w1": "13332",
        "w2": "12232",
        "w3": "13112",
        "w4": "13232",
        "w5": "13132",
        "v1": "11132",
        "v2": "11232",
        "v3": "13122",
        "u1": "13222",
    }


def test_gadget_words_contract_to_seeds():
    for quad in (UNIT_QUAD, Quadruple(9, (2, 4, 5, 7)), Quadruple(12, (3, 5, 9, 11))):
        gw = gadget_words(quad)
        for name, word in gw.items():
            assert str(contract(word)) == WORD_SEEDS[name], name


def test_gadget_lines_unit_quadruple():
    lines = gadget_lines(UNIT_QUAD)
    assert len(lines) == 5
    spans = [(line.lo, line.hi) for line in lines]
    assert spans == [(2, 3), (3, 4), (2, 2), (4, 4), (3, 3)]
    members = [tuple(str(w) for w in line.points()) for line in lines]
    assert members == [
        ("11132", "12232", "13332"),
        ("13112", "13222", "13332"),
        ("11232", "12232", "13232"),
        ("13112", "13122", "13132"),
        ("13132", "13232", "13332"),
    ]


def test_gadget_line_active_sets_follow_cuts():
    # active intervals are cut-to-cut: (a1,a3], (a2,a4], (a1,a2], (a3,a4], (a2,a3]
    for quad in (Quadruple(9, (2, 4, 5, 7)), Quadruple(12, (1, 6, 7, 11))):
        a1, a2, a3, a4 = quad.cuts
        expected = [(a1 + 1, a3), (a2 + 1, a4), (a1 + 1, a2), (a3 + 1, a4), (a2 + 1, a3)]
        got = [(line.lo, line.hi) for line in gadget_lines(quad)]
        assert got == expected


def test_gadget_lines_members_are_line_points():
    for quad in (UNIT_QUAD, Quadruple(11, (2, 3, 7, 10))):
        words = gadget_words(quad)
        for line, names in zip(gadget_lines(quad), LINE_MEMBERS, strict=True):
            assert line.points() == tuple(words[name] for name in names)


def test_gadget_lines_exhaustive_small_n():
    checked = 0
    for n in (5, 6):
        for cuts in itertools.combinations(range(1, n), 4):
            gadget_lines(Quadruple(n, cuts))
            checked += 1
    assert checked == 1 + 5


def test_gadget_lines_random_quadruples():
    rng = random.Random(20260819)
    for _ in range(500):
        n = rng.randint(5, 12)
        cuts = tuple(sorted(rng.sample(range(1, n), 4)))
        gadget_lines(Quadruple(n, cuts))


def test_nsets_shape():
    sets = nsets((0, 1, 1, 0, 0))
    assert sets == (
        frozenset({0, 1}),
        frozenset({0, 1}),
        frozenset({0, 1}),
        frozenset({0, 1}),
        frozenset({0}),
    )


def test_nsets_membership_rule():
    # N1={d1,d2} N2={d1,d3} N3={d2,d4} N4={d3,d5} N5={d1,d4,d5}
    for d1, d2, d3, d4, d5 in itertools.product((0, 1), repeat=5):
        assert nsets((d1, d2, d3, d4, d5)) == (
            frozenset({d1, d2}),
            frozenset({d1, d3}),
            frozenset({d2, d4}),
            frozenset({d3, d5}),
            frozenset({d1, d4, d5}),
        )


def test_first_singleton_index():
    assert first_singleton_index((0, 1, 0, 1, 0)) == 2
    assert first_singleton_index((0, 0, 0, 0, 0)) == 1
    assert first_singleton_index((0, 1, 1, 0, 0)) == 5
    assert first_singleton_index((1, 0, 0, 1, 1)) == 5


def test_nsets_rejects_bad_vectors():
    with pytest.raises(ValueError):
        nsets((0, 1, 1, 0))
    with pytest.raises(ValueError):
        nsets((0, 1, 2, 0, 0))


def test_case_lemma_table():
    rows = case_lemma_check()
    assert len(rows) == 32
    assert all(1 <= idx <= 5 for _, idx, _ in rows)
    # the line colour always equals the singleton value
    for d, idx, color in rows:
        assert nsets(d)[idx - 1] == frozenset({color})
    reach5 = [d for d, idx, _ in rows if idx == 5]
    assert reach5 == [(0, 1, 1, 0, 0), (1, 0, 0, 1, 1)]


def test_pattern_coloring_values():
    c = pattern_coloring(5, (0, 1, 0, 0, 0))
    assert c.get(Word.from_text("11232")) == 1  # contracts to 1232
    assert c.get(Word.from_text("11111")) == 0  # not a seed, falls back to d1
    assert c.get(Word.from_text("11132")) == 0  # contracts to 132
    assert c.get(Word.from_text("13232")) == 0


def _pattern_coloring_reference(n, d):
    """Contract every word one by one and look its contraction up among the seeds."""
    table = {p.letters: d[i] for i, p in enumerate(SEED_PATTERNS)}
    words = (unrank(r, n) for r in range(3**n))
    return coloring_from_bits(n, (table.get(contract(w).letters, d[0]) for w in words))


def test_pattern_coloring_matches_contraction_reference():
    for n in range(1, 7):
        for d in itertools.product((0, 1), repeat=5):
            assert pattern_coloring(n, d) == _pattern_coloring_reference(n, d)


def test_pattern_coloring_is_contraction_invariant():
    c = pattern_coloring(5, (1, 0, 1, 0, 1))
    seen = {}
    for r in range(3**5):
        w = unrank(r, 5)
        key = str(contract(w))
        seen.setdefault(key, c.get(w))
        assert seen[key] == c.get(w)


def test_block_ranks_of_a_seed_pattern_rank_its_realized_word():
    for n in (5, 7, 9, 12):
        for p in SEED_PATTERNS:
            for A in itertools.combinations(range(1, n), len(p) - 1):
                assert block_ranks([p.letters], A, n) == [rank(realize(p, A, n))], (n, p, A)


def test_homogeneous_colors_matches_realized_words():
    cases = [*_pipeline_cases(7), *(Coloring.random(7, seed) for seed in range(4, 8))]
    seen = set()
    for c in cases:
        for cuts in itertools.combinations(range(1, 7), 4):
            quad = Quadruple(7, cuts)
            want = reference_homogeneous_colors(c, cuts)
            assert homogeneous_colors(c, quad) == want, (c, cuts)
            seen.add(want is None)
    assert seen == {False, True}


def test_extract_line_certifies_singleton_level():
    c = pattern_coloring(5, (0, 1, 1, 0, 0))
    assert homogeneous_colors(c, UNIT_QUAD) == (0, 1, 1, 0, 0)
    cert = find_interval_line(c, method="pipeline")
    assert cert.color == 0
    assert (cert.line.lo, cert.line.hi) == (3, 3)
    assert tuple(str(w) for w in cert.line.points()) == ("13132", "13232", "13332")
    assert cert.verify(c)


def test_homogeneous_colors_rejects_one_flipped_bracket_word():
    d = (0, 1, 1, 0, 0)
    bits = pattern_coloring(5, d).bits.copy()
    bits[rank(gadget_words(UNIT_QUAD)["w2"])] ^= 1
    assert homogeneous_colors(Coloring(5, bits), UNIT_QUAD) is None


def test_homogeneous_colors_needs_matching_n():
    with pytest.raises(ValueError, match="n=6"):
        homogeneous_colors(pattern_coloring(6, (0, 0, 0, 0, 0)), UNIT_QUAD)


def _homogenized(c, d, skip):
    """c with every word over the cuts 1..4 recoloured to its seed pattern's
    colour in d, except the words of seed pattern number `skip`."""
    bits = c.bits.copy()
    for k, (p, colour) in enumerate(zip(SEED_PATTERNS, d), start=1):
        for A in itertools.combinations((1, 2, 3, 4), len(p) - 1):
            if k != skip:
                bits[rank(realize(p, A, c.n))] = colour
    return Coloring(c.n, bits)


def _pipeline_cases(n):
    for d in itertools.product((0, 1), repeat=5):
        yield pattern_coloring(n, d)
    for colour in (0, 1):
        yield Coloring.constant(n, colour)
    for seed in range(4):
        yield Coloring.random(n, seed)
        rng = random.Random(seed)
        yield coloring_from_bits(n, (rng.getrandbits(1) for _ in range(3**n)))
        if n >= 5:
            # seed 0 forces every seed pattern, seeds 1..3 leave pattern 1..3 free
            d = [rng.getrandbits(1) for _ in range(5)]
            yield _homogenized(Coloring.random(n, seed), d, skip=seed)


def _hits_matching_reference(method, colorings):
    """Check that the route's certificate is byte-identical to the object-level
    reference's on every colouring; return which of hit and miss occurred."""
    seen = set()
    for c in colorings:
        want = render_certificate(reference_find_line(c, method), method)
        assert render_certificate(find_interval_line(c, method), method) == want, c
        seen.add(want.startswith("MONO-LINE"))
    return seen


@pytest.mark.parametrize("n", range(1, 11))
def test_pipeline_matches_independent_reference(n):
    assert _hits_matching_reference("pipeline", _pipeline_cases(n)) == ({False} if n < 5 else {False, True})


@pytest.mark.parametrize("n", range(1, 11))
def test_gadget_route_matches_object_reference(n):
    # No quadruple below n=5; at n=5 one quadruple, whose five lines a random
    # colouring misses about one time in four.
    cases = [*_pipeline_cases(n), *(Coloring.random(n, seed) for seed in range(4, 24))]
    assert _hits_matching_reference("gadget", cases) == ({False} if n < 5 else {True} if n > 5 else {False, True})


def test_find_interval_line_direct_constant():
    cert = find_interval_line(Coloring.constant(3, 0))
    assert cert is not None
    assert cert.color == 0
    assert (cert.line.lo, cert.line.hi) == (1, 1)
    assert cert.verify(Coloring.constant(3, 0))


def test_find_interval_line_direct_on_avoider():
    avoider = coloring_from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    assert find_interval_line(avoider) is None


def test_find_interval_line_direct_certifies_first_line_in_enumeration_order():
    for n in range(1, 7):
        for seed in range(4):
            c = Coloring.random(n, seed)
            first = next((l for l in enumerate_m_interval_lines(n) if is_monochromatic(c, l)), None)
            cert = find_interval_line(c, method="direct")
            if first is None:
                assert cert is None
            else:
                assert cert.line == first and cert.verify(c)


def test_find_interval_line_methods_agree_on_pattern_colorings():
    for bits in itertools.product((0, 1), repeat=5):
        c = pattern_coloring(5, bits)
        direct = find_interval_line(c, method="direct")
        gadget = find_interval_line(c, method="gadget")
        pipeline = find_interval_line(c, method="pipeline")
        assert direct is not None
        assert gadget is not None and gadget.verify(c)
        assert pipeline is not None and pipeline.verify(c)


def test_find_interval_line_rejects_unknown_method():
    with pytest.raises(ValueError):
        find_interval_line(Coloring.constant(2, 0), method="psychic")


def test_certificate_verify_catches_wrong_color():
    c = Coloring.constant(3, 0)
    cert = find_interval_line(c)
    wrong = LineCertificate(line=cert.line, color=1)
    assert not wrong.verify(c)


def test_certificate_rejects_two_run_line():
    line = Line(3, (1, 3), ((2, 2),))
    c = Coloring.constant(3, 0)
    assert is_monochromatic(c, line)
    with pytest.raises(ValueError, match="not one interval"):
        LineCertificate(line=line, color=0)


def test_certificate_verify_catches_mixed_line():
    c = coloring_from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    some_line = next(iter(enumerate_m_interval_lines(2)))
    assert not is_monochromatic(c, some_line)
    cert = LineCertificate(line=some_line, color=0)
    assert not cert.verify(c)


def test_certificate_render_matches_format():
    cert = find_interval_line(pattern_coloring(5, (0, 1, 1, 0, 0)), method="gadget")
    text = render_certificate(cert, method="gadget")
    lines = text.splitlines()
    assert lines[0] == "MONO-LINE n=5 color=0 active=3..3 fixed=1:1,2:3,4:3,5:2"
    assert lines[1:] == ["W1 13132", "W2 13232", "W3 13332"]
    assert render_certificate(None, method="gadget") == "NONE method=gadget\n"


def test_gadget_route_matches_case_lemma_prediction():
    # the certified line index must be the first singleton of the d-vector
    for d, idx, color in case_lemma_check():
        c = pattern_coloring(5, d)
        glines = gadget_lines(UNIT_QUAD)
        cert = find_interval_line(c, method="gadget")
        assert cert.color == color
        predicted = glines[idx - 1]
        assert cert.line == predicted


def test_quadruple_needs_four_cuts():
    with pytest.raises(ValueError, match="need exactly four cut positions"):
        Quadruple(6, (1, 2, 3))


def test_certificate_checks_its_colour_and_its_cube():
    line = gadget_lines(UNIT_QUAD)[0]
    with pytest.raises(ValueError, match="certificate colour must be 0 or 1"):
        LineCertificate(line, 2)
    cert = LineCertificate(line, 0)
    assert cert.verify(Coloring.constant(5, 0))
    assert not cert.verify(Coloring.constant(6, 0))


def test_case_analysis_without_a_singleton_is_a_broken_construction(monkeypatch):
    monkeypatch.setattr(gadgets, "nsets", lambda d: (frozenset((0, 1)),) * 5)
    broken = r"construction broken: no singleton colour set for d=\(0, 1, 1, 0, 0\)"
    with pytest.raises(RuntimeError, match=broken):
        first_singleton_index((0, 1, 1, 0, 0))


def test_a_reported_line_is_rechecked_before_it_is_certified(monkeypatch):
    avoider = coloring_from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    monkeypatch.setattr(gadgets, "first_mono_line", lambda bits, n: interval_line(2, 1, 1, {2: 1}))
    with pytest.raises(RuntimeError, match="internal error: line .* reported monochromatic but is not"):
        find_interval_line(avoider)
