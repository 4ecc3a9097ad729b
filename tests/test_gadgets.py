import itertools
import random
import time

import pytest

from hjinterval.cube import Coloring, Line, Word, is_monochromatic, rank, unrank
from hjinterval.gadgets import (
    MIN_GROUND_SIZE,
    SEED_LENGTHS,
    SEED_PATTERNS,
    LineCertificate,
    Quadruple,
    bracket_word,
    case_lemma_check,
    find_interval_line,
    first_singleton_index,
    gadget_lines,
    gadget_words,
    homogeneous_colors,
    induced_coloring,
    nsets,
    parse_certificate,
    pattern_coloring,
    render_certificate,
)
from hjinterval.patterns import contract, realize

from oracles import enumerate_m_interval_lines

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
    q = Quadruple(9, (2, 4, 5, 7))
    assert str(bracket_word((1, 3, 2, 3, 2), q)) == "113323322"


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
    d = (0, 1, 0, 1, 0)
    assert nsets(d) == (
        frozenset({0, 1}),
        frozenset({0}),
        frozenset({1}),
        frozenset({0}),
        frozenset({0, 1}),
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
    return Coloring.from_bits(n, (table.get(contract(w).letters, d[0]) for w in words))


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


def test_induced_coloring_constant_for_pattern_colorings():
    for d in ((0, 1, 1, 0, 0), (1, 0, 1, 0, 1)):
        c = pattern_coloring(5, d)
        for i in range(1, 6):
            values = set(induced_coloring(c, i, (1, 2, 3, 4)).values())
            assert values == {d[i - 1]}, (d, i)


def test_induced_coloring_keys_are_t_subsets():
    c = pattern_coloring(5, (0, 0, 0, 0, 0))
    mapping = induced_coloring(c, 2, (1, 2, 3, 4))
    assert set(mapping) == set(itertools.combinations((1, 2, 3, 4), 3))


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


def _pipeline_reference(c):
    """The pipeline's line, worked out from the seed patterns directly: when
    each seed pattern takes one colour on the words with breakpoints among
    the cuts 1..4, the first monochromatic candidate line over those cuts."""
    if c.n < 5:
        return None
    for p in SEED_PATTERNS:
        subsets = itertools.combinations((1, 2, 3, 4), len(p) - 1)
        if len({c.get(realize(p, A, c.n)) for A in subsets}) != 1:
            return None
    lines = gadget_lines(Quadruple(c.n, (1, 2, 3, 4)))
    return next(line for line in lines if is_monochromatic(c, line))


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
        yield Coloring.from_bits(n, (rng.getrandbits(1) for _ in range(3**n)))
        if n >= 5:
            # seed 0 forces every seed pattern, seeds 1..3 leave pattern 1..3 free
            d = [rng.getrandbits(1) for _ in range(5)]
            yield _homogenized(Coloring.random(n, seed), d, skip=seed)


@pytest.mark.parametrize("n", range(1, 10))
def test_pipeline_matches_independent_reference(n):
    for c in _pipeline_cases(n):
        want = _pipeline_reference(c)
        cert = find_interval_line(c, method="pipeline")
        if want is None:
            assert cert is None, c
        else:
            assert cert is not None and cert.line == want, c
            assert cert.color == c.get(want.word_at(1))


def test_find_interval_line_direct_constant():
    cert = find_interval_line(Coloring.constant(3, 0))
    assert cert is not None
    assert cert.color == 0
    assert (cert.line.lo, cert.line.hi) == (1, 1)
    assert cert.verify(Coloring.constant(3, 0))


def test_find_interval_line_direct_on_avoider():
    avoider = Coloring.from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
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
    c = Coloring.from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
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


def test_certificate_roundtrip():
    for d in ((0, 0, 0, 0, 0), (0, 1, 1, 0, 0), (1, 1, 0, 1, 0)):
        cert = find_interval_line(pattern_coloring(5, d), method="gadget")
        assert parse_certificate(render_certificate(cert)) == cert


def test_none_certificate_roundtrip():
    text = render_certificate(None, method="gadget")
    assert text == "NONE method=gadget\n"
    assert parse_certificate(text) is None


def test_parse_certificate_rejects_garbage():
    text = render_certificate(find_interval_line(pattern_coloring(5, (0, 1, 1, 0, 0)), method="gadget"))
    assert "W2 13232\n" in text
    tampered = text.replace("W2 13232\n", "W2 13222\n")  # a member row off the header's line
    for bad in ("", "MONO-LINE n=2\n", "MONO-LINE n=2 color=0 active=1..1 fixed=2:1\nW1 11\n", tampered):
        with pytest.raises(ValueError):
            parse_certificate(bad)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("n=2", "n=100000000000000000"),
        ("n=2", "n=+2"),
        ("n=2", "n=\u0662"),
        ("active=1..1", "active=1..100000000000000000"),
    ],
)
def test_parse_certificate_refuses_a_bad_header_before_building_the_line(field, bad):
    text = "MONO-LINE n=2 color=0 active=1..1 fixed=2:1\nW1 11\nW2 21\nW3 31\n"
    assert parse_certificate(text).line.n == 2
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_certificate(text.replace(field, bad))
    assert time.perf_counter() - start < 0.2


def test_gadget_route_matches_case_lemma_prediction():
    # the certified line index must be the first singleton of the d-vector
    for d, idx, color in case_lemma_check():
        c = pattern_coloring(5, d)
        glines = gadget_lines(UNIT_QUAD)
        cert = find_interval_line(c, method="gadget")
        assert cert.color == color
        predicted = glines[idx - 1]
        assert cert.line == predicted
