import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hjinterval.cube import (
    Coloring,
    Line,
    Symmetry,
    Word,
    all_symmetries,
    apply_symmetry,
    coloring_from_text,
    coloring_to_text,
    interval_line,
    interval_line_members,
    is_monochromatic,
    line_at_row,
    load_coloring,
    m_interval_active_sets,
    m_interval_line_members,
    mono_mask,
    rank,
    rank_permutation,
    save_coloring,
    unrank,
)

from oracles import enumerate_m_interval_lines

words = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(*([st.integers(1, 3)] * n)).map(Word)
)


def test_word_from_text():
    w = Word.from_text("132")
    assert w.letters == (1, 3, 2)
    assert str(w) == "132"
    assert len(w) == 3
    assert w[1] == 1 and w[3] == 2


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word((1, 4))
    with pytest.raises(ValueError):
        Word.from_text("10")
    with pytest.raises(ValueError):
        Word.from_text("1\u0662")
    with pytest.raises(ValueError):
        Word(())


def test_rank_examples():
    assert rank(Word.from_text("11")) == 0
    assert rank(Word.from_text("23")) == 5
    assert unrank(5, 2) == Word.from_text("23")
    assert rank(Word.from_text("33")) == 8


def test_rank_is_lexicographic_order():
    for n in (1, 2, 3):
        ws = [unrank(r, n) for r in range(3**n)]
        assert ws == sorted(ws, key=lambda w: w.letters)


@given(words)
def test_rank_unrank_roundtrip(w):
    assert unrank(rank(w), len(w)) == w


def test_interval_line_counts():
    expected = {1: 1, 2: 7, 3: 34, 4: 142}
    for n, count in expected.items():
        lines = list(enumerate_m_interval_lines(n))
        assert len(lines) == count
        assert len(set(lines)) == count


def test_interval_line_count_closed_form():
    for n in range(1, 6):
        closed = sum((n - w + 1) * 3 ** (n - w) for w in range(1, n + 1))
        assert sum(1 for _ in enumerate_m_interval_lines(n)) == closed


def test_m_interval_counts():
    # at m = n every nonempty active set is allowed: 4^n - 3^n lines
    for n in range(1, 5):
        assert sum(1 for _ in enumerate_m_interval_lines(n, n)) == 4**n - 3**n
    # the interval table is the m = 1 table: rows by lo, then hi, then fixed-part rank
    for n in range(1, 7):
        table = interval_line_members(n)
        assert np.array_equal(table, m_interval_line_members(n, 1))
        expected = []
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                rest = [i for i in range(1, n + 1) if not lo <= i <= hi]
                for letters in itertools.product((1, 2, 3), repeat=len(rest)):
                    line = interval_line(n, lo, hi, dict(zip(rest, letters)))
                    expected.append([rank(p) for p in line.points()])
        assert table.tolist() == expected


def test_m_interval_counts_monotone_in_m():
    for n in range(1, 5):
        counts = [
            sum(1 for _ in enumerate_m_interval_lines(n, m)) for m in range(1, n + 1)
        ]
        assert counts == sorted(counts)


def test_line_points_worked_example():
    line = interval_line(3, 2, 3, {1: 2})
    p1, p2, p3 = line.points()
    assert (str(p1), str(p2), str(p3)) == ("211", "222", "233")


def test_interval_line_validates_bounds():
    with pytest.raises(ValueError):
        interval_line(3, 0, 2)
    with pytest.raises(ValueError):
        interval_line(3, 2, 4)
    with pytest.raises(ValueError):
        interval_line(3, 3, 2)
    with pytest.raises(ValueError):
        interval_line(3, 1, 2, {2: 1})  # fixed coordinate inside the interval


def test_member_table_matches_line_points():
    for n in range(1, 7):
        table = interval_line_members(n)
        lines = list(enumerate_m_interval_lines(n))
        assert table.dtype == np.int64
        assert table.shape == (len(lines), 3)
        expected = [[rank(p) for p in line.points()] for line in lines]
        assert table.tolist() == expected


def test_m_member_table_matches_enumeration():
    for n in range(1, 7):
        for m in range(1, n + 1):
            table = m_interval_line_members(n, m)
            lines = list(enumerate_m_interval_lines(n, m))
            assert table.dtype == np.int64
            assert table.shape == (len(lines), 3)
            expected = [[rank(p) for p in line.points()] for line in lines]
            assert table.tolist() == expected
            actives = tuple(dict.fromkeys(line.active for line in lines))
            assert m_interval_active_sets(n, m) == actives


def test_line_at_row_matches_enumeration():
    for n in range(1, 7):
        for m in range(1, n + 1):
            lines = list(enumerate_m_interval_lines(n, m))
            for row, line in enumerate(lines):
                got = line_at_row(n, row, m)
                assert got == line and type(got) is Line
                if m == 1:
                    assert line_at_row(n, row) == got
            for row in (-1, len(lines)):
                with pytest.raises(IndexError):
                    line_at_row(n, row, m)


def test_mono_mask_flags_exactly_the_monochromatic_rows():
    for n in (2, 3):
        c = Coloring.random(n, seed=n)
        lines = list(enumerate_m_interval_lines(n, n))
        mask = mono_mask(c.bits, m_interval_line_members(n, n))
        assert mask.tolist() == [is_monochromatic(c, line) for line in lines]


def test_coloring_basics():
    c = Coloring.constant(2, 1)
    assert c.bitstring == "1" * 9
    assert c.get(Word.from_text("12")) == 1
    d = Coloring.from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    assert d.bitstring == "001010100"
    assert d.bits[2] == 1
    assert d != c
    assert Coloring.from_bits(2, np.array([0, 0, 1, 0, 1, 0, 1, 0, 0])) == d
    assert len({d, Coloring.from_bits(2, list(map(int, d.bitstring)))}) == 1


def coloring_from_function(n, fn):
    """The colouring that gives each word the colour fn(word)."""
    return Coloring.from_bits(n, (fn(unrank(r, n)) for r in range(3**n)))


def test_coloring_from_function():
    c = coloring_from_function(2, lambda w: w[1] % 2)
    for r in range(9):
        assert c.bits[r] == unrank(r, 2)[1] % 2


def test_coloring_random_seeded():
    assert Coloring.random(3, seed=7) == Coloring.random(3, seed=7)
    assert Coloring.random(3, seed=7) != Coloring.random(3, seed=8)


def test_coloring_rejects_bad_bits():
    with pytest.raises(ValueError):
        Coloring.from_bits(2, [0] * 8)
    with pytest.raises(ValueError):
        Coloring.from_bits(1, [0, 2, 0])


@pytest.mark.parametrize("bad", [1.5, 256, -1])
def test_from_bits_checks_values_before_narrowing(bad):
    # a uint8 cast would read 1.5 as 1 and fail on 256 and -1 with OverflowError
    with pytest.raises(ValueError, match="colours must be 0 or 1"):
        Coloring.from_bits(1, [0, bad, 0])


def test_coloring_leaves_the_callers_array_writable():
    bits = np.zeros(9, np.uint8)
    Coloring(2, bits)
    bits[0] = 1
    assert bits[0] == 1


def test_coloring_is_not_changed_through_an_earlier_view():
    bits = np.zeros(9, np.uint8)
    view = bits[:]
    c = Coloring(2, bits)
    before = hash(c)
    view[0] = 1
    assert c.bitstring == "000000000"
    assert hash(c) == before


def test_coloring_checks_colours_before_narrowing_them():
    # 256 would wrap to 0 as a uint8
    with pytest.raises(ValueError, match="0 or 1"):
        Coloring(1, np.array([0, 256, 1], dtype=np.int64))


def test_is_monochromatic():
    c = Coloring.constant(2, 0)
    line = interval_line(2, 1, 2)
    assert is_monochromatic(c, line)
    d = Coloring.from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    assert not is_monochromatic(d, line)


def test_symmetry_group_size():
    group = all_symmetries()
    assert len(group) == 24
    assert group[0] == Symmetry()
    assert len(set(group)) == 24


def test_symmetry_word_action():
    g = Symmetry(reverse=True)
    assert g.apply_to_word(Word.from_text("123")) == Word.from_text("321")
    perm = all_symmetries()[1]
    assert perm.apply_to_word(Word.from_text("111")) != Word.from_text("111") or (
        perm.letter_perm[0] == 1
    )


def test_symmetry_inverse_and_compose():
    w = Word.from_text("1232")
    for g in all_symmetries():
        assert g.inverse().apply_to_word(g.apply_to_word(w)) == w
        assert g.apply_to_word(g.inverse().apply_to_word(w)) == w


def test_apply_symmetry_reversal():
    c = coloring_from_function(2, lambda w: 1 if str(w) == "12" else 0)
    img = apply_symmetry(c, Symmetry(reverse=True))
    hot = [str(unrank(r, 2)) for r in range(9) if img.bits[r] == 1]
    assert hot == ["21"]


def test_apply_symmetry_color_swap_involution():
    c = Coloring.random(2, seed=3)
    swap = Symmetry(swap_colors=True)
    assert apply_symmetry(apply_symmetry(c, swap), swap) == c
    assert apply_symmetry(c, swap) != c


def test_rank_permutation_is_permutation():
    for g in all_symmetries():
        p = rank_permutation(g, 2)
        assert sorted(p.tolist()) == list(range(9))


def test_symmetries_preserve_interval_lines():
    lines = {frozenset(l.points()) for l in enumerate_m_interval_lines(3)}
    for g in all_symmetries():
        for l in enumerate_m_interval_lines(3):
            image = frozenset(g.apply_to_word(w) for w in l.points())
            assert image in lines


@given(st.integers(0, 23), st.integers(0, 2**9 - 1))
def test_symmetry_preserves_mono_lines(gi, mask):
    g = all_symmetries()[gi]
    c = Coloring.from_bits(2, [(mask >> i) & 1 for i in range(9)])
    img = apply_symmetry(c, g)
    before = sum(is_monochromatic(c, l) for l in enumerate_m_interval_lines(2))
    after = sum(is_monochromatic(img, l) for l in enumerate_m_interval_lines(2))
    assert before == after


def test_coloring_text_roundtrip():
    c = Coloring.from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    text = coloring_to_text(c)
    assert text == "HJC 3 2\n001010100\n"
    assert coloring_from_text(text) == c


def test_coloring_text_rejects_malformed():
    for bad in (
        "",
        "junk",
        "HJC 2 2\n" + "0" * 9,
        "HJC 3 2\n0101",
        "HJC 3 2\n" + "0" * 8 + "2",
        "HJC 3 2\n" + "0" * 7 + "\u00e91",
        "HJC 3 0\n",
    ):
        with pytest.raises(ValueError):
            coloring_from_text(bad)


def test_coloring_text_refuses_huge_n_by_its_size():
    # 3**n is never built for an n the body cannot hold
    with pytest.raises(ValueError) as err:
        coloring_from_text("HJC 3 1000000\n" + "0" * 9 + "\n")
    assert str(err.value) == "expected 3**1000000 colour characters for n=1000000, got 9"


@pytest.mark.parametrize("n", ["\u00b2", "\u0663", "1" * 5000])
def test_coloring_header_refuses_numbers_before_int(n):
    # int() fails on the superscript and on 5000 digits, and reads the Arabic-Indic 3 as 3
    with pytest.raises(ValueError) as err:
        coloring_from_text(f"HJC 3 {n}\n" + "0" * 27 + "\n")
    assert str(err.value) == f"bad colouring header {'HJC 3 ' + n!r}"


def test_coloring_text_error_names_first_bad_character():
    for body, ch, pos in (
        ("01/" + "0" * 6, "/", 2),
        ("0" * 4 + "\u00e9" + "2" + "0" * 3, "\u00e9", 4),
        ("0" * 5 + "\u2603" + "0" * 3, "\u2603", 5),
        ("0" * 8 + "\x00", "\x00", 8),
    ):
        with pytest.raises(ValueError) as err:
            coloring_from_text(f"HJC 3 2\n{body}\n")
        assert str(err.value) == f"bad colour byte {ch!r} at position {pos}"


def test_save_load_roundtrip(tmp_path):
    c = Coloring.random(3, seed=11)
    path = tmp_path / "c.hjc"
    save_coloring(c, str(path))
    assert load_coloring(str(path)) == c


def test_all_words_enumeration_consistency():
    # cross-check: every point of every interval line is a valid rank
    for n in (1, 2, 3):
        size = 3**n
        for line in enumerate_m_interval_lines(n):
            for p in line.points():
                assert 0 <= rank(p) < size


def test_fixed_coordinates_cover_complement():
    for line in itertools.islice(enumerate_m_interval_lines(3), 10):
        fixed_coords = {i for i, _ in line.fixed}
        assert fixed_coords == set(range(1, 4)) - set(line.active)
