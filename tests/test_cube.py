import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hjinterval.cnf import decode_model, encode
from hjinterval.cube import (
    Coloring,
    Line,
    Symmetry,
    Word,
    all_symmetries,
    apply_symmetry,
    first_mono_line,
    interval_line,
    interval_line_members,
    is_monochromatic,
    load_coloring,
    m_interval_active_sets,
    m_interval_line_members,
    rank,
    rank_permutation,
    save_coloring,
    unrank,
)
from hjinterval.gadgets import pattern_coloring
from hjinterval.search import exhaustive_search, local_search, violation_count

from oracles import coloring_from_bits, enumerate_m_interval_lines, inverse_symmetry, symmetry_on_word

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


def test_line_points_of_a_direct_line():
    line = Line(3, (2,), ((1, 2), (3, 1)))
    assert tuple(map(str, line.points())) == ("211", "221", "231")


@pytest.mark.parametrize(
    "n, active, fixed",
    [
        (0, (1,), ()),  # n < 1
        (2, (), ((1, 1), (2, 1))),  # empty active set
        (2, (2, 1), ()),  # active set out of order
        (3, (1,), ((2, 1), (2, 1))),  # repeated fixed position
        (3, (1,), ((3, 1), (2, 1))),  # fixed positions out of order
        (3, (1, 2), ((2, 1), (3, 1))),  # active and fixed overlap
        (3, (1,), ((2, 1),)),  # coordinate 3 missing
        (2, (0, 1), ((2, 1),)),  # coordinate 0
        (2, (1,), ((2, 1), (3, 1))),  # coordinate n + 1
        (2, (1,), ((2, 4),)),  # fixed letter 4
    ],
)
def test_line_refuses_a_bad_part(n, active, fixed):
    with pytest.raises(ValueError):
        Line(n, active, fixed)


@pytest.mark.parametrize("v", [0, 4])
def test_line_point_needs_a_letter_of_the_alphabet(v):
    with pytest.raises(ValueError):
        Line(3, (2,), ((1, 2), (3, 1))).word_at(v)


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


def test_cached_member_table_is_read_only():
    # Every encode and search in the process shares the cached table.
    table = interval_line_members(2)
    with pytest.raises(ValueError, match="read-only"):
        table[:] = 0
    assert encode(2).clauses[:2].tolist() == [[1, 4, 7], [-1, -4, -7]]


def _sample_colourings(n):
    colourings = [Coloring.constant(n, 0), Coloring.constant(n, 1), exhaustive_search(n).coloring]
    colourings += [pattern_coloring(n, d) for d in itertools.product((0, 1), repeat=5)]
    return colourings + [Coloring.random(n, seed) for seed in range(20)]


@pytest.mark.parametrize("n", range(1, 5))
def test_first_mono_line_is_the_first_monochromatic_line(n):
    colourings = _sample_colourings(n)
    for m in range(1, n + 1):
        lines = list(enumerate_m_interval_lines(n, m))
        for c in colourings:
            got = first_mono_line(c.bits, n, m)
            assert got == next((line for line in lines if is_monochromatic(c, line)), None)
            if got is not None:
                assert type(got) is Line and all(type(v) is int for _, v in got.fixed)
            if m == 1:
                assert first_mono_line(c.bits, n) == got
    assert first_mono_line(colourings[2].bits, n) is None  # the least avoider scans every line


@pytest.mark.parametrize("n", range(1, 5))
def test_violation_count_counts_the_monochromatic_interval_lines(n):
    lines = list(enumerate_m_interval_lines(n))
    for c in _sample_colourings(n):
        assert violation_count(c) == sum(is_monochromatic(c, line) for line in lines)


def test_coloring_basics():
    c = Coloring.constant(2, 1)
    assert c.bitstring == "1" * 9
    assert c.get(Word.from_text("12")) == 1
    d = coloring_from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    assert d.bitstring == "001010100"
    assert d.bits[2] == 1
    assert d != c
    assert coloring_from_bits(2, np.array([0, 0, 1, 0, 1, 0, 1, 0, 0])) == d
    assert len({d, coloring_from_bits(2, list(map(int, d.bitstring)))}) == 1


def coloring_from_function(n, fn):
    """The colouring that gives each word the colour fn(word)."""
    return coloring_from_bits(n, (fn(unrank(r, n)) for r in range(3**n)))


def test_coloring_from_function():
    c = coloring_from_function(2, lambda w: w[1] % 2)
    for r in range(9):
        assert c.bits[r] == unrank(r, 2)[1] % 2


def test_coloring_random_seeded():
    assert Coloring.random(3, seed=7) == Coloring.random(3, seed=7)
    assert Coloring.random(3, seed=7) != Coloring.random(3, seed=8)


@pytest.mark.parametrize("n", range(1, 11))
def test_coloring_random_is_the_bits_of_one_draw(n):
    for seed in (0, 5, 2**31 - 1):
        word = random.Random(seed).getrandbits(3**n)
        assert Coloring.random(n, seed).bitstring == "".join(str(word >> i & 1) for i in range(3**n))


def test_coloring_random_chunks_join_into_one_draw():
    # n = 16 has 3**16 > 2**24 cells, so the draw comes in three chunks
    word = random.Random(1).getrandbits(3**16)
    bits = Coloring.random(16, 1).bits
    assert np.packbits(bits, bitorder="little").tobytes() == word.to_bytes(-(-3**16 // 8), "little")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Word((1, 2))[0], IndexError, "coordinate 0 outside 1..2"),
        (lambda: unrank(9, 2), ValueError, "rank 9 outside 0..8 for n=2"),
        (lambda: m_interval_active_sets(2, 0), ValueError, "m must be >= 1"),
        (lambda: Coloring(0, np.zeros(1, dtype=np.uint8)), ValueError, "n must be >= 1"),
        (lambda: Coloring.constant(2, 2), ValueError, "colour must be 0 or 1"),
        (
            lambda: Coloring.constant(2, 0).get(Word((1, 2, 3))),
            ValueError,
            "word length 3 does not match colouring n=2",
        ),
        (
            lambda: is_monochromatic(Coloring.constant(2, 0), interval_line(3, 1, 3)),
            ValueError,
            "line n=3 does not match colouring n=2",
        ),
        (lambda: Symmetry((1, 1, 2)), ValueError, r"\(1, 1, 2\) is not a permutation of \(1,2,3\)"),
    ],
    ids=["word-coordinate", "unrank", "active-sets-m", "coloring-n", "constant-colour", "get-length",
         "mono-line-n", "letter-perm"],
)
def test_bad_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_coloring_rejects_bad_bits():
    with pytest.raises(ValueError):
        coloring_from_bits(2, [0] * 8)
    with pytest.raises(ValueError):
        coloring_from_bits(1, [0, 2, 0])


@pytest.mark.parametrize("bad", [1.5, 256, -1])
def test_from_bits_checks_values_before_narrowing(bad):
    # Coloring compares its uint8 copy with the values, which reads 1.5 as 1 and 256 as 0
    with pytest.raises(ValueError, match="colours must be 0 or 1"):
        coloring_from_bits(1, [0, bad, 0])


def test_coloring_leaves_the_callers_array_writable():
    bits = np.zeros(9, np.uint8)
    c = Coloring(2, bits)
    bits[0] = 1
    assert bits[0] == 1
    assert c.bitstring == "000000000"  # the colouring holds a copy


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
    d = coloring_from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    assert not is_monochromatic(d, line)


def test_symmetry_group_size():
    group = all_symmetries()
    assert len(group) == 24
    assert group[0] == Symmetry()
    assert len(set(group)) == 24


def test_symmetry_word_action():
    # Cell i of the transformed colouring reads from the g-preimage of word i.
    p = rank_permutation(Symmetry(reverse=True), 3)
    assert p[rank(Word.from_text("321"))] == rank(Word.from_text("123"))
    assert rank_permutation(Symmetry((2, 3, 1)), 1).tolist() == [2, 0, 1]
    for g in all_symmetries()[1:]:
        p = rank_permutation(g, 1)
        assert p.tolist() != [0, 1, 2] or g.reverse or g.swap_colors


def test_symmetry_inverse_and_compose():
    c = Coloring.random(4, seed=5)
    identity = np.arange(3**4)
    for g in all_symmetries():
        p, pinv = rank_permutation(g, 4), rank_permutation(inverse_symmetry(g), 4)
        assert p[pinv].tolist() == identity.tolist()
        assert pinv[p].tolist() == identity.tolist()
        assert apply_symmetry(apply_symmetry(c, g), inverse_symmetry(g)) == c
        for h in all_symmetries():
            gh = Symmetry(
                tuple(g.letter_perm[v - 1] for v in h.letter_perm),
                g.reverse != h.reverse,
                g.swap_colors != h.swap_colors,
            )
            assert apply_symmetry(apply_symmetry(c, h), g) == apply_symmetry(c, gh)


def test_rank_permutation_matches_word_action():
    w = Word.from_text("1232")
    for g in all_symmetries():
        ginv = inverse_symmetry(g)
        assert symmetry_on_word(ginv, symmetry_on_word(g, w)) == w
        assert symmetry_on_word(g, symmetry_on_word(ginv, w)) == w
        for n in range(1, 6):
            expected = [rank(symmetry_on_word(ginv, unrank(i, n))) for i in range(3**n)]
            table = rank_permutation(g, n)
            assert table.dtype == np.int64
            assert table.tolist() == expected


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
    # Each g permutes the rows of the member table, as a set of member sets.
    for n in range(1, 5):
        for m in (1, 2):
            members = m_interval_line_members(n, m)
            lines = {frozenset(row) for row in members.tolist()}
            for g in all_symmetries():
                image = rank_permutation(g, n)[members]
                assert {frozenset(row) for row in image.tolist()} == lines


@given(st.integers(0, 23), st.integers(0, 2**9 - 1))
def test_symmetry_preserves_mono_lines(gi, mask):
    g = all_symmetries()[gi]
    c = coloring_from_bits(2, [(mask >> i) & 1 for i in range(9)])
    img = apply_symmetry(c, g)
    before = sum(is_monochromatic(c, l) for l in enumerate_m_interval_lines(2))
    after = sum(is_monochromatic(img, l) for l in enumerate_m_interval_lines(2))
    assert before == after


def test_coloring_text_roundtrip(tmp_path):
    c, path = coloring_from_bits(2, [0, 0, 1, 0, 1, 0, 1, 0, 0]), tmp_path / "c.hjc"
    save_coloring(c, str(path))
    assert path.read_bytes() == b"HJC 3 2\n001010100\n"
    assert load_coloring(str(path)) == c


def refusal(text: str, path) -> str:
    """The message with which load_coloring refuses the file at path that holds the text
    as UTF-8."""
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as err:
        load_coloring(str(path))
    return str(err.value)


def codec_refusal(byte: int, pos: int) -> str:
    """The message for a non-ASCII byte at a position of a file, refused first."""
    return f"'ascii' codec can't decode byte {byte:#x} in position {pos}: ordinal not in range(128)"


def test_coloring_text_rejects_malformed(tmp_path):
    for bad in (
        "",
        "junk",
        "HJC 2 2\n" + "0" * 9,
        "HJC 3 2\n0101",
        "HJC 3 2\n" + "0" * 8 + "2",
        "HJC 3 2\n" + "0" * 7 + "\u00e91",
        "HJC 3 0\n",
    ):
        refusal(bad, tmp_path / "c.hjc")


def test_coloring_text_refuses_huge_n_by_its_size(tmp_path):
    # 3**n is never built for an n the body cannot hold
    message = "expected 3**1000000 colour characters for n=1000000, got 9"
    assert refusal("HJC 3 1000000\n" + "0" * 9 + "\n", tmp_path / "c.hjc") == message


@pytest.mark.parametrize("n", ["\u00b2", "\u0663", "1" * 5000])
def test_coloring_header_refuses_numbers_before_int(n, tmp_path):
    # int() fails on the superscript and on 5000 digits, and reads the Arabic-Indic 3 as 3;
    # the two non-ASCII digits are refused by their first UTF-8 byte, before the header is read
    text = f"HJC 3 {n}\n" + "0" * 27 + "\n"
    message = {
        "\u00b2": codec_refusal(0xC2, 6),
        "\u0663": codec_refusal(0xD9, 6),
    }.get(n, f"bad colouring header {'HJC 3 ' + n!r}")
    assert refusal(text, tmp_path / "c.hjc") == message


def test_coloring_text_error_names_first_bad_character(tmp_path):
    # A non-ASCII character is refused by its first UTF-8 byte, at its place in the text.
    for body, message in (
        ("01/" + "0" * 6, "bad colour byte '/' at position 2"),
        ("0" * 4 + "\u00e9" + "2" + "0" * 3, codec_refusal(0xC3, 12)),
        ("0" * 5 + "\u2603" + "0" * 3, codec_refusal(0xE2, 13)),
        ("0" * 8 + "\x00", "bad colour byte '\\x00' at position 8"),
        ("0" * 3 + "2" + "\x7f" + "0" * 4, "bad colour byte '2' at position 3"),
    ):
        assert refusal(f"HJC 3 2\n{body}\n", tmp_path / "c.hjc") == message


def test_coloring_file_line_ends(tmp_path):
    # Bytes are read as they are: "\r" is a stray byte in the header, or one too many
    # in the body; the final newline may be left out.
    for text, message in (
        ("HJC 3 1\r\n010\r\n", "bad colouring header 'HJC 3 1\\r'"),
        ("HJC 3 1\n010\r\n", "expected 3**1 colour characters for n=1, got 4"),
    ):
        assert refusal(text, tmp_path / "c.hjc") == message
    path = tmp_path / "short.hjc"
    path.write_bytes(b"HJC 3 1\n010")
    assert load_coloring(str(path)) == coloring_from_bits(1, [0, 1, 0])


def test_save_load_roundtrip(tmp_path):
    c = Coloring.random(3, seed=11)
    path = tmp_path / "c.hjc"
    save_coloring(c, str(path))
    assert load_coloring(str(path)) == c


def test_coloring_files_hold_the_cells_once(tmp_path):
    # Saving adds ord("0") to the cells once; loading reads the file into one array and
    # turns its body into the cells in place.
    c, path, cells = Coloring.random(12, seed=3), str(tmp_path / "c.hjc"), 3**12
    tracemalloc.start()
    try:
        save_coloring(c, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_coloring(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == c
    assert save_peak <= 1.5 * cells, save_peak / cells
    assert load_peak <= 1.5 * cells, load_peak / cells


def test_built_and_loaded_colorings_are_read_only(tmp_path):
    path = tmp_path / "c.hjc"
    save_coloring(Coloring.random(3, seed=1), str(path))
    model = [-1, -2, 3, -4, 5, -6, 7, -8, -9]  # the least avoider of n=2
    built = [
        Coloring(2, np.zeros(9, np.uint8)),
        Coloring.random(3, seed=1),
        Coloring.constant(2, 1),
        load_coloring(str(path)),
        apply_symmetry(Coloring.random(2, seed=2), Symmetry((2, 1, 3), True, True)),
        pattern_coloring(5, (0, 1, 1, 0, 0)),
        decode_model(model, 2),
        local_search(2, seed=0, budget=300).coloring,
        exhaustive_search(2).coloring,
    ]
    for c in built:
        assert not c.bits.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c.bits[0] = 1


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
