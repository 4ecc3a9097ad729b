import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hjinterval.cube import Word, unrank
from hjinterval.patterns import Pattern, breakpoints, contract, realize

words = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(*([st.integers(1, 3)] * n)).map(Word)
)


def test_worked_example():
    w = Word.from_text("1122333111")
    assert str(contract(w)) == "1231"
    assert breakpoints(w) == (2, 4, 7)
    assert realize(contract(w), breakpoints(w), 10) == w


def test_contract_constant_word():
    assert str(contract(Word.from_text("2222"))) == "2"
    assert breakpoints(Word.from_text("2222")) == ()


def test_contract_already_a_pattern():
    w = Word.from_text("1312")
    assert contract(w).letters == w.letters
    assert breakpoints(w) == (1, 2, 3)


def test_pattern_rejects_adjacent_repeats():
    with pytest.raises(ValueError):
        Pattern((1, 1, 2))
    with pytest.raises(ValueError):
        Pattern.from_text("122")


@pytest.mark.parametrize("text", ["\u0661\u0663\u0662", "1x2"])
def test_pattern_text_is_read_as_word_text(text):
    with pytest.raises(ValueError, match="bad word text"):
        Pattern.from_text(text)


def test_pattern_is_a_word_but_not_equal_to_one():
    assert isinstance(contract(Word.from_text("1132")), Word)
    assert Pattern((1, 3, 2)) != Word((1, 3, 2))
    for bad in ((), (1, 3, 3), (2, 2)):
        with pytest.raises(ValueError):
            Pattern(bad)


def test_breakpoint_set_validates_range():
    # breakpoints of a length-n word lie in 1..n-1
    assert str(realize(Pattern.from_text("123"), (1, 4), 5)) == "12223"
    with pytest.raises(ValueError):
        realize(Pattern.from_text("123"), (0, 2), 5)
    with pytest.raises(ValueError):
        realize(Pattern.from_text("123"), (2, 5), 5)


def test_realize_wants_matching_sizes():
    # a t-letter pattern needs exactly t-1 breakpoints
    with pytest.raises(ValueError):
        realize(Pattern.from_text("12"), (1, 2), 4)
    with pytest.raises(ValueError):
        realize(Pattern.from_text("123"), (1,), 4)


def test_realize_accepts_plain_iterable():
    w = realize(Pattern.from_text("1231"), [2, 4, 7], 10)
    assert str(w) == "1122333111"
    assert realize(Pattern.from_text("1231"), {7, 4, 2}, 10) == w


def test_roundtrip_exhaustive_n5():
    for letters in itertools.product((1, 2, 3), repeat=5):
        w = Word(letters)
        assert realize(contract(w), breakpoints(w), 5) == w


def test_roundtrip_all_ranks_n4():
    for r in range(3**4):
        w = unrank(r, 4)
        assert realize(contract(w), breakpoints(w), 4) == w


@given(words)
def test_roundtrip_random(w):
    assert realize(contract(w), breakpoints(w), len(w)) == w


@given(words)
def test_contract_is_idempotent(w):
    p = contract(w)
    assert contract(Word(p.letters)) == p


@given(words)
def test_breakpoint_count_matches_pattern_length(w):
    assert len(contract(w)) == len(breakpoints(w)) + 1


def test_realize_then_contract_recovers_inputs():
    p = Pattern.from_text("132")
    pts = (2, 5)
    w = realize(p, pts, 6)
    assert str(w) == "113332"
    assert contract(w) == p
    assert breakpoints(w) == pts


def test_realize_refuses_repeated_breakpoints():
    with pytest.raises(ValueError, match="breakpoints must be distinct"):
        realize(Pattern.from_text("132"), (2, 2), 5)
