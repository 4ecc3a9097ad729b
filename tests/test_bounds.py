import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hjinterval.bounds import (
    DEFAULT_CAP_DIGITS,
    MAX_UNIFORMITY,
    BoundExpr,
    plus_one,
    ramsey_upper,
    tower,
)


def test_graph_case_small_values():
    assert ramsey_upper(1, 4, 4).value == 7
    assert ramsey_upper(2, 4, 4).value == 20
    assert ramsey_upper(2, 3, 3).value == 6
    assert ramsey_upper(1, 2, 9).value == 10


def test_t1_is_pigeonhole():
    for p in range(1, 8):
        for q in range(1, 8):
            assert ramsey_upper(1, p, q).value == p + q - 1


def test_t2_is_binomial():
    for p in range(2, 9):
        for q in range(2, 9):
            assert ramsey_upper(2, p, q).value == math.comb(p + q - 2, p - 1)
    assert ramsey_upper(2, 10**50, 7).value == math.comb(10**50 + 5, 6)


@given(st.integers(2, 12), st.integers(2, 12))
def test_t2_symmetry(p, q):
    assert ramsey_upper(2, p, q).value == ramsey_upper(2, q, p).value


@given(st.integers(2, 10), st.integers(2, 10))
def test_t2_monotone(p, q):
    assert ramsey_upper(2, p + 1, q).value >= ramsey_upper(2, p, q).value


def test_t3_recursion_values():
    # R3(4,4) <= R2(R3(3,4), R3(4,3)) + 1 = R2(4,4) + 1
    assert ramsey_upper(3, 4, 4).value == 21
    # R3(4,5) <= R2(R3(3,5), R3(4,4)) + 1 = R2(5,21) + 1 = C(24,4) + 1
    assert ramsey_upper(3, 4, 5).value == math.comb(24, 4) + 1
    assert ramsey_upper(3, 4, 5).value == 10627


def test_base_cases():
    for t in (1, 2, 3, 4):
        assert ramsey_upper(t, t, 9).value == 9
        assert ramsey_upper(t, 9, t).value == 9
    # the cap applies to base cases too, and only the cap
    assert ramsey_upper(3, 200000, 3).value == 200000
    assert ramsey_upper(4, 10**6, 4).value == 10**6
    assert ramsey_upper(3, 3, 10, cap_digits=1).render() == "R3(3,10)"


def test_arguments_below_uniformity_rejected():
    with pytest.raises(ValueError):
        ramsey_upper(3, 2, 5)
    with pytest.raises(ValueError):
        ramsey_upper(2, 5, 1)
    with pytest.raises(ValueError):
        ramsey_upper(0, 2, 2)


def test_uniformity_is_capped_below_the_recursion_limit():
    assert ramsey_upper(MAX_UNIFORMITY, 901, 901).render() == "R900(901,901)"
    with pytest.raises(ValueError, match=r"1\.\.900, not 1100"):
        ramsey_upper(1100, 1101, 1101)


def test_huge_value_stays_exact_under_default_cap():
    e = ramsey_upper(3, 5, 5)
    assert e.is_exact
    assert len(e.render()) == 6396
    assert ramsey_upper(3, 5, 5, cap_digits=6396).render() == e.render()


def test_cap_forces_symbolic():
    e = ramsey_upper(3, 5, 5, cap_digits=100)
    assert not e.is_exact
    assert e.render().startswith("R")
    assert ramsey_upper(3, 5, 5, cap_digits=6395).render() == "R3(5,5)"
    start = time.perf_counter()
    assert ramsey_upper(3, 4, 100003).render() == "R3(4,100003)"
    assert time.perf_counter() - start < 0.5


def test_cap_past_a_million_digits_is_refused():
    with pytest.raises(ValueError, match="cap must be at most 1000000 digits, not 1000001"):
        ramsey_upper(2, 4, 4, 10**6 + 1)


def test_cap_below_one_digit_is_refused():
    with pytest.raises(ValueError, match="cap must be at least one digit"):
        ramsey_upper(2, 4, 4, cap_digits=0)


def test_symbolic_render_forms():
    e = ramsey_upper(3, 20, 20, cap_digits=50)
    assert e.render() == "R3(20,20)"
    nested = ramsey_upper(4, e, e, cap_digits=50)
    assert nested.render() == "R4(R3(20,20),R3(20,20))"
    assert plus_one(nested).render() == "R4(R3(20,20),R3(20,20))+1"


def test_symbolic_args_short_circuit():
    sym = ramsey_upper(3, 20, 20, cap_digits=50)
    out = ramsey_upper(4, sym, 10)
    assert not out.is_exact
    assert out.render() == "R4(R3(20,20),10)"


def test_plus_one_on_exact():
    assert plus_one(BoundExpr.exact(4)).value == 5
    assert plus_one(BoundExpr.exact(998), 3).value == 999
    assert plus_one(BoundExpr.exact(999), 3).render() == "999+1"


def test_expression_is_exact_or_symbolic():
    with pytest.raises(ValueError, match="either exact or symbolic, not both"):
        BoundExpr()
    with pytest.raises(ValueError, match="either exact or symbolic, not both"):
        BoundExpr(20, "R2(4,4)")


def test_exact_constructor():
    e = BoundExpr.exact(20)
    assert e.is_exact and e.value == 20
    assert e.render() == "20"


def test_tower_shape():
    rows = tower()
    assert [label for label, _ in rows] == ["n0", "n1", "n2", "n3", "n4", "n5", "n"]
    values = dict(rows)
    assert values["n0"].value == 4
    assert values["n1"].value == 20
    assert values["n2"].render() == "R3(20,20)"
    assert values["n3"].render() == "R3(R3(20,20),R3(20,20))"
    assert values["n4"].render().startswith("R4(")
    assert values["n"].render().endswith("+1")


def test_tower_levels_follow_seed_lengths():
    # level i applies uniformity t_i - 1 for t = (3, 4, 4, 5, 5)
    rows = dict(tower(cap_digits=1))
    assert rows["n1"].render() == "R2(4,4)"
    assert rows["n2"].render() == "R3(R2(4,4),R2(4,4))"


def test_tower_rendering_is_stable():
    a = [(label, e.render()) for label, e in tower()]
    b = [(label, e.render()) for label, e in tower()]
    assert a == b


def test_default_cap():
    assert DEFAULT_CAP_DIGITS == 10000

