"""Upper bounds for the hypergraph Ramsey numbers behind the construction.

Only upper bounds: R1(p,q) = p + q - 1 by pigeonhole, R2(p,q) =
binom(p+q-2, p-1) by the classical two-colour argument, and for t >= 3
the stepping-down recursion Rt(p,q) <= R(t-1)(Rt(p-1,q), Rt(p,q-1)) + 1
with bases Rt(t,q) = q and Rt(p,t) = p.  True values are unknown up
there and nothing here pretends otherwise.

Numbers this game produces stop fitting in memory almost immediately,
so evaluation is exact only below a digit cap.  Past the cap a
:class:`BoundExpr` keeps only its formula, a one-line text such as
``R3(20,20)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .gadgets import MIN_GROUND_SIZE, SEED_LENGTHS

DEFAULT_CAP_DIGITS = 10_000
#: The bound for uniformity t recurses t levels deep: t stays below Python's recursion limit.
MAX_UNIFORMITY = 900


@dataclass(frozen=True)
class BoundExpr:
    """An exact big integer, or the formula of a bound past the cap."""

    value: int | None = None
    formula: str | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.formula is None):
            raise ValueError("expression is either exact or symbolic, not both")

    @classmethod
    def exact(cls, value: int) -> "BoundExpr":
        return cls(value=int(value))

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def render(self) -> str:
        return self.formula if self.formula is not None else _int_text(self.value)

    def __str__(self) -> str:
        return self.render()


def _int_text(v: int) -> str:
    """str(v), lifting the interpreter's int-to-str digit limit only if it bites."""
    try:
        return str(v)
    except ValueError:
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            return str(v)
        finally:
            sys.set_int_max_str_digits(old)


def _binomial(n: int, k: int, limit: int) -> int | None:
    """C(n, k) for k <= n/2, or None when a floor on it reaches limit."""
    # C(n, k) >= (n/k)**k >= 2**k; a floor past limit's bit length settles
    # it without asking math.comb for a number far beyond the cap.
    if k * max(1, n.bit_length() - k.bit_length() - 1) >= limit.bit_length():
        return None
    return math.comb(n, k)


def _upper(t: int, p: int, q: int, limit: int) -> int | None:
    """The bound on R_t(p, q) if it is below limit, else None."""
    if t == 1:
        v = p + q - 1
    elif t == 2:
        v = _binomial(p + q - 2, min(p, q) - 1, limit)
    elif p == t or q == t:
        v = q if p == t else p
    else:
        # Row pp of the table holds R_t(pp, qq) for qq = t..q; row t is qq.
        row = range(t, q + 1)
        for pp in range(t + 1, p + 1):
            new = [pp]
            for above in row[1:]:
                # Each cell exceeds the two cells it is built from, so no cell
                # exceeds R_t(p, q): the first one at or past the limit
                # settles R_t(p, q) as symbolic.
                inner = _upper(t - 1, above, new[-1], limit)
                if inner is None or inner + 1 >= limit:
                    return None
                new.append(inner + 1)
            row = new
        v = row[-1]
    return v if v is not None and v < limit else None


def ramsey_upper(
    t: int,
    p: int | BoundExpr,
    q: int | BoundExpr,
    cap_digits: int = DEFAULT_CAP_DIGITS,
) -> BoundExpr:
    """Upper bound for the t-uniform two-colour Ramsey number R_t(p, q).

    Exact below the digit cap, symbolic above it.  Symbolic arguments
    short-circuit to a symbolic bound, since anything built on top of an
    over-cap number is over the cap too.
    """
    if not 1 <= t <= MAX_UNIFORMITY:
        raise ValueError(f"uniformity t must be in 1..{MAX_UNIFORMITY}, not {t}")
    if cap_digits < 1:
        raise ValueError("cap must be at least one digit")
    p, q = (x if isinstance(x, BoundExpr) else BoundExpr.exact(x) for x in (p, q))
    if p.is_exact and q.is_exact:
        if p.value < t or q.value < t:
            raise ValueError(f"parameters ({p.value},{q.value}) below the base cases for t={t}")
        v = _upper(t, p.value, q.value, 10**cap_digits)
        if v is not None:
            return BoundExpr.exact(v)
    return BoundExpr(formula=f"R{t}({p.render()},{q.render()})")


def plus_one(expr: BoundExpr, cap_digits: int = DEFAULT_CAP_DIGITS) -> BoundExpr:
    if expr.is_exact and expr.value + 1 < 10**cap_digits:
        return BoundExpr.exact(expr.value + 1)
    return BoundExpr(formula=f"{expr.render()}+1")


def tower(cap_digits: int = DEFAULT_CAP_DIGITS) -> list[tuple[str, BoundExpr]]:
    """The nested bound chain guaranteeing a monochromatic interval line.

    Level i needs a ground set of size handled by the Ramsey bound for
    subsets one smaller than seed pattern i, so the chain iterates
    n_i = R(t_i - 1)(n_{i-1}, n_{i-1}) from n_0 = 4 through the five
    seed patterns, and the cube dimension is n_5 + 1 (the ground set
    lives inside 1..n-1).
    """
    rows = [("n0", BoundExpr.exact(MIN_GROUND_SIZE))]
    cur: BoundExpr = rows[0][1]
    for i, t in enumerate(SEED_LENGTHS, start=1):
        cur = ramsey_upper(t - 1, cur, cur, cap_digits)
        rows.append((f"n{i}", cur))
    rows.append(("n", plus_one(cur, cap_digits)))
    return rows
