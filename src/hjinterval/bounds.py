"""Upper bounds for the hypergraph Ramsey numbers behind the construction.

Only upper bounds: R1(p,q) = p + q - 1 by pigeonhole, R2(p,q) =
binom(p+q-2, p-1) by the classical two-colour argument, and for t >= 3
the stepping-down recursion Rt(p,q) <= R(t-1)(Rt(p-1,q), Rt(p,q-1)) + 1
with bases Rt(t,q) = q and Rt(p,t) = p.  True values are unknown up
there and nothing here pretends otherwise.

Numbers this game produces stop fitting in memory almost immediately,
so evaluation is exact only below a digit cap; past the cap (or past
any feasible recursion table) a :class:`BoundExpr` stays symbolic and
renders as a one-line formula such as ``R3(20,20)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .gadgets import MIN_GROUND_SIZE, SEED_LENGTHS

DEFAULT_CAP_DIGITS = 10_000

#: Exact expansion of the t >= 3 recursion is attempted only when the
#: parameter table has at most this many cells.  Anything larger is far
#: beyond any sane digit cap well before the table fills, and forcing it
#: symbolic keeps the evaluator from chewing on astronomically wide
#: recursions.
TABLE_LIMIT = 100_000


@dataclass(frozen=True)
class BoundExpr:
    """An exact big integer, or an unevaluated bound formula."""

    value: int | None = None
    op: str | None = None
    t: int | None = None
    args: tuple["BoundExpr", ...] = ()

    def __post_init__(self) -> None:
        if (self.value is None) == (self.op is None):
            raise ValueError("expression is either exact or symbolic, not both")
        if self.op == "ramsey" and (self.t is None or len(self.args) != 2):
            raise ValueError("ramsey node needs t and two arguments")
        if self.op == "plus1" and len(self.args) != 1:
            raise ValueError("plus1 node needs one argument")

    @classmethod
    def exact(cls, value: int) -> "BoundExpr":
        return cls(value=int(value))

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def render(self) -> str:
        if self.is_exact:
            return _int_text(self.value)
        if self.op == "ramsey":
            a, b = self.args
            return f"R{self.t}({a.render()},{b.render()})"
        return f"{self.args[0].render()}+1"

    def __str__(self) -> str:
        return self.render()


def _digits10(v: int) -> int:
    """Decimal digit count without the interpreter's int-to-str limit."""
    if v < 0:
        raise ValueError("bounds are positive")
    if v < 10:
        return 1
    # (bits-1)*log10(2) never overshoots log10(v), so walk upward.
    d = max(1, int((v.bit_length() - 1) * 0.3010299956639812))
    while 10**d <= v:
        d += 1
    return d


def _int_text(v: int) -> str:
    """str(v) with the conversion limit lifted just far enough."""
    try:
        return str(v)
    except ValueError:
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(max(old, _digits10(v) + 10))
            return str(v)
        finally:
            sys.set_int_max_str_digits(old)


def _exceeds_cap(v: int, cap_digits: int) -> bool:
    return _digits10(v) > cap_digits


def _binom_upper(p: int, q: int, cap_digits: int) -> int | None:
    """binom(p+q-2, p-1) exactly, or None when it overflows the cap."""
    n = p + q - 2
    k = min(p - 1, q - 1)
    if k == 0:
        return 1
    # C(n, k) >= 2**k for k <= n/2, so a large enough k settles it.
    if k > int(cap_digits / 0.3010299956639812) + 2:
        return None
    if n < 10**15:
        est = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(10)
        if est > cap_digits + 5:
            return None
        v = math.comb(n, k)
        return None if _exceeds_cap(v, cap_digits) else v
    # Huge n, modest k: C(n, k) >= (n/k)**k gives a sound digit floor.
    floor_digits = k * (_digits10(n) - _digits10(k) - 1)
    if floor_digits > cap_digits:
        return None
    bit_cap = int((cap_digits + 2) * 3.33) + 16
    v = 1
    for i in range(1, k + 1):
        v = v * (n - k + i) // i
        if v.bit_length() > bit_cap:
            return None
    return None if _exceeds_cap(v, cap_digits) else v


def ramsey_upper(
    t: int,
    p: int | BoundExpr,
    q: int | BoundExpr,
    cap_digits: int = DEFAULT_CAP_DIGITS,
) -> BoundExpr:
    """Upper bound for the t-uniform two-colour Ramsey number R_t(p, q).

    Exact below the digit cap, symbolic above it.  Symbolic arguments
    short-circuit to a symbolic node, since anything built on top of an
    over-cap number is over the cap too.
    """
    if t < 1:
        raise ValueError("uniformity t must be >= 1")
    if cap_digits < 1:
        raise ValueError("cap must be at least one digit")

    def norm(x: int | BoundExpr) -> int | BoundExpr:
        if isinstance(x, BoundExpr):
            return x.value if x.is_exact else x
        return int(x)

    p, q = norm(p), norm(q)
    if isinstance(p, BoundExpr) or isinstance(q, BoundExpr):
        wrap = lambda x: x if isinstance(x, BoundExpr) else BoundExpr.exact(x)
        return BoundExpr(op="ramsey", t=t, args=(wrap(p), wrap(q)))
    if p < t or q < t:
        raise ValueError(f"parameters ({p},{q}) below the base cases for t={t}")

    def settle(v: int | None, pp: int, qq: int) -> BoundExpr:
        if v is not None and not _exceeds_cap(v, cap_digits):
            return BoundExpr.exact(v)
        return BoundExpr(op="ramsey", t=t, args=(BoundExpr.exact(pp), BoundExpr.exact(qq)))

    if t == 1:
        return settle(p + q - 1, p, q)
    if t == 2:
        return settle(_binom_upper(p, q, cap_digits), p, q)

    if (p - t + 1) * (q - t + 1) > TABLE_LIMIT:
        return settle(None, p, q)
    memo: dict[tuple[int, int], BoundExpr] = {}

    def rec(pp: int, qq: int) -> BoundExpr:
        if pp == t:
            return BoundExpr.exact(qq)
        if qq == t:
            return BoundExpr.exact(pp)
        key = (pp, qq)
        hit = memo.get(key)
        if hit is not None:
            return hit
        a = rec(pp - 1, qq)
        b = rec(pp, qq - 1)
        if a.is_exact and b.is_exact:
            inner = ramsey_upper(t - 1, a.value, b.value, cap_digits)
            if inner.is_exact:
                out = settle(inner.value + 1, pp, qq)
            else:
                out = settle(None, pp, qq)
        else:
            out = settle(None, pp, qq)
        memo[key] = out
        return out

    return rec(p, q)


def plus_one(expr: BoundExpr, cap_digits: int = DEFAULT_CAP_DIGITS) -> BoundExpr:
    if expr.is_exact and not _exceeds_cap(expr.value + 1, cap_digits):
        return BoundExpr.exact(expr.value + 1)
    return BoundExpr(op="plus1", args=(expr,))


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
