"""Independent checks of the answers hjinterval gives.

Nothing here imports the package under test.  Ranks, interval and
m-interval line families, pattern colourings, certificates, DIMACS and
the bound tower are recomputed from their definitions, so a bug in the
program cannot hide behind the same bug in the checker.
"""

from __future__ import annotations

import itertools
import math
import sys

#: The five seed patterns of the construction, as letter tuples.
SEED_PATTERNS = ((1, 3, 2), (1, 2, 3, 2), (1, 3, 1, 2), (1, 3, 2, 3, 2), (1, 3, 1, 3, 2))

#: Known SAT/UNSAT answers of the avoider question "some colouring of the
#: n-cube has no monochromatic line whose active set has at most m runs".
#: HJ(3,2) = 4 (Hindman & Tressler) makes n <= 3 satisfiable for every m and
#: n = 4 unsatisfiable once every line is included; at n = 4 a line has at
#: most two runs, so m >= 2 already means every line.  The interval-line
#: avoider at n = 4 is the repository's frozen regression.
def known_satisfiable(n: int, m: int) -> bool | None:
    if n <= 3:
        return True
    if n == 4:
        return m == 1
    return None


class WrongAnswer(Exception):
    """The program's answer contradicts an independent check."""


def rank(letters) -> int:
    """Base-3 rank, coordinate 1 most significant, letters from {1, 2, 3}."""
    r = 0
    for v in letters:
        r = r * 3 + (v - 1)
    return r


def _runs(active: tuple[int, ...]) -> int:
    return 1 + sum(1 for a, b in zip(active, active[1:]) if b != a + 1)


def line_family(n: int, m: int = 1) -> list[tuple[int, int, int]]:
    """Rank triples of every line whose active set has at most m runs.

    A point of the line with moving letter v has rank base + (v - 1) * w,
    where base collects the pinned letters and w the weights of the
    active coordinates.
    """
    weight = [3 ** (n - i) for i in range(1, n + 1)]
    lines = []
    for mask in range(1, 2**n):
        active = tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        if _runs(active) > m:
            continue
        w = sum(weight[i - 1] for i in active)
        rest = [i for i in range(1, n + 1) if not mask >> (i - 1) & 1]
        for pinned in itertools.product(range(3), repeat=len(rest)):
            base = sum(d * weight[i - 1] for i, d in zip(rest, pinned))
            lines.append((base, base + w, base + 2 * w))
    return lines


def mono_lines(bits: bytes, lines) -> int:
    return sum(1 for p, q, r in lines if bits[p] == bits[q] == bits[r])


def contraction(word) -> tuple[int, ...]:
    out = [word[0]]
    for v in word[1:]:
        if v != out[-1]:
            out.append(v)
    return tuple(out)


def pattern_bits(n: int, d) -> bytes:
    """Colour d[p] on words contracting to seed pattern p, d[0] elsewhere."""
    table = {p: d[i] for i, p in enumerate(SEED_PATTERNS)}
    return bytes(table.get(contraction(w), d[0]) for w in itertools.product((1, 2, 3), repeat=n))


def coloring_text(n: int, bits: bytes) -> str:
    return f"HJC 3 {n}\n" + "".join("1" if b else "0" for b in bits) + "\n"


def parse_coloring(text: str) -> tuple[int, bytes]:
    head, _, body = text.partition("\n")
    parts = head.split(" ")
    if len(parts) != 3 or parts[:2] != ["HJC", "3"] or not parts[2].isdigit():
        raise WrongAnswer(f"bad colouring header {head!r}")
    n = int(parts[2])
    body = body.rstrip("\n")
    if len(body) != 3**n or set(body) - {"0", "1"}:
        raise WrongAnswer(f"colouring body is not {3 ** n} characters of 0/1")
    return n, bytes(int(ch) for ch in body)


def check_certificate(text: str, n: int, bits: bytes) -> None:
    """A MONO-LINE certificate must name an interval line of the n-cube
    whose three points all carry the claimed colour in ``bits``."""
    rows = [r for r in text.split("\n") if r]
    if len(rows) != 4 or not rows[0].startswith("MONO-LINE "):
        raise WrongAnswer(f"malformed certificate {text!r}")
    fields = dict(tok.partition("=")[::2] for tok in rows[0].split(" ")[1:])
    try:
        if int(fields["n"]) != n:
            raise WrongAnswer(f"certificate for n={fields['n']}, colouring has n={n}")
        color = int(fields["color"])
        lo, hi = (int(x) for x in fields["active"].split(".."))
        fixed = {}
        for pair in filter(None, fields["fixed"].split(",")):
            p, v = pair.split(":")
            fixed[int(p)] = int(v)
    except (KeyError, ValueError) as exc:
        raise WrongAnswer(f"malformed certificate header {rows[0]!r}") from exc
    active = set(range(lo, hi + 1))
    if not 1 <= lo <= hi <= n or set(fixed) != set(range(1, n + 1)) - active:
        raise WrongAnswer(f"certificate line {rows[0]!r} is not an interval line of the {n}-cube")
    if any(v not in (1, 2, 3) for v in fixed.values()):
        raise WrongAnswer(f"certificate pins a letter outside 1..3: {rows[0]!r}")
    for v, row in enumerate(rows[1:], start=1):
        want = tuple(v if i in active else fixed[i] for i in range(1, n + 1))
        if row != f"W{v} " + "".join(map(str, want)):
            raise WrongAnswer(f"certificate member {row!r} is not point {v} of its line")
        if bits[rank(want)] != color:
            raise WrongAnswer(f"certificate point {row!r} does not have colour {color}")


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    n_vars, clauses, lits = None, [], []
    for row in text.splitlines():
        if not row or row.startswith("c"):
            continue
        if row.startswith("p"):
            _, _, v, _ = row.split()
            n_vars = int(v)
            continue
        for tok in row.split():
            if tok == "0":
                clauses.append(tuple(lits))
                lits = []
            else:
                lits.append(int(tok))
    if n_vars is None or lits:
        raise WrongAnswer("malformed DIMACS file")
    return n_vars, clauses


def check_encoding(text: str, n: int, m: int, sym_break: bool) -> None:
    """The DIMACS file must hold exactly the two clauses of every line of
    the m-run family, plus the unit clause when symmetry breaking is on."""
    n_vars, clauses = parse_dimacs(text)
    want = []
    for p, q, r in line_family(n, m):
        want.append((p + 1, q + 1, r + 1))
        want.append((-p - 1, -q - 1, -r - 1))
    if sym_break:
        want.append((-1,))
    if n_vars != 3**n or sorted(map(sorted, clauses)) != sorted(map(sorted, want)):
        raise WrongAnswer(f"DIMACS for n={n} m={m} sym_break={sym_break} is not the m-run line family")


def model_bits(model, n: int) -> bytes:
    values = {}
    for lit in model:
        if values.setdefault(abs(lit), lit > 0) != (lit > 0):
            raise WrongAnswer(f"model assigns variable {abs(lit)} both ways")
    if set(values) != set(range(1, 3**n + 1)):
        raise WrongAnswer("model does not assign exactly the cube's variables")
    return bytes(1 if values[v] else 0 for v in range(1, 3**n + 1))


def check_sat_answer(status: str, model, coloring: str | None, n: int, m: int, sym_break: bool) -> str:
    """Check a solver verdict; return "checked", "unverified" or "unknown"."""
    if status == "unknown":
        return "unknown"
    expected = known_satisfiable(n, m)
    if status == "unsat":
        if expected is None:
            return "unverified"
        if expected:
            raise WrongAnswer(f"UNSAT for n={n} m={m}, which has an avoider")
        return "checked"
    if status != "sat":
        raise WrongAnswer(f"unknown solver status {status!r}")
    bits = model_bits(model, n)
    if coloring != "".join(map(str, bits)):
        raise WrongAnswer("decoded colouring differs from the model")
    if mono_lines(bits, line_family(n, m)):
        raise WrongAnswer(f"model for n={n} m={m} leaves a monochromatic line")
    if sym_break and bits[0] != 0:
        raise WrongAnswer("symmetry-broken model colours rank 0 with 1")
    return "checked"


def parse_report(text: str) -> dict[str, str]:
    return dict(row.partition("=")[::2] for row in text.splitlines() if row)


def check_search_report(text: str, n: int) -> int | None:
    """Check a rendered search report; return its violation count.

    An avoider must avoid every interval line and a best colouring must
    have exactly the reported number of monochromatic ones.
    """
    fields = parse_report(text)
    if fields.get("n") != str(n):
        raise WrongAnswer(f"search report is for n={fields.get('n')}, asked n={n}")
    if fields["outcome"] == "refuted":
        # Avoiders exist up to n = 4, so no search at those sizes may refute.
        if n <= 4:
            raise WrongAnswer(f"search refuted n={n}, which has an avoider")
        return None
    body = fields["coloring"]
    if len(body) != 3**n or set(body) - {"0", "1"}:
        raise WrongAnswer("search report colouring is malformed")
    count = mono_lines(bytes(int(ch) for ch in body), line_family(n))
    if str(count) != fields["violations"]:
        raise WrongAnswer(f"report claims {fields['violations']} violations, recount gives {count}")
    if (fields["outcome"] == "avoider-found") != (count == 0):
        raise WrongAnswer(f"outcome {fields['outcome']} with {count} violations")
    return count


#: Uniformity t_i - 1 of the Ramsey bound behind tower levels n1..n5.
TOWER_UNIFORMITY = (2, 3, 3, 4, 4)

LOG10_2 = math.log10(2)


def _binomial(n: int, k: int, cap: int) -> int | None:
    """C(n, k) for k <= n / 2, or None when it has more than cap digits."""
    if k > cap / LOG10_2 + 1:  # C(n, k) >= 2**k
        return None
    if k and k * ((n.bit_length() - 1) * LOG10_2 - math.log10(k)) > cap + 1:  # C(n, k) >= (n/k)**k
        return None
    v = math.comb(n, k)
    return v if v < 10**cap else None


def ramsey_bound(t: int, p: int, q: int, cap: int) -> int | None:
    """The tower's upper bound on R_t(p, q), or None past cap digits.

    R_2(p, q) = C(p+q-2, p-1).  For t >= 3, R_t(p, q) =
    R_{t-1}(R_t(p-1, q), R_t(p, q-1)) + 1 with R_t(t, q) = q and
    R_t(p, t) = p.  A bound exceeds both bounds it is built from, so
    once one cell of the table passes the cap, R_t(p, q) does too.
    """
    if t == 2:
        return _binomial(p + q - 2, min(p, q) - 1, cap)
    row = list(range(t, q + 1))  # R_t(t, qq) for qq = t..q
    for pp in range(t + 1, p + 1):
        new = [pp]  # R_t(pp, t)
        for qq in range(t + 1, q + 1):
            inner = ramsey_bound(t - 1, row[qq - t], new[-1], cap)
            if inner is None or inner + 1 >= 10**cap:
                return None
            new.append(inner + 1)
        row = new
    return row[q - t]


def check_tower(text: str, cap: int) -> int:
    """Check the bound tower at a digit cap; return how many rows are exact.

    n0 = 4, n_i = R_t(n_{i-1}, n_{i-1}) with t from TOWER_UNIFORMITY, and
    n = n5 + 1.  A row whose bound has at most cap digits must print it
    in decimal; any other row must print its formula over the row above
    it as printed.
    """
    got = [tuple(row.split("=", 1)) for row in text.splitlines()]
    names = ["n0", "n1", "n2", "n3", "n4", "n5", "n"]
    if [g[0] for g in got] != names:
        raise WrongAnswer(f"tower rows {[g[0] for g in got]} are not {names}")
    values = [g[1] for g in got]
    exact = [4]
    for t in TOWER_UNIFORMITY:
        exact.append(None if exact[-1] is None else ramsey_bound(t, exact[-1], exact[-1], cap))
    exact.append(None if exact[-1] is None or exact[-1] + 1 >= 10**cap else exact[-1] + 1)
    formulas = ["4", *(f"R{t}({prev},{prev})" for t, prev in zip(TOWER_UNIFORMITY, values)), values[5] + "+1"]
    for name, value, want, formula in zip(names, values, exact, formulas):
        expected = formula if want is None else _decimal(want)
        if value != expected:
            raise WrongAnswer(f"tower {name}={value!r} at cap {cap}, expected {expected!r}")
    return sum(want is not None for want in exact)


def _decimal(v: int) -> str:
    """str(v), past the interpreter's default limit on digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(old)
