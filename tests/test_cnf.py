import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hjinterval import cnf
from hjinterval.cnf import (
    CnfInstance,
    EncoderBugError,
    check_model,
    decode_model,
    encode,
    parse_dimacs,
    run_solver,
    solve_builtin,
    write_dimacs,
    write_dimacs_file,
)
from hjinterval.cube import (
    Coloring,
    is_monochromatic,
    m_interval_line_members,
    rank,
)
from hjinterval.drup import check_proof, parse_proof
from hjinterval.search import violation_count

from oracles import enumerate_m_interval_lines

EXPECTED_SIZES = {1: (3, 2), 2: (9, 14), 3: (27, 68)}

# sha256 of write_dimacs(encode(n, m, sym_break)): the text of the writer that named
# the line above each clause pair, with its "c line " and "c symmetry-break " comment
# lines deleted.  Its clause lines came from the writer that formatted one tuple of
# Python ints per clause.
GOLDEN_DIMACS_SHA256 = {
    (6, 1, False): "5abad3cf91b65668c138e1f53d97d5b0315708894ab13933b839c3a9045b2263",
    (6, 1, True): "88f8f6a2b5d566deb2339bec450905f96cf89c61cd7f401b11f07625f6c4f296",
    (6, 6, False): "d66aea43b538cec998e7a6bbbfefeec1aac1d1d4fe57ef06bc9b22c1df8b8542",
    (6, 6, True): "7fc8b9fdb09ac24c084d01b873a8fbd5126119c1e2af512d077fc8dd893fcc36",
    (7, 2, False): "f88b4d146ef76f6c3e1ed52cdf64b0b7226a1eb1a1f6b53720530abcb8af9537",
    (7, 2, True): "e994fe77c2ba8a3b438504b47f880f3d1de7529598b93df01a73678e58eaa9ea",
    (7, 7, False): "0519ff42ad387e8f584b485c2333ab45d2dccca1c7beb740754f2daedb42589b",
    (7, 7, True): "219c7a8da3c2ce34be3375fd205f79f08d044f0f1921673edd99f9d8e0f815a3",
}
# The same for encode(10, 1), whose clauses hold five-digit literals and whose pair
# order crosses pinned positions of two digits; too slow to parse back in every run.
GOLDEN_DIMACS_N10_SHA256 = "206e95d63b55c704bbc902f34de20630a277b044dae79128de0d237497c56c2b"

# Pigeonhole 3 into 2 (variable 2*(i-1)+j: pigeon i in hole j), which is
# unsatisfiable, plus the unit 7 and one clause of width 8 over all variables.
MIXED_WIDTH_DIMACS = (
    "p cnf 8 11\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-1 -5 0\n-3 -5 0\n-2 -4 0\n-2 -6 0\n"
    "-4 -6 0\n7 0\n1 2 3 4 5 6 -7 8 0\n"
)


def test_encode_sizes():
    for n, (nv, nc) in EXPECTED_SIZES.items():
        inst = encode(n)
        assert inst.n_vars == nv
        assert len(inst.clauses) == nc


def test_encode_n1_clauses():
    inst = encode(1)
    assert inst.clauses.tolist() == [[1, 2, 3], [-1, -2, -3]]


def test_encode_clause_pairs_per_line():
    # each line contributes a not-all-zero and a not-all-one clause
    inst = encode(2)
    pos = [c for c in inst.clause_tuples() if all(l > 0 for l in c)]
    neg = [c for c in inst.clause_tuples() if all(l < 0 for l in c)]
    assert len(pos) == len(neg) == 7
    for p, q in zip(pos, neg):
        assert q == tuple(-l for l in p)


def test_sym_break_adds_unit_clause():
    plain = encode(2)
    broken = encode(2, sym_break=True)
    assert len(broken.clauses) == len(plain.clauses) + 1
    assert (-1,) in broken.clause_tuples()


def test_encode_m2_counts():
    inst = encode(3, m=2)
    assert inst.n_vars == 27
    assert len(inst.clauses) == 74


def _encode_reference(n, m, sym_break):
    """The clauses encode() must build and the DIMACS text write_dimacs() must
    give them, made line by line from the enumeration."""
    clauses, rows = [], []
    for line in enumerate_m_interval_lines(n, m):
        p, q, r = (rank(w) + 1 for w in line.points())
        rows += [f"{p} {q} {r} 0", f"-{p} -{q} -{r} 0"]
        clauses += [(p, q, r), (-p, -q, -r)]
    if sym_break:
        rows.append("-1 0")
        clauses.append((-1,))
    head = [f"p cnf {3**n} {len(clauses)}", f"c hjinterval n={n} m={m} sym_break={int(sym_break)}"]
    return tuple(clauses), "\n".join(head + rows) + "\n"


def test_encode_matches_enumeration_reference():
    for n in range(1, 5):
        for m in range(1, n + 1):
            for sym_break in (False, True):
                clauses, text = _encode_reference(n, m, sym_break)
                inst = encode(n, m, sym_break)
                assert (inst.n_vars, inst.family) == (3**n, (n, m, sym_break))
                assert inst.clause_tuples() == list(clauses)
                assert write_dimacs(inst) == text


def test_dimacs_bytes_are_pinned():
    for (n, m, sym_break), digest in GOLDEN_DIMACS_SHA256.items():
        inst = encode(n, m, sym_break)
        text = write_dimacs(inst)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest, (n, m, sym_break)
        assert parse_dimacs(text) == inst


def test_dimacs_bytes_are_pinned_at_n10():
    text = write_dimacs(encode(10, 1))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN_DIMACS_N10_SHA256


def test_clause_pairs_follow_member_table_rows():
    # clause pair k speaks for row k of the member table, variables offset by one
    for n in range(1, 6):
        for m in range(1, n + 1):
            rows = (m_interval_line_members(n, m) + 1).tolist()
            clauses = encode(n, m).clauses
            assert len(clauses) == 2 * len(rows)
            assert clauses[::2].tolist() == rows
            assert (-clauses[1::2]).tolist() == rows


def test_dimacs_header_names_the_encoded_family():
    text = write_dimacs(encode(3, m=2, sym_break=True))
    assert text.splitlines()[:2] == ["p cnf 27 75", "c hjinterval n=3 m=2 sym_break=1"]
    assert parse_dimacs(text).family == (3, 2, True)
    assert parse_dimacs(write_dimacs(encode(2))).family == (2, 1, False)
    assert parse_dimacs("p cnf 2 1\n1 2 0\n").family is None
    # blank and whitespace-only lines, after the header and between clauses, are skipped
    spaced = write_dimacs(encode(2)).replace("=0\n", "=0\n\n").replace(" 0\n", " 0\n \t\n")
    assert parse_dimacs(spaced) == encode(2)


def test_parse_dimacs_rejects_bad_family_header():
    for header in (
        "c hjinterval n=3 m=2",
        "c hjinterval n=x m=2 sym_break=0",
        "c hjinterval n=3 m=0 sym_break=0",
        "c hjinterval n=3 m=2 sym_break=2",
        "c hjinterval m=2 n=3 sym_break=0",
        "c hjinterval n=2 m=1 sym_break=0",  # 9 variables, not 27
    ):
        with pytest.raises(ValueError):
            parse_dimacs(f"p cnf 27 1\n{header}\n1 2 3 0\n")


def test_parse_dimacs_requires_the_family_encoding(two_cube_unsat_cnf):
    # the header's family holds only its own clauses, in the encoder's order
    with pytest.raises(ValueError, match="not the encoding of n=2 m=1 sym_break=0"):
        parse_dimacs(two_cube_unsat_cnf)
    clauses = encode(2).clauses
    for wrong in (clauses[::-1], np.vstack((clauses[:-2], ((1, 2, 4), (-1, -2, -4))))):
        text = write_dimacs(CnfInstance(9, wrong, family=(2, 1, False)))
        with pytest.raises(ValueError, match="not the encoding of n=2 m=1 sym_break=0"):
            parse_dimacs(text)
    with pytest.raises(ValueError, match="not the encoding of n=2 m=1 sym_break=1"):
        parse_dimacs(write_dimacs(CnfInstance(9, clauses, family=(2, 1, True))))


def test_parse_dimacs_refuses_huge_n_by_its_size():
    with pytest.raises(ValueError) as err:
        parse_dimacs("p cnf 9 0\nc hjinterval n=1000000 m=1 sym_break=0\n")
    assert str(err.value) == "a family of n=1000000 needs 3**1000000 variables, not 9"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "p cnf 3 1\nc hjinterval n=" + "1" * 5000 + " m=1 sym_break=0\n1 0\n",
            "bad hjinterval header 'c hjinterval n=111",
        ),
        ("p cnf " + "1" * 5000 + " 0\n", "bad DIMACS header 'p cnf 111"),
        ("p cnf 3 " + "1" * 5000 + "\n", "bad DIMACS header 'p cnf 3 111"),
        ("p cnf -3 0\n", "bad DIMACS header 'p cnf -3 0'"),
        ("p cnf \u00b3 0\n", "bad DIMACS header 'p cnf \u00b3 0'"),
    ],
)
def test_parse_dimacs_refuses_header_numbers_before_int(text, message):
    # int() would refuse these itself, with a message naming no header, or read -3
    with pytest.raises(ValueError) as err:
        parse_dimacs(text)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 3 1\n1 0\np cnf 3 2\n2 0\n", "second DIMACS header 'p cnf 3 2'"),
        (
            write_dimacs(encode(2, m=2)).replace("\n", "\nc hjinterval n=2 m=1 sym_break=0\n", 1),
            "second hjinterval header 'c hjinterval n=2 m=2 sym_break=0'",
        ),
        ("1 2 0\np cnf 2 1\n", "clause before DIMACS header"),
    ],
)
def test_parse_dimacs_refuses_a_second_header_and_a_clause_before_the_first(text, message):
    # a later header would otherwise replace the counts or the family of the first
    with pytest.raises(ValueError) as err:
        parse_dimacs(text)
    assert str(err.value) == message


def test_encode_rejects_bad_args():
    with pytest.raises(ValueError):
        encode(0)
    with pytest.raises(ValueError):
        encode(2, m=0)
    with pytest.raises(ValueError, match=r"m=1000000000000000000 is outside 1..10\*\*18-1"):
        encode(2, m=10**18)


def test_encode_largest_m_parses_back():
    # the header's m has at most 18 digits, so the largest m encode takes still parses
    instance = encode(2, m=10**18 - 1)
    back = parse_dimacs(write_dimacs(instance))
    assert back.family == (2, 10**18 - 1, False)
    assert np.array_equal(back.clauses, instance.clauses)


def test_dimacs_output_is_stable():
    inst = encode(3, sym_break=True)
    a = write_dimacs(inst)
    assert a == write_dimacs(encode(3, sym_break=True))
    header = a.splitlines()[0]
    assert header == "p cnf 27 69"


def test_dimacs_roundtrip():
    # a parsed encoding is the same instance and writes back byte for byte
    for n in range(1, 6):
        for m in range(1, n + 1):
            for sym_break in (False, True):
                inst = encode(n, m, sym_break)
                text = write_dimacs(inst)
                assert parse_dimacs(text) == inst
                assert write_dimacs(parse_dimacs(text)) == text


def test_dimacs_family_header_is_the_one_comment():
    # a family is named once, whatever the clause count; a formula without one gets no comment
    short = CnfInstance(9, encode(2).clauses[:-1], family=(2, 1, False))
    for instance in (encode(2), encode(3, m=2, sym_break=True), short):
        comments = [row for row in write_dimacs(instance).splitlines() if row.startswith("c")]
        n, m, sym_break = instance.family
        assert comments == [f"c hjinterval n={n} m={m} sym_break={int(sym_break)}"]
    assert write_dimacs(CnfInstance(2, ((1, -2), (2, 0)))) == "p cnf 2 2\n1 -2 0\n2 0\n"


def test_parse_dimacs_rejects_malformed():
    for bad in (
        "",
        "p cnf 3\n1 2 3 0\n",
        "p cnf 3 2\n1 2 3 0\n",  # clause count mismatch
        "p cnf 2 1\n1 3 0\n",  # variable out of range
        "p cnf 3 1\n1 2 3\n",  # missing terminator
        "p cnf 3 1\n99999999999999999999 0\n",  # beyond int64
        "p cnf 3000000000 0\n",  # more variables than int32 literals hold
        "p cnf 9000 9000\n" + "1 0\n" * 8999 + "1 " * 8000 + "0\n",  # 9000 x 8000 padded cells
    ):
        with pytest.raises(ValueError):
            parse_dimacs(bad)


def test_write_dimacs_file_roundtrip(tmp_path):
    inst = encode(2, sym_break=True)
    path = tmp_path / "n2.cnf"
    write_dimacs_file(inst, str(path))
    assert path.read_text() == write_dimacs(inst)
    assert np.array_equal(parse_dimacs(path.read_text()).clauses, inst.clauses)


def _plain_dimacs(n_vars, rows):
    """DIMACS text formatted clause by clause from Python ints, with no family comment."""
    clauses = [[lit for lit in row if lit] for row in rows.tolist()]
    lines = [f"p cnf {n_vars} {len(clauses)}"] + [" ".join(map(str, (*c, 0))) for c in clauses]
    return "\n".join(lines) + "\n"


@st.composite
def plain_formulas(draw):
    """(n_vars, rows): zero-padded clause rows of width 1 to 8 over up to 10**5 variables,
    some formulas all negative or all positive, some long enough to fill two blocks."""
    top = draw(st.integers(1, 12) | st.sampled_from([9, 99, 100, 999, 10**5]) | st.integers(1, 10**5))
    signs = draw(st.sampled_from([(-1, 1), (-1,), (1,)]))
    magnitude = st.integers(1, top) | st.just(top)
    literal = st.builds(lambda sign, v: sign * v, st.sampled_from(signs), magnitude)
    width = draw(st.integers(1, 8))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=width), max_size=12))
    rows = np.zeros((len(clauses), width), dtype=np.int64)
    for k, clause in enumerate(clauses):
        rows[k, : len(clause)] = clause
    rows = np.tile(rows, (draw(st.sampled_from([1, 1, 700])), 1))  # 700 x 12 rows pass 4096
    return top + draw(st.sampled_from([0, 0, 1, 10**4])), rows


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plain_formulas())
@example((0, np.zeros((0, 1), dtype=np.int64)))
@example((7, np.zeros((0, 8), dtype=np.int64)))
def test_write_dimacs_matches_a_per_clause_formatter(tmp_path, case):
    n_vars, rows = case
    instance, path = CnfInstance(n_vars, rows), tmp_path / "plain.cnf"
    text = write_dimacs(instance)
    assert text == _plain_dimacs(n_vars, rows)
    write_dimacs_file(instance, str(path))
    assert path.read_bytes() == text.encode("ascii")


def test_write_dimacs_file_never_holds_the_whole_text(tmp_path):
    # one byte table and one block of 4096 clauses at a time, far below the file's size
    instance, path = encode(10, 1), tmp_path / "n10.cnf"
    tracemalloc.start()
    try:
        write_dimacs_file(instance, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_parse_dimacs_reads_only_ascii_digits():
    # int() reads the Arabic-Indic one as 1, "1_0" as 10 and "+1" as 1
    strays = (("\u0661 2 0", "\u0661"), ("1_0 2 0", "_"), ("+1 2 0", "+"), ("1\u2003 2 0", "\u2003"))
    for clause, char in strays:
        message = f"character {char!r} in a clause is not an ASCII digit, '-' or blank"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_dimacs(f"p cnf 3 1\n{clause}\n")
    assert parse_dimacs("p cnf 3 1\n1\t-2  3 0\n").clause_tuples() == [(1, -2, 3)]


@pytest.mark.parametrize("stray", ["\u0661", "1_0", "+1", "1\u2003"])
def test_every_clause_reader_refuses_a_stray_literal(stray, tmp_path, solver_factory):
    # DIMACS clause lines, a solver's v-lines and DRUP lemma and deletion lines share one rule
    char = re.search(r"[^-0-9 \t]", stray)[0]
    message = f"character {char!r} in a clause is not an ASCII digit, '-' or blank"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_dimacs(f"p cnf 3 1\n{stray} 2 0\n")
    for proof in (f"{stray} 2 0\n0\n", f"1 0\nd {stray} 2 0\n0\n"):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_proof(proof)
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    output = f"s SATISFIABLE\nv {stray} -2 3 0\n".encode("utf-8")
    out = run_solver(str(path), solver_factory(f"sys.stdout.buffer.write({output!r})"))
    assert (out.status, out.model) == ("unknown", None)
    assert out.diagnostics == f"bad v-line from the solver: {message}"


@pytest.mark.parametrize("char", ["\u2028", "\u0085", "\u001c", "\u2003"])
def test_every_clause_reader_ends_lines_at_newline_only(char, tmp_path, solver_factory):
    # str.splitlines breaks at the first three and str.strip drops the last, so each passed
    # unseen at a line's end; a line ends at "\n" only and loses only " \t\r" at its ends
    message = f"character {char!r} in a clause is not an ASCII digit, '-' or blank"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_dimacs(f"p cnf 2 1\n1 -2 0{char}\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_proof(f"1 0{char}\n0\n")
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    for ending, status in ((f"{char}\n", "unknown"), ("\r\n", "sat")):
        output = f"s SATISFIABLE\r\nv 1 -2 3 0{ending}".encode("utf-8")
        out = run_solver(str(path), solver_factory(f"sys.stdout.buffer.write({output!r})"))
        assert out.status == status
    assert out.model == (1, -2, 3)
    assert parse_dimacs("p cnf 2 1 \r\n\t1 -2 0\r\n").clause_tuples() == [(1, -2)]
    assert parse_proof("1 0\r\n0 \t\r\n") == [(1,), ()]


def test_mixed_width_dimacs_roundtrip():
    inst = parse_dimacs(MIXED_WIDTH_DIMACS)
    assert inst.clauses.shape == (11, 8)
    assert [len(c) for c in inst.clause_tuples()] == [2] * 9 + [1, 8]
    assert write_dimacs(inst) == MIXED_WIDTH_DIMACS
    assert parse_dimacs(write_dimacs(inst)) == inst
    out = solve_builtin(inst)
    assert out.status == solve_builtin(parse_dimacs(write_dimacs(inst))).status == "unsat"
    assert check_proof(inst.clause_tuples(), out.proof) is None


def test_model_entries_are_python_ints():
    # callers serialise models, and json refuses numpy integers
    for inst in (encode(3), parse_dimacs(write_dimacs(encode(3, m=2, sym_break=True)))):
        out = solve_builtin(inst)
        assert out.status == "sat"
        assert all(type(lit) is int for lit in out.model)
        assert json.loads(json.dumps(list(out.model))) == list(out.model)


def test_solve_builtin_sat_small():
    for n in (1, 2, 3):
        inst = encode(n)
        out = solve_builtin(inst)
        assert out.status == "sat"
        coloring = decode_model(out.model, n)
        assert violation_count(coloring) == 0


def test_solve_builtin_unsat():
    inst = CnfInstance(n_vars=1, clauses=((1,), (-1,)))
    assert solve_builtin(inst).status == "unsat"


def test_solve_builtin_refutes_past_the_activity_rescale():
    # Pigeonhole 8 into 7 (variable 7*i+j+1: pigeon i in hole j) takes more than 4490
    # conflicts; at the 4490th the bump (times 1/0.95 per conflict) passes 1e100, and the
    # solver rescales every activity and rebuilds its heap. The refutation must survive that.
    pigeons, holes = 8, 7
    rows = [[holes * i + j + 1 for j in range(holes)] for i in range(pigeons)]
    rows += [
        [-(holes * i + j + 1), -(holes * k + j + 1)] + [0] * (holes - 2)
        for j in range(holes)
        for i, k in itertools.combinations(range(pigeons), 2)
    ]
    inst = CnfInstance(pigeons * holes, rows)
    out = solve_builtin(inst)
    assert out.status == "unsat"
    assert len(out.proof) > 4490  # one lemma per conflict, then the empty clause
    assert check_proof(inst.clause_tuples(), out.proof) is None


@pytest.mark.parametrize(
    "n, m, sym_break, status",
    [
        (4, 1, False, "sat"),  # an avoider of the interval lines of the 4-cube
        (4, 4, True, "unsat"),  # every line of the 4-cube: HJ(3,2) = 4
        (5, 1, False, "unsat"),  # interval lines of the 5-cube: the exact threshold
    ],
)
def test_solve_builtin_frozen_frontier(n, m, sym_break, status):
    inst = encode(n, m=m, sym_break=sym_break)
    out = solve_builtin(inst)
    assert out.status == status
    if status == "sat":
        assert violation_count(decode_model(out.model, n, m)) == 0
    else:
        assert out.proof[-1] == ()
        assert check_proof(inst.clause_tuples(), out.proof) is None


def test_solve_builtin_timeout_gives_unknown():
    inst = encode(5)
    out = solve_builtin(inst, timeout=0)
    assert out.status == "unknown"
    assert "0s limit" in out.diagnostics
    assert "conflicts" in out.diagnostics and "lemmas" in out.diagnostics
    assert out.model is None
    full = solve_builtin(inst)
    assert full.status == "unsat"
    assert check_proof(inst.clause_tuples(), full.proof) is None


def _brute_force_sat(n_vars, clauses):
    rows = (np.arange(2**n_vars)[:, None] >> np.arange(n_vars)) & 1  # row: one assignment
    ok = np.ones(2**n_vars, dtype=bool)
    for cl in clauses:
        ok &= np.any([rows[:, abs(l) - 1] == (l > 0) for l in cl], axis=0)
    return bool(ok.any())


def test_solve_builtin_agrees_with_brute_force_on_random_3sat():
    rng = np.random.default_rng(2014)
    verdicts = {"sat": 0, "unsat": 0}
    for _ in range(400):
        n_vars = int(rng.integers(3, 13))
        n_clauses = int(rng.integers(2 * n_vars, 7 * n_vars))
        clauses = tuple(
            tuple(((rng.permutation(n_vars)[:3] + 1) * rng.choice((-1, 1), 3)).tolist())
            for _ in range(n_clauses)
        )
        out = solve_builtin(CnfInstance(n_vars, clauses))
        verdicts[out.status] += 1
        assert (out.status == "sat") == _brute_force_sat(n_vars, clauses), clauses
        if out.status == "sat":
            assert sorted(map(abs, out.model)) == list(range(1, n_vars + 1))
            chosen = set(out.model)
            assert all(chosen.intersection(cl) for cl in clauses), clauses
        else:
            assert check_proof(clauses, out.proof) is None, clauses
    assert min(verdicts.values()) >= 100  # both verdicts well represented


def test_solve_builtin_is_deterministic():
    for inst in (encode(4), encode(3, m=2), encode(5)):
        assert solve_builtin(inst) == solve_builtin(inst)


def test_instance_rejects_empty_clause():
    with pytest.raises(ValueError):
        CnfInstance(n_vars=2, clauses=((),))
    with pytest.raises(ValueError, match="clause 2 is empty or has a 0 before its last literal"):
        CnfInstance(n_vars=2, clauses=((1, 2), (0, 0)))


@pytest.mark.parametrize(
    "rows, message",
    [
        (((1, 0, 2), (1, 2, 0)), "clause 1 is empty or has a 0 before its last literal"),
        (((1, 2), (-3, 0)), "literal -3 outside +-1..2"),
        (((3, 1),), "literal 3 outside +-1..2"),
        ((1, 2), "need a 2-D clause array and 0..2**31-1 variables, not 2"),
    ],
)
def test_instance_checks_the_clause_array(rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CnfInstance(n_vars=2, clauses=rows)


def test_instance_family_needs_its_cube_of_variables():
    # check_model decodes a family's model into the 3**n cells of its cube
    for n_vars, n in ((5, 1), (27, 2), (9, 10**18)):
        with pytest.raises(ValueError, match=re.escape(f"a family of n={n} needs 3**{n} variables, not {n_vars}")):
            CnfInstance(n_vars, [[1]], family=(n, 1, False))


def test_instance_refuses_non_integral_literals():
    with pytest.raises(ValueError, match="^clause literals must be integers, not float64$"):
        CnfInstance(2, [[1.5, -2.7]])


@pytest.mark.parametrize("rows", [[[2**70]], np.array([[1, 2**63]], dtype=np.uint64)])
def test_instance_refuses_literals_past_int64(rows):
    # numpy keeps a Python int past int64 as an object, refused by dtype; uint64 is range-checked
    if isinstance(rows, list):
        message = "clause literals must be integers, not object"
    else:
        message = "literal 9223372036854775808 outside +-1..2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CnfInstance(2, rows)


def _clause_check_reference(n_vars, rows):
    """The message CnfInstance gives for a list of zero-padded clause rows, None for
    rows it accepts: first a row that is empty or has a 0 before a literal, then the
    first literal, in row order, outside +-n_vars.  Clauses are numbered from 1."""
    for k, row in enumerate(rows, 1):
        width = len(row)
        while width and not row[width - 1]:
            width -= 1
        if not width or 0 in row[:width]:
            return f"clause {k} is empty or has a 0 before its last literal"
    for row in rows:
        for lit in row:
            if abs(lit) > n_vars:
                return f"literal {lit} outside +-1..{n_vars}"
    return None


@st.composite
def clause_arrays(draw):
    """(n_vars, rows): rows of up to four cells, most of them literals then zero padding."""
    n_vars = draw(st.sampled_from([0, 1, 2, 5, 2**31 - 1]))
    edges = [n_vars, -n_vars, n_vars + 1, -n_vars - 1, 2**40, -(2**40)]
    cell = st.one_of(st.integers(-n_vars - 1, n_vars + 1), st.sampled_from(edges))
    width = draw(st.integers(0, 4))
    literals = st.lists(cell.filter(bool), max_size=width).map(lambda r: r + [0] * (width - len(r)))
    rows = draw(st.lists(st.one_of(literals, st.lists(cell, min_size=width, max_size=width)), max_size=6))
    return n_vars, np.array(rows, dtype=np.int64).reshape(len(rows), width)


@given(clause_arrays())
@example((2, np.zeros((0, 0), dtype=np.int64)))
@example((2, np.zeros((2, 0), dtype=np.int64)))
@example((2, np.array([[2], [-2]])))
@example((2, np.array([[2], [-3]])))
@example((2**31 - 1, np.array([[2**31 - 1, -(2**31 - 1)], [1, 2**31]])))
def test_instance_check_matches_a_per_row_reference(case):
    n_vars, rows = case
    want = _clause_check_reference(n_vars, rows.tolist())
    if want is None:
        instance = CnfInstance(n_vars, rows)
        assert instance.clauses.dtype == np.int32 and instance.clauses.tolist() == rows.tolist()
    else:
        with pytest.raises(ValueError) as err:
            CnfInstance(n_vars, rows)
        assert str(err.value) == want


def _instance_outcome(n_vars, rows):
    """The clauses CnfInstance keeps, or the message it refuses them with."""
    try:
        instance = CnfInstance(n_vars, rows)
    except ValueError as exc:
        return str(exc)
    assert instance.clauses.dtype == np.int32 and not np.shares_memory(instance.clauses, rows)
    return instance.clauses.tolist()


@pytest.mark.parametrize(
    "dtype", [bool, np.int8, np.uint8, np.int16, np.int32, np.uint32, np.float64, object]
)
def test_instance_check_reads_every_dtype_as_int64(dtype):
    # bool and integer arrays are checked as they are, as their int64 copies would be;
    # float and object arrays are refused by their dtype
    for n_vars in (0, 1, 3, 200):
        for row in ([1, -2, 0], [3, 0, 0], [0, 1, 0], [127, 0, 0], [-100, 0, 0], [255, 0, 0]):
            rows = np.array([row]).astype(dtype)
            want = _instance_outcome(n_vars, rows.astype(np.int64))
            if rows.dtype.kind not in "biu":
                want = f"clause literals must be integers, not {rows.dtype}"
            assert _instance_outcome(n_vars, rows) == want


def test_solve_builtin_respects_sym_break():
    out = solve_builtin(encode(3, sym_break=True))
    assert out.status == "sat"
    coloring = decode_model(out.model, 3)
    assert coloring.bits[0] == 0


def test_m2_instance_decodes_to_two_interval_avoider():
    out = solve_builtin(encode(3, m=2))
    assert out.status == "sat"
    coloring = decode_model(out.model, 3, m=2)
    for line in enumerate_m_interval_lines(3, 2):
        assert not is_monochromatic(coloring, line)


def test_decode_model_rejects_contradiction():
    with pytest.raises(ValueError):
        decode_model([1, -1, 2, 3], 1)


def test_decode_model_rejects_incomplete():
    with pytest.raises(ValueError):
        decode_model([1, 2], 1)


@pytest.mark.parametrize("extra", [10, -11, 0])
def test_decode_model_refuses_literals_of_no_variable(extra):
    # the least avoider of n=2 decodes, but not with a literal outside +-1..9 beside it
    model = [-1, -2, 3, -4, 5, -6, 7, -8, -9]
    assert decode_model(model, 2).bitstring == "001010100"
    with pytest.raises(ValueError) as err:
        decode_model(model + [extra], 2)
    assert str(err.value) == f"model literal {extra} outside +-1..9"


def test_model_readers_refuse_in_one_order():
    # Range first, past int64 too, then the least variable given both ways; decoding
    # then names the least variable left unassigned.
    inst = encode(1)
    for model, reason in (
        ([3, -2, 2, 2**70, 4], "model literal 1180591620717411303424 outside +-1..3"),
        ([-3, 3, -2, 2, 1], "model assigns variable 2 both ways"),
    ):
        for read in (lambda: check_model(inst, model), lambda: decode_model(model, 1)):
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == reason
    with pytest.raises(ValueError, match="incomplete model: variable 2 of 3 unassigned"):
        decode_model([3, 1], 1)


def test_decode_model_catches_bogus_model():
    # a constant colouring satisfies nothing: decoding must not trust it
    with pytest.raises(EncoderBugError):
        decode_model([-1, -2, -3], 1)


def test_decode_model_names_the_offending_line():
    with pytest.raises(EncoderBugError, match="^decoded model leaves line 1,2,3 monochromatic$"):
        decode_model([1, 2, 3], 1)


def test_decode_model_scans_a_line_the_encoder_left_out(monkeypatch):
    # Row 5 of encode(3) is the line 123, 223, 323 (ranks 5, 14, 23); an encoder that
    # drops it leaves models that colour it 0, which decode_model must still refuse.
    full = m_interval_line_members(3, 1)
    monkeypatch.setattr(cnf, "m_interval_line_members", lambda n, m: np.delete(full, 5, axis=0))
    pins = [(-(r + 1), 0, 0) for r in full[5]]
    outcome = solve_builtin(CnfInstance(27, np.vstack((encode(3).clauses, pins))))
    assert outcome.status == "sat"
    with pytest.raises(EncoderBugError, match="leaves line 123,223,323 monochromatic"):
        decode_model(outcome.model, 3)


def test_decode_model_checks_the_asked_family(two_interval_mono_model):
    model = two_interval_mono_model
    assert violation_count(decode_model(model, 3, m=1)) == 0
    with pytest.raises(EncoderBugError) as err:
        decode_model(model, 3, m=2)
    assert str(err.value).startswith("decoded model leaves line 111,212,313 monochromatic")


def test_var_numbering_follows_rank():
    # variable r+1 speaks for the cell of rank r
    inst = encode(2)
    first_line = next(iter(enumerate_m_interval_lines(2, 1)))
    expected = tuple(rank(p) + 1 for p in first_line.points())
    assert inst.clause_tuples()[0] == expected


def test_run_solver_happy_path(tmp_path, toy_solver):
    path = tmp_path / "n2.cnf"
    write_dimacs_file(encode(2), str(path))
    out = run_solver(str(path), toy_solver)
    assert out.status == "sat"
    coloring = decode_model(out.model, 2)
    assert violation_count(coloring) == 0


def test_run_solver_reports_unsat(tmp_path, toy_solver):
    path = tmp_path / "bad.cnf"
    write_dimacs_file(
        CnfInstance(n_vars=1, clauses=((1,), (-1,))),
        str(path),
    )
    assert run_solver(str(path), toy_solver).status == "unsat"


def test_run_solver_missing_binary(tmp_path):
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    out = run_solver(str(path), "no-such-solver-binary")
    assert out.status == "unknown"
    assert "failed to start" in out.diagnostics


def test_run_solver_garbage_output(tmp_path, solver_factory):
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    for body in ("print('hello, is this sat?')", "print('s SATISFIABLE')\nprint('v 1 -2 x 0')"):
        out = run_solver(str(path), solver_factory(body))
        assert out.status == "unknown"
        assert out.model is None
    assert out.diagnostics == "bad v-line from the solver: character 'x' in a clause is not an ASCII digit, '-' or blank"


def test_run_solver_sat_without_model(tmp_path, solver_factory):
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    cmd = solver_factory("print('s SATISFIABLE')")
    out = run_solver(str(path), cmd)
    assert out.status == "unknown"
    assert "model" in out.diagnostics


def test_run_solver_crash(tmp_path, solver_factory):
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    cmd = solver_factory("import sys; sys.exit(3)")
    out = run_solver(str(path), cmd)
    assert out.status == "unknown"


def test_run_solver_timeout(tmp_path, solver_factory):
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    cmd = solver_factory("import time; time.sleep(30)")
    out = run_solver(str(path), cmd, timeout=0.5)
    assert out.status == "unknown"
    assert "time" in out.diagnostics.lower()


def test_run_solver_multiline_v_section(tmp_path, solver_factory):
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    cmd = solver_factory(
        "print('s SATISFIABLE')\nprint('v 1 -2')\nprint('v 3 0')"
    )
    out = run_solver(str(path), cmd)
    assert out.status == "sat"
    assert out.model == (1, -2, 3)


def test_run_solver_reads_only_ascii_digits(tmp_path, solver_factory):
    path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(path))
    for tok, char in (("\u0661", "\u0661"), ("1_0", "_"), ("+1", "+")):
        output = f"s SATISFIABLE\nv {tok} -2 3 0\n".encode("utf-8")
        out = run_solver(str(path), solver_factory(f"sys.stdout.buffer.write({output!r})"))
        assert (out.status, out.model) == ("unknown", None)
        assert out.diagnostics == (
            f"bad v-line from the solver: character {char!r} in a clause is not an ASCII digit, '-' or blank"
        )
