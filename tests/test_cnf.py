import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hjinterval.cnf import (
    CnfInstance,
    EncoderBugError,
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
    line_at_row,
    m_interval_line_members,
    rank,
    runs_of,
)
from hjinterval.drup import check_proof
from hjinterval.search import violation_count

from oracles import enumerate_m_interval_lines

EXPECTED_SIZES = {1: (3, 2), 2: (9, 14), 3: (27, 68)}

# sha256 of write_dimacs(encode(n, m, sym_break)), recorded from the writer that
# formatted one tuple of Python ints per clause; the array writer must match it.
GOLDEN_DIMACS_SHA256 = {
    (6, 1, False): "338eab91484a9a3fcd89fd2c71151ef47cca1363b2e0f2ccffed8a3d0133c0a1",
    (6, 1, True): "3a65100970fc1b32f70460dc5acd46b37f735fa1be4dd2263c6be8edd8776965",
    (6, 6, False): "a5d1b11b02607a009f6da9d62f9faa88107f4a866bc9e2335e54afd7905c590e",
    (6, 6, True): "fb0423c58a3d887f9075fc947dda8dc779d0791f85c8a198ff48894aca5340b0",
    (7, 2, False): "72b548aea8883ff15d61c2d636121054bc3d36b602909b37e38666c2949b0e71",
    (7, 2, True): "af7e5934eb71c869d3604d02bc9840b34bcb34110517e472ce31573e943a2395",
    (7, 7, False): "84e219c603767245a728c15dd36ebd91a787e1b3f33fbcec933ce4f8e93b21a1",
    (7, 7, True): "6f724900bcd8eab6480beb284bb41084a4e16d34486378bc25834383ea8eb557",
}
# The same for encode(10, 1), whose names hold two-digit pinned positions and whose
# clauses hold five-digit literals; too slow to parse back in every run.
GOLDEN_DIMACS_N10_SHA256 = "1ea4d582ac5d9057383ca61147a98497ac3a6e134799311fc84d1118c9dc1825"

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


def _line_comment(line):
    """The DIMACS comment that names a line, formatted from the line itself."""
    runs = "+".join(f"{lo}..{hi}" for lo, hi in runs_of(line.active))
    return f"c line {runs} fixed=" + (",".join(f"{i}:{v}" for i, v in line.fixed) or "-")


def _encode_reference(n, m, sym_break):
    """The clauses encode() must build and the DIMACS text write_dimacs() must
    give them, made line by line from the enumeration."""
    clauses, rows = [], []
    for line in enumerate_m_interval_lines(n, m):
        p, q, r = (rank(w) + 1 for w in line.points())
        rows += [_line_comment(line), f"{p} {q} {r} 0", f"-{p} -{q} -{r} 0"]
        clauses += [(p, q, r), (-p, -q, -r)]
    if sym_break:
        rows += ["c symmetry-break rank0=0", "-1 0"]
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


@pytest.fixture(scope="module")
def dimacs_n10():
    return write_dimacs(encode(10, 1))


def test_dimacs_bytes_are_pinned_at_n10(dimacs_n10):
    assert hashlib.sha256(dimacs_n10.encode("ascii")).hexdigest() == GOLDEN_DIMACS_N10_SHA256


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
    assert str(err.value) == "hjinterval header says n=1000000, but the file has 9 variables"


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


def test_encode_rejects_bad_args():
    with pytest.raises(ValueError):
        encode(0)
    with pytest.raises(ValueError):
        encode(2, m=0)


def test_row_walk_names_the_line_at_each_row(dimacs_n10):
    # the comment over clause pair k names line_at_row(n, k, m), the line the pair encodes:
    # at every row for n <= 5, at sampled rows (block ends among them) for n = 10
    for n in range(1, 6):
        for m in range(1, n + 1):
            rows = write_dimacs(encode(n, m)).splitlines()[2:]
            assert len(rows) == 3 * len(m_interval_line_members(n, m))
            assert rows[::3] == [_line_comment(line_at_row(n, k, m)) for k in range(len(rows) // 3)]
    rows = dimacs_n10.splitlines()[2:]
    count = len(m_interval_line_members(10, 1))
    assert len(rows) == 3 * count
    for k in [0, 3**9 - 1, 3**9, count - 1, *random.Random(10).sample(range(count), 200)]:
        assert rows[3 * k] == _line_comment(line_at_row(10, k, 1)), k


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


def test_dimacs_comments_carry_line_provenance():
    text = write_dimacs(encode(2))
    assert "c line 1..1 fixed=2:1" in text
    assert "c line 1..2 fixed=-" in text
    # line names come from the family, and only when the clauses can be its encoding
    assert write_dimacs(CnfInstance(2, ((1, -2), (2, 0)))) == "p cnf 2 2\n1 -2 0\n2 0\n"
    short = CnfInstance(9, encode(2).clauses[:-1], family=(2, 1, False))
    assert "c line" not in write_dimacs(short)
    assert write_dimacs(short).splitlines()[1] == "c hjinterval n=2 m=1 sym_break=0"


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
    with pytest.raises(ValueError, match="clause 1 is empty or has a 0 before its last literal"):
        CnfInstance(n_vars=2, clauses=((1, 2), (0, 0)))


@pytest.mark.parametrize(
    "rows, message",
    [
        (((1, 2, 0), (1, 0, 2)), "clause 1 is empty or has a 0 before its last literal"),
        (((1, 2), (-3, 0)), "literal -3 outside +-1..2"),
        (((3, 1),), "literal 3 outside +-1..2"),
        ((1, 2), "need a 2-D clause array and 0..2**31-1 variables, not 2"),
    ],
)
def test_instance_checks_the_clause_array(rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CnfInstance(n_vars=2, clauses=rows)


def _clause_check_reference(n_vars, rows):
    """The message CnfInstance gives for a list of zero-padded clause rows, None for
    rows it accepts: first a row that is empty or has a 0 before a literal, then the
    first literal, in row order, outside +-n_vars."""
    for k, row in enumerate(rows):
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


def test_decode_model_catches_bogus_model():
    # a constant colouring satisfies nothing: decoding must not trust it
    with pytest.raises(EncoderBugError):
        decode_model([-1, -2, -3], 1)


def test_decode_model_names_the_offending_line():
    try:
        decode_model([1, 2, 3], 1)
    except EncoderBugError as exc:
        assert "1..1" in str(exc)
    else:
        pytest.fail("expected EncoderBugError")


def test_decode_model_checks_the_asked_family(two_interval_mono_model):
    model = two_interval_mono_model
    assert violation_count(decode_model(model, 3, m=1)) == 0
    with pytest.raises(EncoderBugError) as err:
        decode_model(model, 3, m=2)
    assert str(err.value).startswith("decoded model leaves line 1..1+3..3 fixed=2:1 monochromatic")


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
    assert out.diagnostics == "bad literal 'x' in the solver's v-line"


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
