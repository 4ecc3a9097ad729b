import argparse
import hashlib
import importlib.metadata
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hjinterval import cli, cnf, gadgets
from hjinterval.cli import build_parser, main
from hjinterval.cnf import (
    CnfInstance,
    SolveOutcome,
    check_model,
    decode_model,
    encode,
    parse_dimacs,
    solve_builtin,
    write_dimacs,
    write_dimacs_file,
)
from hjinterval.cube import Coloring, load_coloring, save_coloring
from hjinterval.gadgets import find_interval_line, pattern_coloring, render_certificate
from hjinterval.search import exhaustive_search, violation_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_gadgets_default(capsys):
    code, out, _ = run_cli(capsys, "verify-gadgets")
    assert code == 0
    assert "line 1 active=2..3 members=11132,12232,13332" in out
    assert out.count("case d=") == 32
    assert "case-table=ok" in out


def test_verify_gadgets_explicit_quadruple(capsys):
    code, out, _ = run_cli(capsys, "verify-gadgets", "--n", "9", "--quadruple", "2,4,5,7")
    assert code == 0
    assert "line 1 active=3..5" in out
    assert "lines-validated=5" in out


def test_verify_gadgets_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "verify-gadgets", "--n", "6", "--exhaustive-quadruples")
    assert code == 0
    assert "quadruples-checked=5" in out


def test_verify_gadgets_cross_checks_the_rank_triples(capsys, monkeypatch):
    monkeypatch.setattr(gadgets, "gadget_rank_triples", lambda quad: ((0, 1, 2),) * 5)
    broken = r"construction broken: candidate line 1 over cuts \(1, 2, 3, 4\) does not match"
    with pytest.raises(RuntimeError, match=broken):
        main(["verify-gadgets", "--n", "6", "--exhaustive-quadruples"])
    assert capsys.readouterr().out == ""


def test_verify_gadgets_quadruple_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-gadgets", "--n", "6", "--quadruple", "1,2,3,4", "--exhaustive-quadruples"])
    assert exc.value.code == 2
    assert "not allowed with argument --quadruple" in capsys.readouterr().err


def test_verify_gadgets_bad_quadruple(capsys):
    code, _, err = run_cli(capsys, "verify-gadgets", "--n", "5", "--quadruple", "1,2,3")
    assert code == 2
    assert "error:" in err


NO_CUTS_AT_4 = "n=4 has no quadruple of cuts inside 1..n-1: four cuts need n >= 5"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "--n", "2", "--kind", "constant", "--d", "2"), "constant colour must be 0 or 1"),
        (("gen", "--n", "5", "--kind", "pattern", "--d", "0110"), "need five bits like 01100, got '0110'"),
        (("verify-gadgets", "--n", "4"), NO_CUTS_AT_4),
        (("verify-gadgets", "--n", "4", "--exhaustive-quadruples"), NO_CUTS_AT_4),
        (("gen", "--n", "2", "--kind", "constant", "--d", "10"), "constant colour must be 0 or 1"),
        (("gen", "--n", "2", "--kind", "constant", "--d", "x"), "constant colour must be 0 or 1"),
        (("gen", "--n", "2", "--kind", "random", "--d", "01100"), "--kind random takes no --d"),
        (("gen", "--n", "5", "--kind", "pattern"), "--kind pattern needs --d with five bits"),
        (
            ("verify-gadgets", "--n", "5", "--quadruple", "1,2,3,x"),
            "need four comma-separated cuts, got '1,2,3,x'",
        ),
        (("verify-gadgets", "--n", "0"), NO_CUTS_AT_4.replace("n=4", "n=0")),
        (("verify-gadgets", "--n", "4", "--quadruple", "1,2,3,4"), NO_CUTS_AT_4),
        (
            ("encode", "--n", "2", "--max-intervals", str(10**20)),
            f"m={10**20} is outside 1..10**18-1, the m a hjinterval header holds",
        ),
    ],
)
def test_bad_values_are_refused_before_any_output(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    out_args = ("--out", "c.hjc") if argv[0] in ("gen", "encode") else ()
    code, out, err = run_cli(capsys, *argv, *out_args)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "c.hjc").exists()


def test_gen_pattern_writes_expected_file(tmp_path, capsys):
    out_path = tmp_path / "c.hjc"
    code, out, _ = run_cli(
        capsys, "gen", "--n", "5", "--kind", "pattern", "--d", "01100", "--out", str(out_path)
    )
    assert code == 0
    assert f"file={out_path}" in out
    assert load_coloring(str(out_path)) == pattern_coloring(5, (0, 1, 1, 0, 0))


def test_gen_pattern_needs_d(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "--n", "5", "--kind", "pattern", "--out", str(tmp_path / "x.hjc")
    )
    assert code == 2
    assert "error:" in err


def test_gen_random_is_seeded(tmp_path, capsys):
    a, b = tmp_path / "a.hjc", tmp_path / "b.hjc"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "gen", "--n", "3", "--kind", "random", "--seed", "5", "--out", str(path)
        )
        assert code == 0
    assert a.read_text() == b.read_text()
    # the bits of random.Random(5).getrandbits(27); a change of generator would change the file
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "d9af6a79b2da22fc65fbe19a1f736397ca338cecca2f3212bcf9d2afb7929fed"
    )


def test_gen_refuses_a_negative_seed_naming_it(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "3", "--kind", "random", "--seed", "-1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "argument --seed: seed=-1 is negative" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_gen_constant(tmp_path, capsys):
    path = tmp_path / "ones.hjc"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "2", "--kind", "constant", "--d", "1", "--out", str(path)
    )
    assert code == 0
    assert path.read_text() == "HJC 3 2\n111111111\n"


def test_find_line_direct(tmp_path, capsys):
    src = tmp_path / "c.hjc"
    run_cli(capsys, "gen", "--n", "5", "--kind", "pattern", "--d", "01100", "--out", str(src))
    code, out, _ = run_cli(capsys, "find-line", "--coloring", str(src))
    assert code == 0
    assert out.startswith("MONO-LINE n=5 ")


def test_find_line_gadget_certificate(tmp_path, capsys):
    src = tmp_path / "c.hjc"
    cert_path = tmp_path / "cert.txt"
    run_cli(capsys, "gen", "--n", "5", "--kind", "pattern", "--d", "01100", "--out", str(src))
    code, out, _ = run_cli(
        capsys,
        "find-line", "--coloring", str(src), "--method", "gadget", "--out", str(cert_path),
    )
    assert code == 0
    assert "active=3..3" in out
    cert = find_interval_line(pattern_coloring(5, (0, 1, 1, 0, 0)), "gadget")
    assert cert_path.read_text() == out == render_certificate(cert, "gadget")


def test_find_line_direct_none_is_definitive(tmp_path, capsys):
    avoider = tmp_path / "avoider.hjc"
    avoider.write_text("HJC 3 2\n001010100\n")
    code, out, _ = run_cli(capsys, "find-line", "--coloring", str(avoider))
    assert code == 0
    assert out.startswith("NONE method=direct")


def test_find_line_gadget_miss_is_inconclusive(tmp_path, capsys):
    # n=2 admits no quadruple, so the gadget route cannot say anything
    avoider = tmp_path / "avoider.hjc"
    avoider.write_text("HJC 3 2\n001010100\n")
    code, out, _ = run_cli(capsys, "find-line", "--coloring", str(avoider), "--method", "gadget")
    assert code == 1
    assert out.startswith("NONE method=gadget")


def test_find_line_pipeline_certificate(tmp_path, capsys):
    src = tmp_path / "c.hjc"
    run_cli(capsys, "gen", "--n", "5", "--kind", "pattern", "--d", "01100", "--out", str(src))
    code, out, _ = run_cli(capsys, "find-line", "--coloring", str(src), "--method", "pipeline")
    assert code == 0
    assert out == (
        "MONO-LINE n=5 color=0 active=3..3 fixed=1:1,2:3,4:3,5:2\n"
        "W1 13132\nW2 13232\nW3 13332\n"
    )


@pytest.mark.parametrize(
    "gen_args",
    [
        # n=4 has no cuts 1..4
        ("--n", "4", "--kind", "pattern", "--d", "01100"),
        # seed pattern 132 takes both colours over the cuts 1..4
        ("--n", "8", "--kind", "random", "--seed", "0"),
    ],
)
def test_find_line_pipeline_miss_is_inconclusive(tmp_path, capsys, gen_args):
    src = tmp_path / "c.hjc"
    run_cli(capsys, "gen", *gen_args, "--out", str(src))
    code, out, _ = run_cli(capsys, "find-line", "--coloring", str(src), "--method", "pipeline")
    assert code == 1
    assert out == "NONE method=pipeline\n"


@pytest.mark.parametrize("verb", ["find-line", "solve", "check-proof"])
def test_non_ascii_input_is_an_input_error(tmp_path, capsys, verb):
    good, bad = tmp_path / "good.cnf", tmp_path / "bad.txt"
    write_dimacs_file(encode(1), str(good))
    bad.write_bytes("HJC 3 1\n01\u00e9\n".encode())
    argv = {
        "find-line": ["--coloring", str(bad)],
        "solve": ["--cnf", str(bad)],
        "check-proof": ["--cnf", str(good), "--proof", str(bad)],
    }[verb]
    code, out, err = run_cli(capsys, verb, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: 'ascii' codec can't decode byte 0xc3 in position 10")


NO_CODEC_LOOKUP = """\
import sys
from hjinterval.cli import main
for argv in (
    ["gen", "--n", "3", "--kind", "random", "--out", "c.hjc"],
    ["find-line", "--coloring", "c.hjc", "--method", "gadget", "--out", "cert.txt"],
    ["encode", "--n", "2", "--out", "e.cnf"],
    ["solve", "--cnf", "e.cnf"],
    ["check-proof", "--cnf", "e.cnf", "--proof", "empty.drup"],
):
    main(argv)
assert "encodings.ascii" not in sys.modules, "a file was opened in text mode"
"""


def test_file_io_never_looks_up_the_ascii_codec(tmp_path, child_env):
    # A text-mode open(..., encoding="ascii") imports encodings.ascii, at 0.3-0.4 ms a
    # process; bytes.decode("ascii") and str.encode("ascii") take a built-in fast path.
    (tmp_path / "empty.drup").write_bytes(b"")
    proc = subprocess.run(
        [sys.executable, "-c", NO_CODEC_LOOKUP],
        capture_output=True,
        cwd=tmp_path,
        env={**child_env, "PYTHONIOENCODING": "utf-8"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    save_coloring(Coloring.random(3, 0), str(tmp_path / "expected.hjc"))
    assert (tmp_path / "c.hjc").read_bytes() == (tmp_path / "expected.hjc").read_bytes()
    assert (tmp_path / "e.cnf").read_bytes() == write_dimacs(encode(2)).encode()
    assert (tmp_path / "cert.txt").read_bytes() in proc.stdout


def test_find_line_missing_file(capsys):
    code, _, err = run_cli(capsys, "find-line", "--coloring", "no-such-file.hjc")
    assert code == 2
    assert "error:" in err


def test_search_exhaustive_writes_avoider(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--mode", "exhaustive")
    assert code == 0
    assert "outcome=avoider-found" in out
    assert "coloring=001010100" in out
    saved = load_coloring(str(tmp_path / "avoider-n2.hjc"))
    assert saved == exhaustive_search(2).coloring


def test_search_local_out_flag(tmp_path, capsys):
    path = tmp_path / "found.hjc"
    code, out, _ = run_cli(
        capsys,
        "search", "--n", "3", "--mode", "local", "--seed", "1",
        "--budget", "20000", "--out", str(path),
    )
    assert code == 0
    assert violation_count(load_coloring(str(path))) == 0


def test_search_local_inconclusive_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, "search", "--n", "4", "--mode", "local", "--seed", "0", "--budget", "40"
    )
    assert code == 1
    assert "outcome=inconclusive" in out


def test_search_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "0"])
    assert exc.value.code == 2


def test_search_exhaustive_decides_past_n3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "search", "--n", "4", "--mode", "exhaustive")
    assert code == 0
    assert f"coloring={exhaustive_search(4).coloring.bitstring}\n" in out
    assert load_coloring(str(tmp_path / "avoider-n4.hjc")) == exhaustive_search(4).coloring
    code, out, _ = run_cli(capsys, "search", "--n", "5", "--mode", "exhaustive")
    assert code == 0
    assert "outcome=refuted\n" in out and "coloring=-\n" in out
    assert int(out.split("lemmas=")[1].split()[0]) > 0
    assert not (tmp_path / "avoider-n5.hjc").exists()


def test_error_without_text_prints_its_type(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_bound", out_of_memory)
    code, _, err = run_cli(capsys, "bound")
    assert (code, err) == (2, "error: MemoryError\n")


def test_encode_solve_roundtrip(tmp_path, capsys):
    cnf_path = tmp_path / "n3.cnf"
    code, out, _ = run_cli(capsys, "encode", "--n", "3", "--out", str(cnf_path))
    assert code == 0
    assert "vars=27" in out and "clauses=68" in out
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 0
    assert "solver=builtin-cdcl" in out
    assert "status=sat" in out
    assert "verified=yes" in out


def test_encode_sym_break_and_max_intervals(tmp_path, capsys):
    cnf_path = tmp_path / "n3m2.cnf"
    code, out, _ = run_cli(
        capsys,
        "encode", "--n", "3", "--max-intervals", "2", "--sym-break", "--out", str(cnf_path),
    )
    assert code == 0
    assert "clauses=75" in out


def test_encode_writes_family_header(tmp_path, capsys):
    cnf_path = tmp_path / "n3m2.cnf"
    run_cli(capsys, "encode", "--n", "3", "--max-intervals", "2", "--out", str(cnf_path))
    rows = cnf_path.read_text().splitlines()
    assert rows[:2] == ["p cnf 27 74", "c hjinterval n=3 m=2 sym_break=0"]


# encode(2, sym_break=True) as files were written when a comment named each clause pair's line.
LINE_NAMED_DIMACS = (
    "p cnf 9 15\nc hjinterval n=2 m=1 sym_break=1\n"
    "c line 1..1 fixed=2:1\n1 4 7 0\n-1 -4 -7 0\n"
    "c line 1..1 fixed=2:2\n2 5 8 0\n-2 -5 -8 0\n"
    "c line 1..1 fixed=2:3\n3 6 9 0\n-3 -6 -9 0\n"
    "c line 1..2 fixed=-\n1 5 9 0\n-1 -5 -9 0\n"
    "c line 2..2 fixed=1:1\n1 2 3 0\n-1 -2 -3 0\n"
    "c line 2..2 fixed=1:2\n4 5 6 0\n-4 -5 -6 0\n"
    "c line 2..2 fixed=1:3\n7 8 9 0\n-7 -8 -9 0\n"
    "c symmetry-break rank0=0\n-1 0\n"
)


def test_solve_reads_a_file_with_line_comments_as_before(tmp_path, capsys):
    assert parse_dimacs(LINE_NAMED_DIMACS) == encode(2, sym_break=True)
    cnf_path = tmp_path / "named.cnf"
    cnf_path.write_bytes(LINE_NAMED_DIMACS.encode("ascii"))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert (code, out) == (0, "solver=builtin-cdcl\nstatus=sat\ncoloring=001011110\nverified=yes\n")


def test_solve_verifies_against_the_encoded_family(
    tmp_path, capsys, solver_factory, two_interval_mono_model
):
    # A solver that answers every file with the same model: one that avoids
    # the interval lines of the 3-cube but not its 2-interval lines.
    model = " ".join(map(str, two_interval_mono_model))
    liar = solver_factory(f'print("s SATISFIABLE")\nprint("v {model} 0")\n')
    m1_path, m2_path = tmp_path / "n3m1.cnf", tmp_path / "n3m2.cnf"
    run_cli(capsys, "encode", "--n", "3", "--out", str(m1_path))
    run_cli(capsys, "encode", "--n", "3", "--max-intervals", "2", "--out", str(m2_path))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(m1_path), "--solver", liar)
    assert code == 0
    assert "verified=yes" in out
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(m2_path), "--solver", liar)
    assert code == 1
    assert "verified=yes" not in out and "coloring=" not in out
    assert "verified=no" in out
    assert "line 111,212,313 monochromatic" in out
    # The encoding is sound here; the fault is the solver's, and is named so.
    diagnostics = next(row for row in out.splitlines() if row.startswith("diagnostics="))
    assert "external solver's model is wrong" in diagnostics
    assert "encod" not in diagnostics and "unsound" not in diagnostics


def test_solve_refutation_carries_a_checked_proof(tmp_path, capsys):
    cnf_path = tmp_path / "n4m4.cnf"
    run_cli(capsys, "encode", "--n", "4", "--max-intervals", "4", "--sym-break", "--out", str(cnf_path))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 0
    assert "solver=builtin-cdcl" in out
    assert "status=unsat" in out
    assert "proof=checked lemmas=" in out


def test_solve_rejected_proof_is_inconclusive(tmp_path, capsys, monkeypatch):
    cnf_path = tmp_path / "n4m4.cnf"
    run_cli(capsys, "encode", "--n", "4", "--max-intervals", "4", "--out", str(cnf_path))
    monkeypatch.setattr(
        cli, "solve_builtin", lambda instance, timeout=None: SolveOutcome("unsat", proof=((),))
    )
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 1
    assert "status=unsat-unverified" in out and "status=unsat\n" not in out
    assert "proof=rejected" in out and "proof=checked" not in out


def test_solve_external_unsat_is_unverified(tmp_path, capsys, solver_factory):
    cnf_path = tmp_path / "n4m4.cnf"
    run_cli(capsys, "encode", "--n", "4", "--max-intervals", "4", "--out", str(cnf_path))
    refuter = solver_factory('print("s UNSATISFIABLE")\n')
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", refuter)
    assert code == 1
    assert "status=unsat-unverified" in out and "status=unsat\n" not in out
    assert f"hjinterval check-proof --cnf {cnf_path}" in out


def test_check_proof_verb(tmp_path, capsys):
    cnf_path, good, bad = tmp_path / "n4m4.cnf", tmp_path / "good.drup", tmp_path / "bad.drup"
    run_cli(capsys, "encode", "--n", "4", "--max-intervals", "4", "--sym-break", "--out", str(cnf_path))
    lemmas = solve_builtin(encode(4, m=4, sym_break=True)).proof
    good.write_text("".join(" ".join(map(str, lemma + (0,))) + "\n" for lemma in lemmas))
    bad.write_text("".join(" ".join(map(str, lemma + (0,))) + "\n" for lemma in lemmas[:-1]))
    code, out, _ = run_cli(capsys, "check-proof", "--cnf", str(cnf_path), "--proof", str(good))
    assert code == 0
    assert f"proof=checked lemmas={len(lemmas)}" in out
    code, out, _ = run_cli(capsys, "check-proof", "--cnf", str(cnf_path), "--proof", str(bad))
    assert code == 1
    assert "proof=rejected" in out
    assert "diagnostics=the proof does not end with the empty clause" in out


def test_check_proof_refuses_a_variable_past_the_formula(tmp_path, capsys):
    # Tables sized by the proof's literal would take 182 MB for "1000000 0", or overflow here.
    cnf_path, proof_path = tmp_path / "u.cnf", tmp_path / "m.drup"
    cnf_path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    proof_path.write_text("99999999999999999999 0\n0\n")
    code, out, err = run_cli(capsys, "check-proof", "--cnf", str(cnf_path), "--proof", str(proof_path))
    assert (code, err) == (1, "")
    assert out == (
        "proof=rejected\n"
        "diagnostics=lemma 1 (99999999999999999999 0) names a variable outside the formula's 1..1\n"
    )


def test_solve_without_family_header_prints_raw_model(tmp_path, capsys):
    # line comments alone do not make a file an encoding of a known family
    cnf_path = tmp_path / "n2.cnf"
    rows = write_dimacs(encode(2)).splitlines()
    cnf_path.write_text("\n".join(r for r in rows if not r.startswith("c hjinterval")) + "\n")
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 0
    assert "model=" in out and "verified=yes\n" in out
    assert "coloring=" not in out and "verified=no" not in out


def test_solve_reads_a_family_model_once(tmp_path, capsys, monkeypatch):
    cnf_path = tmp_path / "n2.cnf"
    run_cli(capsys, "encode", "--n", "2", "--out", str(cnf_path))
    calls, read = [], cnf._literal_values
    monkeypatch.setattr(cnf, "_literal_values", lambda *args: calls.append(args) or read(*args))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert (code, len(calls)) == (0, 1)
    assert out.endswith("verified=yes\n")
    # The one check decodes a family instance's model and leaves a plain one's undecoded.
    instance = encode(2)
    model = solve_builtin(instance).model
    assert check_model(instance, model) == decode_model(model, 2)
    assert check_model(CnfInstance(instance.n_vars, instance.clauses), model) is None
    with pytest.raises(ValueError, match="incomplete model: variable 2 of 3 unassigned"):
        check_model(encode(1), [3, 1])


PLAIN_CNF = "p cnf 2 2\n1 2 0\n-1 0\n"


@pytest.mark.parametrize(
    "model, reason",
    [
        ("1 -2", "clause 2 (-1 0) has no true literal"),
        ("1", "clause 2 (-1 0) has no true literal"),
        ("-1 1 2", "model assigns variable 1 both ways"),
        ("-1 3", "model literal 3 outside +-1..2"),
    ],
)
def test_solve_checks_a_plain_model_against_every_clause(
    tmp_path, capsys, solver_factory, model, reason
):
    cnf_path = tmp_path / "plain.cnf"
    cnf_path.write_text(PLAIN_CNF)
    liar = solver_factory(f'print("s SATISFIABLE")\nprint("v {model} 0")\n')
    code, out, err = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", liar)
    assert (code, err) == (1, "")
    assert "status=sat\nverified=no\n" in out and "model=" not in out
    assert f"diagnostics=the external solver's model is wrong: {reason}\n" in out


@pytest.mark.parametrize("family", [False, True])
def test_solve_blames_the_encoder_only_for_a_family_file(tmp_path, capsys, monkeypatch, family):
    # The built-in solver "finds" the all-true model, which breaks a clause of either file.
    cnf_path = tmp_path / "wrong.cnf"
    if family:
        write_dimacs_file(encode(2), cnf_path)
    else:
        cnf_path.write_text(PLAIN_CNF)
    monkeypatch.setattr(
        cli, "solve_builtin", lambda instance, timeout=None: SolveOutcome("sat", model=(1,) * instance.n_vars)
    )
    code, out, err = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert (code, err) == (1, "")
    assert "solver=builtin-cdcl\nstatus=sat\nverified=no\n" in out
    culprit = "the encoder or the built-in solver" if family else "the built-in solver"
    assert f"diagnostics={culprit} is at fault: " in out


def test_solve_prints_a_plain_model_that_checks(tmp_path, capsys, solver_factory):
    cnf_path = tmp_path / "plain.cnf"
    cnf_path.write_text(PLAIN_CNF)
    solver = solver_factory('print("s SATISFIABLE")\nprint("v -1 2 0")\n')
    code, out, err = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", solver)
    assert (code, err) == (0, "")
    assert out.endswith("status=sat\nmodel=-1 2\nverified=yes\n")


def test_solve_checks_a_family_model_against_the_symmetry_break_unit(tmp_path, capsys, solver_factory):
    # The colour swap of the least avoider avoids every line but colours rank 0 with 1.
    bits = exhaustive_search(2).coloring.bits
    swapped = " ".join(str(-i if bit else i) for i, bit in enumerate(bits, 1))
    liar = solver_factory(f'print("s SATISFIABLE")\nprint("v {swapped} 0")\n')
    instance = encode(2, sym_break=True)
    cnf_path = tmp_path / "n2s.cnf"
    write_dimacs_file(instance, str(cnf_path))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", liar)
    assert code == 1
    assert "verified=no" in out and "coloring=" not in out
    unit = f"clause {len(instance.clauses)} (-1 0) has no true literal"
    assert f"diagnostics=the external solver's model is wrong: {unit}\n" in out


def test_solve_external_solver_flag(tmp_path, capsys, toy_solver):
    cnf_path = tmp_path / "n2.cnf"
    write_dimacs_file(encode(2), str(cnf_path))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", toy_solver)
    assert code == 0
    assert f"solver={toy_solver}" in out
    assert "status=sat" in out
    assert "verified=yes" in out


def test_solve_ignores_env_solver(tmp_path, capsys, monkeypatch):
    # only --solver names an external solver: the environment cannot change the answer
    cnf_path = tmp_path / "n2.cnf"
    write_dimacs_file(encode(2), str(cnf_path))
    monkeypatch.setenv("HJ_SOLVER", "no-such-solver-binary")
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 0
    assert "solver=builtin-cdcl" in out
    assert "verified=yes" in out


def test_solve_unknown_is_inconclusive(tmp_path, capsys, solver_factory):
    cnf_path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(cnf_path))
    garbled = solver_factory('print("s SATISFIABLE")\nprint("v 1 -2 x 0")\n')
    not_utf8 = solver_factory('sys.stdout.buffer.write(b"s SATISFIABLE\\nv 1 \\377 0\\n")\n')
    for solver in ("missing-binary", not_utf8, garbled):
        code, out, err = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", solver)
        assert code == 1
        assert err == ""
        assert "status=unknown" in out
        assert "diagnostics=" in out
    assert "diagnostics=bad v-line from the solver: character 'x' in a clause is not an ASCII digit" in out


def test_family_header_over_foreign_clauses_is_refused(tmp_path, capsys, two_cube_unsat_cnf):
    # the clauses refute, but they are not the 2-cube's encoding, which has avoiders
    cnf_path, proof_path = tmp_path / "n2.cnf", tmp_path / "n2.drup"
    cnf_path.write_text(two_cube_unsat_cnf)
    proof_path.write_text("0\n")
    for argv in (("solve",), ("check-proof", "--proof", str(proof_path))):
        code, out, err = run_cli(capsys, *argv, "--cnf", str(cnf_path))
        assert code == 2
        assert "status=" not in out and "proof=" not in out
        assert "not the encoding of n=2 m=1 sym_break=0" in err


def test_negative_variable_count_is_refused(tmp_path, capsys):
    cnf_path = tmp_path / "neg.cnf"
    cnf_path.write_text("p cnf -3 0\n")
    code, out, err = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 2
    assert "status=" not in out and "model=" not in out
    assert err == "error: bad DIMACS header 'p cnf -3 0'\n"


def test_search_jobs_defaults_to_one():
    assert cli.build_parser().parse_args(["search", "--n", "4"]).jobs == 1


def test_solve_builtin_honours_timeout(tmp_path, capsys):
    cnf_path = tmp_path / "n5.cnf"
    write_dimacs_file(encode(5), str(cnf_path))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--timeout", "0")
    assert code == 1
    assert "solver=builtin-cdcl" in out
    assert "status=unknown" in out and "status=unsat" not in out
    assert "diagnostics=built-in solver reached its 0.0s limit" in out


def test_solve_proof_check_honours_timeout(tmp_path, capsys, monkeypatch):
    # the solve ignores the limit and refutes; the check that follows must not
    cnf_path = tmp_path / "n4m4.cnf"
    run_cli(capsys, "encode", "--n", "4", "--max-intervals", "4", "--sym-break", "--out", str(cnf_path))
    lemmas = len(solve_builtin(encode(4, m=4, sym_break=True)).proof)
    monkeypatch.setattr(cli, "solve_builtin", lambda instance, timeout=None: solve_builtin(instance))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--timeout", "0")
    assert code == 1
    assert "status=unknown" in out and "status=unsat" not in out
    assert "proof=" not in out
    assert f"diagnostics=the refutation is unchecked: the time limit passed with 0 of {lemmas} lemmas" in out


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "-1"])
@pytest.mark.parametrize("external", [False, True])
def test_solve_refuses_a_timeout_that_is_not_finite_and_nonnegative(
    tmp_path, capsys, toy_solver, value, external
):
    cnf_path = tmp_path / "n2.cnf"
    write_dimacs_file(encode(2), str(cnf_path))
    solver = ("--solver", toy_solver) if external else ()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--cnf", str(cnf_path), *solver, "--timeout", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --timeout: timeout={value} is not a finite number" in captured.err


@pytest.mark.parametrize(
    "model, reason",
    [
        ("1 -2 3", "incomplete model: variable 4 of 9 unassigned"),
        ("1 -1 2 3 4 5 6 7 8 9", "model assigns variable 1 both ways"),
        ("-1 -2 3 -4 5 -6 7 -8 -9 10", "model literal 10 outside +-1..9"),
    ],
)
def test_solve_bad_external_model_is_unverified(tmp_path, capsys, solver_factory, model, reason):
    cnf_path = tmp_path / "n2.cnf"
    write_dimacs_file(encode(2), str(cnf_path))
    liar = solver_factory(f'print("s SATISFIABLE")\nprint("v {model} 0")\n')
    code, out, err = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", liar)
    assert code == 1
    assert err == ""
    assert "status=sat" in out and "verified=no" in out and "coloring=" not in out
    assert f"diagnostics=the external solver's model is wrong: {reason}" in out


def test_solve_foreign_cnf_prints_raw_model(tmp_path, capsys):
    # a CNF that is not a cube encoding gets a model, not a colouring
    cnf_path = tmp_path / "foreign.cnf"
    cnf_path.write_text("p cnf 2 1\n1 2 0\n")
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 0
    assert "status=sat" in out
    assert "model=" in out
    assert "coloring=" not in out


def test_bound_default(capsys):
    code, out, _ = run_cli(capsys, "bound")
    assert code == 0
    assert "pattern-lengths=3,4,4,5,5" in out
    assert "n0=4" in out
    assert "n1=20" in out
    assert "n2=R3(20,20)" in out
    assert out.rstrip().splitlines()[-1].endswith("+1")
    assert out == _tower_text(10000, "20")


def _tower_text(cap, n1):
    """`bound` output when every level past n1 is symbolic."""
    n2 = f"R3({n1},{n1})"
    n3 = f"R3({n2},{n2})"
    n4 = f"R4({n3},{n3})"
    n5 = f"R4({n4},{n4})"
    rows = [f"cap-digits={cap}", "n0=4", f"n1={n1}", f"n2={n2}", f"n3={n3}", f"n4={n4}", f"n5={n5}"]
    return "pattern-lengths=3,4,4,5,5\n" + "\n".join(rows) + f"\nn={n5}+1\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-subcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "hjinterval", "search", "--n", "1", "--mode", "exhaustive"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "coloring=001" in proc.stdout


# Every process runs a wrapped restart function, so a worker that has imported
# numpy.random by the end of a restart fails it.  Two CPUs are reported, so --jobs 2
# forks a worker on any host, and the fork count shows that one was used.
NO_NUMPY_RANDOM = '''\
import os, sys
from hjinterval import search
from hjinterval.cli import main

restart = search._one_restart

def probed(*args):
    result = restart(*args)
    assert "numpy.random" not in sys.modules, "a worker imported numpy.random"
    return result

forks, fork = [], os.fork
search._one_restart = probed
os.fork = lambda: forks.append(1) or fork()
os.cpu_count = lambda: 2
code = main(sys.argv[1:])
assert "numpy.random" not in sys.modules, "the CLI process imported numpy.random"
print(f"forks={len(forks)}")
sys.exit(code)
'''


LOCAL = ["search", "--mode", "local", "--n", "4"]


@pytest.mark.parametrize(
    "argv, shows",
    [
        pytest.param([*LOCAL, "--jobs", "1"], ["outcome=avoider-found", "forks=0"], id="1"),
        pytest.param([*LOCAL, "--jobs", "2"], ["outcome=avoider-found", "forks=1"], id="2"),
        pytest.param(
            ["gen", "--kind", "random", "--n", "5", "--out", "r.hjc"], ["kind=random", "forks=0"], id="gen"
        ),
    ],
)
def test_local_search_never_imports_numpy_random(tmp_path, child_env, argv, shows):
    # numpy imports numpy.random lazily, at a cost of about 12 ms; local search and
    # gen --kind random draw from the standard library's random.Random instead, in the
    # CLI and in the search's workers.
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for text in shows:
        assert text in proc.stdout


@pytest.mark.parametrize("n, message", [(30, "Unable to allocate"), (40, "")])
@pytest.mark.parametrize(
    "verb",
    [["search", "--mode", "local"], ["gen", "--kind", "random"], ["gen", "--kind", "pattern", "--d", "01100"]],
)
def test_cube_too_large_to_allocate_is_an_input_error(tmp_path, child_env, verb, n, message):
    # numpy refuses n=30 at once (at least 187 TiB) and the --n parser refuses n=40,
    # whose 3**n cells numpy cannot index; the address-space cap keeps the child small.
    wrapper = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from hjinterval.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *verb, "--n", str(n), "--out", "big.hjc"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert f"error: {message}" in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb", [["gen", "--kind", "random"], ["search", "--mode", "local"], ["encode"]])
def test_dimension_numpy_cannot_index_is_refused_naming_n(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--n", "40", "--out", "unused"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n: n=40" in err and "3**n" in err


def _readme_synopsis():
    """The README's command synopsis, one verb a line, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```sh\n(hjinterval verify-gadgets.*?)```", readme, re.S).group(1)
    return re.sub(r"\n\s+", " ", block).splitlines()


def test_readme_synopsis_names_every_declared_option():
    (verbs,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        verb: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for verb, sub in verbs.choices.items()
    }
    documented = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line)) for line in _readme_synopsis()}
    assert documented == declared


def test_readme_cnf_example_is_what_encode_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```text\n(p cnf .*?)```", readme, re.S).group(1)
    assert example == write_dimacs(encode(1))


def test_console_script_declared(tmp_path, child_env):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["hjinterval"] == "hjinterval.cli:main"
    # What an installer's wrapper script does with the declared entry point.
    wrapper = (
        "import sys\n"
        "from hjinterval.cli import main\n"
        "sys.argv = ['hjinterval', 'bound']\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "cap-digits=10000\n" in proc.stdout
    assert "n0=4" in proc.stdout


def _installed_distribution():
    try:
        return importlib.metadata.distribution("hjinterval")
    except importlib.metadata.PackageNotFoundError:
        return None


INSTALLED = _installed_distribution()


@pytest.mark.skipif(
    INSTALLED is None,
    reason="the hjinterval distribution is not installed "
    "(importlib.metadata.PackageNotFoundError), so it has put no console script on PATH",
)
def test_console_script_installed():
    scripts = {ep.name: ep.value for ep in INSTALLED.entry_points if ep.group == "console_scripts"}
    assert scripts.get("hjinterval") == "hjinterval.cli:main"
    executable = shutil.which("hjinterval")
    assert executable is not None, "hjinterval is installed but its console script is not on PATH"
    proc = subprocess.run([executable, "bound"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cap-digits=10000\n" in proc.stdout
    assert "n0=4" in proc.stdout
