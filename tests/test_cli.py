import hashlib
import importlib.metadata
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hjinterval import cli
from hjinterval.cli import main
from hjinterval.cnf import SolveOutcome, encode, solve_builtin, write_dimacs, write_dimacs_file
from hjinterval.cube import load_coloring
from hjinterval.gadgets import parse_certificate, pattern_coloring
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


def test_verify_gadgets_quadruple_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-gadgets", "--n", "6", "--quadruple", "1,2,3,4", "--exhaustive-quadruples"])
    assert exc.value.code == 2
    assert "not allowed with argument --quadruple" in capsys.readouterr().err


def test_verify_gadgets_bad_quadruple(capsys):
    code, _, err = run_cli(capsys, "verify-gadgets", "--n", "5", "--quadruple", "1,2,3")
    assert code == 2
    assert "error:" in err


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
    # numpy's default_rng draws these bits; a change of generator would change the file
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "0c2d9f15e66ab9e78a611daac3f602c0b059c8b77dfebbaabf1f86a135ba08e5"
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
    cert = parse_certificate(cert_path.read_text())
    assert cert.verify(pattern_coloring(5, (0, 1, 1, 0, 0)))


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


def test_search_no_symmetry_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--no-symmetry")
    assert code == 0
    assert f"coloring={exhaustive_search(3, use_symmetry=True).coloring.bitstring}\n" in out


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
    assert "line 1..1+3..3 fixed=2:1 monochromatic" in out
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


def test_solve_without_family_header_prints_raw_model(tmp_path, capsys):
    # line comments alone do not make a file an encoding of a known family
    cnf_path = tmp_path / "n2.cnf"
    rows = write_dimacs(encode(2)).splitlines()
    cnf_path.write_text("\n".join(r for r in rows if not r.startswith("c hjinterval")) + "\n")
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 0
    assert "model=" in out
    assert "coloring=" not in out and "verified=" not in out


def test_solve_external_solver_flag(tmp_path, capsys, toy_solver):
    cnf_path = tmp_path / "n2.cnf"
    write_dimacs_file(encode(2), str(cnf_path))
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", toy_solver)
    assert code == 0
    assert f"solver={toy_solver}" in out
    assert "status=sat" in out
    assert "verified=yes" in out


def test_solve_honors_env_solver(tmp_path, capsys, monkeypatch, toy_solver):
    cnf_path = tmp_path / "n2.cnf"
    write_dimacs_file(encode(2), str(cnf_path))
    monkeypatch.setenv("HJ_SOLVER", toy_solver)
    code, out, _ = run_cli(capsys, "solve", "--cnf", str(cnf_path))
    assert code == 0
    assert f"solver={toy_solver}" in out


def test_solve_unknown_is_inconclusive(tmp_path, capsys, solver_factory):
    cnf_path = tmp_path / "n1.cnf"
    write_dimacs_file(encode(1), str(cnf_path))
    garbled = solver_factory('print("s SATISFIABLE")\nprint("v 1 -2 x 0")\n')
    for solver in ("missing-binary", garbled):
        code, out, err = run_cli(capsys, "solve", "--cnf", str(cnf_path), "--solver", solver)
        assert code == 1
        assert err == ""
        assert "status=unknown" in out
        assert "diagnostics=" in out
    assert "diagnostics=bad literal 'x' in the solver's v-line" in out


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
    assert run_cli(capsys, "bound", "--cap", "10") == (0, _tower_text(10, "20"), "")


def test_bound_small_cap(capsys):
    code, out, _ = run_cli(capsys, "bound", "--cap", "1")
    assert code == 0
    assert "n1=R2(4,4)" in out
    assert out == _tower_text(1, "R2(4,4)")


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


# Each worker wraps the restart function it is sent, so a worker that has imported
# numpy.random by the end of a restart fails it.  Two CPUs are reported, so --jobs 2
# makes a pool on any host, and the pool count shows that workers were used.
NO_NUMPY_RANDOM = '''\
import os, sys
from concurrent import futures
from hjinterval.cli import main

PROBE = """
import sys
from hjinterval import search
restart = search._one_restart
def probed(*args):
    result = restart(*args)
    assert "numpy.random" not in sys.modules, "a worker imported numpy.random"
    return result
search._one_restart = probed
"""

class ProbedPool(futures.ProcessPoolExecutor):
    made = 0

    def __init__(self, max_workers):
        ProbedPool.made += 1
        super().__init__(max_workers, initializer=exec, initargs=(PROBE, {}))

futures.ProcessPoolExecutor = ProbedPool
os.cpu_count = lambda: 2
code = main(sys.argv[1:])
assert "numpy.random" not in sys.modules, "the CLI process imported numpy.random"
print(f"pools={ProbedPool.made}")
sys.exit(code)
'''


@pytest.mark.parametrize("jobs", [1, 2])
def test_local_search_never_imports_numpy_random(tmp_path, child_env, jobs):
    # numpy imports numpy.random lazily, at a cost of about 12 ms; local search draws
    # from the standard library's random.Random instead, in the CLI and in its workers.
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, "search", "--mode", "local", "--n", "4",
         "--jobs", str(jobs)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "outcome=avoider-found" in proc.stdout
    assert f"pools={int(jobs > 1)}" in proc.stdout


@pytest.mark.parametrize("n, message", [(30, "Unable to allocate"), (40, "")])
@pytest.mark.parametrize("verb", [["search", "--mode", "local"], ["gen", "--kind", "random"]])
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


def test_console_script_declared(tmp_path, child_env):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["hjinterval"] == "hjinterval.cli:main"
    # What an installer's wrapper script does with the declared entry point.
    wrapper = (
        "import sys\n"
        "from hjinterval.cli import main\n"
        "sys.argv = ['hjinterval', 'bound', '--cap', '10']\n"
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
    assert "cap-digits=10\n" in proc.stdout
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
    proc = subprocess.run([executable, "bound", "--cap", "10"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cap-digits=10\n" in proc.stdout
    assert "n0=4" in proc.stdout
