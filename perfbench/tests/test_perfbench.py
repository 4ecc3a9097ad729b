"""Tests of the benchmark itself: its generator, its checker and its time limit.

Run with: python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker  # noqa: E402
import questions  # noqa: E402
import run  # noqa: E402


def _inputs(workload, seed, directory):
    qs = questions.generate(workload, seed, jobs=2)
    listed = json.dumps(qs)
    questions.write_inputs(qs, str(directory))
    return listed, {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", questions.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _inputs(workload, 7, tmp_path / "a") == _inputs(workload, 7, tmp_path / "b")


def test_other_seed_other_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _inputs("certify", 7, tmp_path / "a")[1] != _inputs("certify", 8, tmp_path / "b")[1]
    assert questions.generate("search", 7, 2) != questions.generate("search", 8, 2)


def _certificate(n, color, lo, hi, fixed):
    active = range(lo, hi + 1)
    head = f"MONO-LINE n={n} color={color} active={lo}..{hi} fixed=" + ",".join(
        f"{p}:{v}" for p, v in sorted(fixed.items())
    )
    rows = [head]
    for v in (1, 2, 3):
        rows.append(f"W{v} " + "".join(str(v if i in active else fixed[i]) for i in range(1, n + 1)))
    return "\n".join(rows) + "\n"


def test_checker_accepts_a_true_certificate_and_rejects_tampered_ones():
    n = 5
    bits = bytes(3**n)  # colour 0 everywhere
    good = _certificate(n, 0, 2, 3, {1: 3, 4: 1, 5: 2})
    checker.check_certificate(good, n, bits)
    tampered = [
        good.replace("color=0", "color=1"),  # wrong colour
        good.replace("W2 32212", "W2 32312"),  # member is not a point of the line
        good.replace("active=2..3", "active=2..4"),  # active and fixed overlap
        good.replace("n=5", "n=4"),  # wrong cube
    ]
    for text in tampered:
        with pytest.raises(checker.WrongAnswer):
            checker.check_certificate(text, n, bits)
    flipped = bytearray(bits)
    flipped[checker.rank((3, 2, 2, 1, 2))] = 1  # the line's middle point changes colour
    with pytest.raises(checker.WrongAnswer):
        checker.check_certificate(good, n, bytes(flipped))


def _report(n, outcome, violations, bits):
    return (
        f"mode=local\nn={n}\noutcome={outcome}\nviolations={violations}\n"
        f"coloring={''.join(map(str, bits))}\nseed=1\nbudget=10\n"
    )


def test_checker_rejects_a_colouring_that_is_not_an_avoider():
    n = 2
    lines = checker.line_family(n)
    avoider = next(
        bits for bits in (tuple(k >> i & 1 for i in range(9)) for k in range(2**9))
        if checker.mono_lines(bits, lines) == 0
    )
    assert checker.check_search_report(_report(n, "avoider-found", 0, avoider), n) == 0
    constant = (0,) * 9
    with pytest.raises(checker.WrongAnswer):
        checker.check_search_report(_report(n, "avoider-found", 0, constant), n)
    with pytest.raises(checker.WrongAnswer):  # the recount must match the claim
        checker.check_search_report(_report(n, "inconclusive", 1, constant), n)
    # A decoded model is re-scanned against the family that was encoded:
    # this colouring avoids interval lines (m = 1) but not every line (m = 3).
    n, m = 3, 3
    rng = random.Random(0)
    interval_lines, all_lines = checker.line_family(n, 1), checker.line_family(n, m)
    interval_avoider = next(
        bits for bits in (tuple(rng.getrandbits(1) for _ in range(27)) for _ in itertools.count())
        if checker.mono_lines(bits, interval_lines) == 0 and checker.mono_lines(bits, all_lines) > 0
    )
    model = [v + 1 if b else -(v + 1) for v, b in enumerate(interval_avoider)]
    text = "".join(map(str, interval_avoider))
    assert checker.check_sat_answer("sat", model, text, n, 1, False) == "checked"
    with pytest.raises(checker.WrongAnswer):
        checker.check_sat_answer("sat", model, text, n, m, False)


def test_checker_rejects_unsat_on_a_known_satisfiable_instance():
    with pytest.raises(checker.WrongAnswer):
        checker.check_sat_answer("unsat", None, None, 4, 1, True)
    assert checker.check_sat_answer("unsat", None, None, 4, 4, False) == "checked"
    assert checker.check_sat_answer("unsat", None, None, 5, 1, False) == "unverified"
    assert checker.check_sat_answer("unknown", None, None, 5, 1, False) == "unknown"


def test_checker_rejects_a_wrong_tower():
    good = "n0=4\nn1=20\nn2=R3(20,20)\nn3=R3(R3(20,20),R3(20,20))\n"
    good += "n4=R4(R3(R3(20,20),R3(20,20)),R3(R3(20,20),R3(20,20)))\n"
    n4 = "R4(R3(R3(20,20),R3(20,20)),R3(R3(20,20),R3(20,20)))"
    n5 = f"R4({n4},{n4})"
    good += f"n5={n5}\nn={n5}+1\n"
    assert checker.check_tower(good, 10_000) == 2
    for wrong in (
        good.replace("n1=20", "n1=21"),
        good.replace("n2=R3(20,20)", "n2=R2(20,20)"),
        good.replace("n2=R3(20,20)", "n2=123456789"),  # R3(20,20) has far more than 10^4 digits
    ):
        with pytest.raises(checker.WrongAnswer):
            checker.check_tower(wrong, 10_000)
    # At a one-digit cap n1 = 20 is past the cap and must stay a formula.
    with pytest.raises(checker.WrongAnswer):
        checker.check_tower(good, 1)
    small = good.replace("20", "R2(4,4)")
    assert checker.check_tower(small, 1) == 1


def test_tower_bounds_follow_their_recurrence():
    assert checker.ramsey_bound(2, 4, 4, 10) == 20
    assert checker.ramsey_bound(3, 4, 4, 10) == 21  # R2(R3(3,4), R3(4,3)) + 1 = C(6,3) + 1
    assert checker.ramsey_bound(3, 4, 5, 10) == 10_627  # R2(5, 21) + 1 = C(24,4) + 1
    assert checker.ramsey_bound(3, 4, 5, 4) is None


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_self_times_subtract_nested_calls(scale):
    reply = {"started": 100.0, "finished": 110.0, "spans": [
        ["search.local_search", 101.0, 107.0, None],
        ["search.violation_count", 105.0, 106.0, 0],
        ["search.render_search_report", 108.0, 109.0, None],
    ]}
    answer = run.Answer({"id": "q", "verb": "search"}, 10.0 * scale, 0.2, reply, scale=scale)
    assert run.self_times(run.spans_of([answer])) == [
        ("question.search", 3.0 * scale),
        ("search.local_search", 5.0 * scale),
        ("search.violation_count", 1.0 * scale),
        ("search.render_search_report", 1.0 * scale),
    ]


def test_question_over_the_limit_is_failed_without_hanging(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    # n = 5 under the bundled solver does not finish within minutes.
    question = {"id": "slow", "verb": "solve", "n": 5, "m": 1, "sym_break": False,
                "out": str(tmp_path / "slow.cnf")}
    began = time.monotonic()
    answer = run.ask(question, env, limit=2.0)
    assert time.monotonic() - began < 10
    assert answer.reply is None and "killed" in answer.failure
    assert answer.seconds == 2.0
    assert run.judge(answer, {}, {}) == "failed"
    done = run.ask({"id": "quick", "verb": "bound", "cap": 10}, env, limit=30.0)
    assert run.judge(done, {}, {}) == "answered"
    # Its times are scaled by the speed probe around the question.
    assert done.scale == pytest.approx(run.REFERENCE_PROBE_S / (sum(done.reply["probe"]) / len(done.reply["probe"])))
    assert done.seconds == pytest.approx((done.reply["finished"] - done.reply["started"]) * done.scale)


def test_tail_percentile_leaves_ten_questions_beyond():
    times = [float(k) for k in range(1, 59)]
    p, value = run.tail(times)
    assert p == 82
    assert sum(t > value for t in times) >= run.TAIL_BEYOND
    assert sum(t > value for t in times) < run.TAIL_BEYOND + 2
