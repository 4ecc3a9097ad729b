"""hjinterval benchmark: cold CLI questions, asked one at a time.

Usage:
    python3 perfbench/run.py --workload certify|frontier|search \
        --seed N --seconds S --trace 0|1

One client asks the workload's seeded questions in a closed loop: the
next question goes out when the previous one is answered.  Each question
runs in a fresh interpreter (perfbench/worker.py), so it pays the import
and the cold table caches exactly as one ``hjinterval`` CLI call does.
Every answer is checked by perfbench/checker.py, which shares no code
with the program; a wrong verdict makes the command exit 1.

A pass asks every question once.  Passes repeat while another one fits
in --seconds (at least one pass).  With --trace 0 the end-to-end metrics
are printed; with --trace 1 untraced and traced passes alternate, every
public call in a traced pass becomes a span, and the per-layer metrics
come from the spans.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import questions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench-work"

#: A question process still running this long after its spawn is killed,
#: counted as failed and charged this much time.  It leaves the
#: time-limited solver question room for start-up and teardown.
QUESTION_LIMIT_S = questions.SOLVER_TIMEOUT_S + 6.0

#: Seconds one round of the worker's speed probe takes on the baseline
#: machine (see baseline.json) when nothing else runs on it.  The CPU
#: speed of a shared host swings between full and about half speed
#: within tenths of a second, and its mix drifts over minutes, so a
#: question's wall time mostly measures the neighbours.  Each question
#: process therefore runs a fixed pure-Python probe just before and just
#: after its question, and its times are scaled by this constant over the
#: probe's mean round: they read as seconds at the baseline machine's
#: full speed.  The raw wall times are printed beside them.  Set-up is
#: left in wall time: it is mostly loading numpy's shared libraries,
#: whose time moves with the probe's only at a power of 0.2 to 0.5, so
#: scaling it would add the probe's swings to it.
REFERENCE_PROBE_S = 0.0025

#: The tail percentile is the highest one with at least this many
#: questions of a pass above it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "answer_s": "s",
    "question_p50_s": "s",
    "question_tail_s": "s",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer time metrics: the sum of the spans with these names.
SPAN_METRICS = {
    "cube.line_table_s": ("cube.interval_line_members",),
    "cube.m_line_table_s": ("cube.m_interval_line_members",),
    "cube.symmetry_tables_s": ("cube.rank_permutation",),
    "cube.coloring_io_s": ("cube.load_coloring", "cube.save_coloring"),
    "gadgets.pattern_coloring_s": ("gadgets.pattern_coloring",),
    "gadgets.find_direct_s": ("gadgets.find_interval_line.direct",),
    "gadgets.find_gadget_s": ("gadgets.find_interval_line.gadget",),
    "gadgets.find_pipeline_s": ("gadgets.find_interval_line.pipeline",),
    "gadgets.verify_s": ("gadgets.render_certificate", "gadgets.LineCertificate.verify"),
    "search.violation_count_s": ("search.violation_count",),
    "search.exhaustive_s": ("search.exhaustive_search",),
    "search.local_s": ("search.local_search",),
    "cnf.encode_s": ("cnf.encode",),
    "cnf.write_dimacs_s": ("cnf.write_dimacs_file",),
    "cnf.parse_dimacs_s": ("cnf.parse_dimacs",),
    "cnf.decode_s": ("cnf.decode_model",),
    "cnf.solve_sat_s": ("cnf.solve_builtin.sat", "cnf.run_solver.sat"),
    "cnf.solve_unsat_s": ("cnf.solve_builtin.unsat", "cnf.run_solver.unsat"),
    "cnf.solve_unknown_s": ("cnf.solve_builtin.unknown", "cnf.run_solver.unknown"),
    "bounds.tower_s": ("bounds.tower",),
}

LAYERS = ("cube", "gadgets", "search", "cnf", "bounds")


@dataclass
class Answer:
    """One question's outcome as the client saw it."""

    question: dict
    seconds: float  # answer time with set-up excluded, scaled; the limit when killed
    setup_s: float | None  # spawn to "import hjinterval" returning, wall clock
    reply: dict | None  # the worker's JSON, None when it gave none
    failure: str | None = None  # why there is no reply
    status: str = ""  # answered, unverified, no-verdict, failed or wrong
    scale: float = 1.0  # REFERENCE_PROBE_S over the question's mean probe round


def ask(question: dict, env: dict, limit: float) -> Answer:
    """Run one question process to completion, or kill it at the limit."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(question)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except BaseException as exc:
        _kill_session(proc)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return Answer(question, limit, None, None, f"killed after {limit:g} s")
        raise
    _kill_session(proc)
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit {proc.returncode}: {(err.strip().splitlines() or [''])[-1]}")
        reply = json.loads(out.splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return Answer(question, time.monotonic() - spawned, None, None, str(exc) or "no reply")
    # A solver that ran out of its time limit is charged its wall time:
    # that limit is a wall-clock one.
    scale = 1.0 if reply["verdict"] == "unknown" else REFERENCE_PROBE_S / statistics.mean(reply["probe"])
    seconds = (reply["finished"] - reply["started"]) * scale
    return Answer(question, seconds, reply["imported_at"] - spawned, reply, scale=scale)


def _kill_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the question's session: its own children
    (a process pool, an external solver) must not outlive it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def judge(answer: Answer, inputs: dict[str, bytes], least_avoiders: dict[int, str]) -> str:
    """Check one answer with the benchmark's own code.

    Returns "answered", "unverified" (an UNSAT with no reference to check
    it against), "no-verdict" (the route gave up, as CLI exit code 1
    reports) or "failed" (no reply).  Raises WrongAnswer on a wrong one.
    """
    if answer.reply is None:
        return "failed"
    q, r = answer.question, answer.reply
    verdict = r["verdict"]
    verb = q["verb"]
    if verb == "gen":
        n, bits = checker.parse_coloring(_read(q["out"]))
        if n != q["n"]:
            raise checker.WrongAnswer(f"gen wrote n={n}, asked n={q['n']}")
        if q["kind"] == "random":
            if len(set(bits)) != 2:
                raise checker.WrongAnswer("random colouring uses a single colour")
        elif bits != questions.source_bits(q):
            raise checker.WrongAnswer(f"gen {q['kind']} colouring differs from its definition")
        return "answered"
    if verb == "find-line":
        bits, text, method = inputs[q["input"]], _read(q["out"]), q["method"]
        if verdict == "found":
            checker.check_certificate(text, q["n"], bits)
            return "answered"
        if text != f"NONE method={method}\n":
            raise checker.WrongAnswer(f"find-line answered {text!r}")
        if method != "direct":
            return "no-verdict"
        if checker.mono_lines(bits, checker.line_family(q["n"])):
            raise checker.WrongAnswer("direct scan claims no line, but the colouring has one")
        return "answered"
    if verb == "search":
        checker.check_search_report(r["report"], q["n"])
        coloring = checker.parse_report(r["report"])["coloring"]
        if q["mode"] == "exhaustive" and least_avoiders.setdefault(q["n"], coloring) != coloring:
            raise checker.WrongAnswer(f"exhaustive n={q['n']} answer depends on symmetry pruning")
        if verdict == "avoider-found" and _read(q["out"]) != f"HJC 3 {q['n']}\n{coloring}\n":
            raise checker.WrongAnswer("saved avoider differs from the reported one")
        return "no-verdict" if verdict == "inconclusive" else "answered"
    if verb == "encode":
        checker.check_encoding(_read(q["out"]), q["n"], q["m"], q["sym_break"])
        return "answered"
    if verb == "solve":
        checker.check_encoding(_read(q["out"]), q["n"], q["m"], q["sym_break"])
        state = checker.check_sat_answer(verdict, r["model"], r["coloring"], q["n"], q["m"], q["sym_break"])
        return {"checked": "answered", "unverified": "unverified", "unknown": "no-verdict"}[state]
    if verb == "bound":
        r["exact_levels"] = checker.check_tower(r["tower"], q["cap"])
        return "answered"
    raise ValueError(f"unknown verb {verb!r}")


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def run_pass(qs: list[dict], traced: bool, env: dict, inputs, least_avoiders, wrong: list[str]) -> list[Answer]:
    answers = []
    for q in qs:
        answer = ask({**q, "trace": traced}, env, QUESTION_LIMIT_S)
        try:
            answer.status = judge(answer, inputs, least_avoiders)
        # Malformed output (a missing field or file) is a wrong answer too.
        except (checker.WrongAnswer, KeyError, ValueError, OSError) as exc:
            answer.status = "wrong"
            wrong.append(f"{q['id']} {json.dumps(q)}: {exc}")
        answers.append(answer)
    return answers


# --- metrics -----------------------------------------------------------------


def tail(times: list[float]) -> tuple[int, float]:
    """Highest integer percentile with TAIL_BEYOND samples above it (nearest rank)."""
    n = len(times)
    p = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    ordered = sorted(times)
    return p, ordered[max(0, math.ceil(p * n / 100) - 1)]


def end_to_end(passes: list[list[Answer]]) -> tuple[dict, list[str]]:
    per_pass = [[a.seconds for a in answers] for answers in passes]
    setups = [a.setup_s for answers in passes for a in answers if a.setup_s is not None]
    everything = [a for answers in passes for a in answers]
    no_verdict = sum(a.status in ("no-verdict", "failed") for a in everything)
    pct = tail(per_pass[0])[0]
    values = {
        "setup_s": statistics.median(setups),
        "answer_s": statistics.median(sum(t) for t in per_pass),
        "question_p50_s": statistics.median(statistics.median(t) for t in per_pass),
        "question_tail_s": statistics.median(tail(t)[1] for t in per_pass),
        "failed_ratio": no_verdict / len(everything),
        "peak_rss_mb": max((a.reply["maxrss_kb"] for a in everything if a.reply), default=0) / 1024,
    }
    raw_answer = statistics.median(sum(a.seconds / a.scale for a in answers) for answers in passes)
    notes = [
        f"answer and question times are seconds at the reference probe speed, setup_s is wall clock;"
        f" wall-clock answer_s {raw_answer:.6g}, mean scale {statistics.mean(a.scale for a in everything):.4g}",
        f"setup_s: median of {len(setups)} question processes",
        f"answer_s, question_*: median over {len(passes)} pass(es) of {len(per_pass[0])} questions",
        f"question_tail_s: p{pct} of each pass ({TAIL_BEYOND} questions beyond it)",
        f"failed_ratio: {no_verdict} questions without a verdict of {len(everything)} asked",
    ]
    return values, notes


def spans_of(answers: list[Answer]) -> list[dict]:
    """The pass's spans: one per question, parent of the public calls it
    made, which are in turn parents of the calls made inside them.

    Times are scaled like the question's and counted from its start.
    """
    spans = []
    for a in answers:
        if a.reply is None:
            continue
        qid, zero = a.question["id"], a.reply["started"]
        spans.append({"name": f"question.{a.question['verb']}", "id": qid, "start": 0.0,
                      "end": a.seconds, "parent": None, "question": qid})
        for k, (name, start, end, parent) in enumerate(a.reply["spans"]):
            spans.append({"name": name, "id": f"{qid}/{k}", "start": (start - zero) * a.scale,
                          "end": (end - zero) * a.scale,
                          "parent": qid if parent is None else f"{qid}/{parent}", "question": qid})
    return spans


def self_times(spans: list[dict]) -> list[tuple[str, float]]:
    """Each span's duration minus the part of it its children cover.

    A question's calls run one after another, so the children of a span
    never overlap and their durations simply add up.
    """
    covered: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [(s["name"], s["end"] - s["start"] - covered.get(s["id"], 0.0)) for s in spans]


def per_layer(answers: list[Answer]) -> tuple[dict, list[str]]:
    times = self_times(spans_of(answers))
    by_name: dict[str, float] = {}
    for name, t in times:
        by_name[name] = by_name.get(name, 0.0) + t
    values = {metric: sum(by_name.get(n, 0.0) for n in names) for metric, names in SPAN_METRICS.items()}
    for layer in LAYERS:
        own = [t for name, t in times if name.startswith(layer + ".")]
        values[f"{layer}.self_s"] = sum(own)
        values[f"{layer}.calls"] = len(own)
    values["cli.glue_s"] = sum(t for name, t in times if name.startswith("question."))

    counts: dict[str, int] = {}
    for a in answers:
        for name, v in (a.reply or {}).get("counts", {}).items():
            counts[name] = counts.get(name, 0) + v
    for name in ("cube.line_table_rows", "cube.coloring_bytes", "cnf.clauses", "cnf.dimacs_bytes"):
        values[name] = counts.get(name, 0)

    def of(verb: str, **match) -> list[Answer]:
        return [a for a in answers if a.question["verb"] == verb
                and all(a.question.get(k) == v for k, v in match.items())]

    notes = []
    for method in ("gadget", "pipeline"):
        tried = of("find-line", method=method)
        hits = sum(a.reply is not None and a.reply["verdict"] == "found" for a in tried)
        values[f"gadgets.{method}_hit_ratio"] = hits / len(tried) if tried else 0.0
        notes.append(f"gadgets.{method}_hit_ratio: {hits} certificates of {len(tried)} attempts")

    def stat(mode: str, key: str) -> int:
        return sum(a.reply["stats"].get(key, 0) for a in of("search", mode=mode) if a.reply)

    values["search.exhaustive_nodes"] = stat("exhaustive", "nodes")
    values["search.violation_prunes"] = stat("exhaustive", "violation_prunes")
    values["search.symmetry_prunes"] = stat("exhaustive", "symmetry_prunes")
    values["search.local_flips"] = stat("local", "flips")
    values["search.local_restarts"] = stat("local", "restarts")
    local = of("search", mode="local")
    budget = sum(a.question["budget"] for a in local)
    values["search.flips_per_s"] = values["search.local_flips"] / values["search.local_s"] if values["search.local_s"] else 0.0
    values["search.flips_used_ratio"] = values["search.local_flips"] / budget if budget else 0.0
    notes.append(f"search.flips_used_ratio: {values['search.local_flips']} flips of a {budget} budget")
    values["search.best_violations"] = sum(
        int(checker.parse_report(a.reply["report"])["violations"])
        for a in local if a.reply and a.question["n"] >= 5
    )

    solves = of("solve")
    solved = sum(a.reply is not None and a.reply["verdict"] in ("sat", "unsat") for a in solves)
    values["cnf.solved_ratio"] = solved / len(solves) if solves else 0.0
    notes.append(f"cnf.solved_ratio: {solved} verdicts of {len(solves)} solve questions")
    values["bounds.exact_levels"] = sum(a.reply["exact_levels"] for a in of("bound") if a.reply)
    values["trace.spans"] = len(times)
    return values, notes


PER_LAYER_UNITS = {
    **{m: "s" for m in SPAN_METRICS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "cli.glue_s": "s",
    "cube.line_table_rows": "count",
    "cube.coloring_bytes": "bytes",
    "cnf.clauses": "count",
    "cnf.dimacs_bytes": "bytes",
    "gadgets.gadget_hit_ratio": "ratio",
    "gadgets.pipeline_hit_ratio": "ratio",
    "search.exhaustive_nodes": "count",
    "search.violation_prunes": "count",
    "search.symmetry_prunes": "count",
    "search.local_flips": "count",
    "search.local_restarts": "count",
    "search.flips_per_s": "1/s",
    "search.flips_used_ratio": "ratio",
    "search.best_violations": "count",
    "cnf.solved_ratio": "ratio",
    "bounds.exact_levels": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


# --- command line ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=questions.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its question process and cleans up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "hjinterval" / "__init__.py").is_file():
        print(f"error: no hjinterval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Only one question process runs at a time, and its pool never asks
    # for more workers than there are CPUs.
    jobs = min(2, os.cpu_count() or 1)
    qs = questions.generate(args.workload, args.seed, jobs)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    try:
        inputs = questions.write_inputs(qs, str(run_dir))
        for q in qs:
            q["out"] = str(run_dir / "out" / q["id"])
        # Untimed warm-up: byte-compiles the package once, as an installed CLI would have.
        warm = ask({"verb": "bound", "cap": 10, "id": "warm-up"}, env, QUESTION_LIMIT_S)
        if warm.reply is None:
            print(f"error: the warm-up question failed: {warm.failure}", file=sys.stderr)
            return 2

        wrong: list[str] = []
        least_avoiders: dict[int, str] = {}
        plain: list[list[Answer]] = []
        traced: list[list[Answer]] = []
        deadline = time.monotonic() + args.seconds
        while True:
            began = time.monotonic()
            plain.append(run_pass(qs, False, env, inputs, least_avoiders, wrong))
            if args.trace:
                traced.append(run_pass(qs, True, env, inputs, least_avoiders, wrong))
            if time.monotonic() + (time.monotonic() - began) > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = [a for answers in plain + traced for a in answers]
    for a in everything:
        if a.failure:
            print(f"{a.question['id']}: {a.failure}", file=sys.stderr)
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)

    e2e, notes = end_to_end(plain)
    if args.trace:
        layer_runs = [per_layer(answers) for answers in traced]
        values = {k: statistics.median(v[0][k] for v in layer_runs) for k in layer_runs[0][0]}
        values["trace.overhead_s"] = statistics.median(sum(a.seconds for a in p) for p in traced) - e2e["answer_s"]
        notes += layer_runs[0][1]
        notes.append(f"trace.overhead_s: traced minus untraced answer_s, {len(traced)} traced pass(es)")
        units = PER_LAYER_UNITS
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w", encoding="ascii") as fh:
            json.dump([spans_of(answers) for answers in traced], fh)
    else:
        values, units = e2e, END_TO_END_UNITS
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(plain)}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": not wrong,
        "attempted": len(everything),
        "failed": sum(a.reply is None for a in everything),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
