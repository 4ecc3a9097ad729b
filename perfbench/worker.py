"""Answer one benchmark question in a fresh interpreter, as one CLI call would.

Usage: python3 worker.py QUESTION_JSON  (with the package's src on PYTHONPATH)

The worker imports hjinterval, notes the monotonic clock (the parent
takes set-up time as that instant minus the spawn instant), calls the
public functions the question's CLI verb calls, and prints one JSON
object.  Just before and just after the question it times a few rounds
of a fixed pure-Python probe, by which the parent scales the question's
times to a reference CPU speed.  With "trace" set in the question every
public call becomes a span (name, start, end, parent) and the traced
replay calls the table builders explicitly first, so their cold cost
gets a span of its own.
The checks the program makes of its own answers (``violation_count``
and ``LineCertificate.verify``) get spans too, nested in the call that
makes them.
"""

import json
import os
import resource
import shlex
import sys
import time

import hjinterval  # noqa: F401  (the import every CLI call pays)

IMPORTED_AT = time.monotonic()

from hjinterval import bounds, cnf, cube, gadgets, search  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SOLVER_COMMAND = shlex.join([sys.executable, os.path.join(HERE, "solver_cmd.py")])


class Tracer:
    """Spans of public calls, kept in memory and returned with the answer.

    A span is [name, start, end, parent]: parent is the index of the span
    it ran inside, or None for a call the question made itself.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: dict[str, int] = {}

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, time.monotonic(), None, self.open[-1] if self.open else None]
        self.open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            self.open.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Make every call to owner.attr, the program's own included, a span."""
        fn = getattr(owner, attr)
        setattr(owner, attr, lambda *args, **kwargs: self.call(name, fn, *args, **kwargs))

    def rename_last(self, suffix: str) -> None:
        """Append the suffix to the name of the last call the question made."""
        if self.enabled:
            next(s for s in reversed(self.spans) if s[3] is None)[0] += "." + suffix

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)


def _probe_work() -> int:
    # Tuples, generators, small-int arithmetic and a set: the kind of
    # work the program's pure-Python table builds do.
    rows = []
    for i in range(2000):
        word = tuple((i >> k) % 3 for k in range(4))
        rows.append(sum(v * 3**k for k, v in enumerate(word)))
    return len(set(rows))


def speed_probe() -> list[float]:
    """Seconds each of five rounds of a fixed piece of pure-Python work takes now.

    An untimed round goes first: the first round in a process runs about
    a third slower than the next ones, whatever the machine is doing.
    """
    _probe_work()
    times = []
    for _ in range(5):
        start = time.monotonic()
        _probe_work()
        times.append(time.monotonic() - start)
    return times


def ask_gen(q: dict, t: Tracer) -> dict:
    n = q["n"]
    if q["kind"] == "pattern":
        coloring = t.call("gadgets.pattern_coloring", gadgets.pattern_coloring, n, tuple(q["d"]))
    elif q["kind"] == "random":
        coloring = t.call("cube.Coloring.random", cube.Coloring.random, n, q["seed"])
    else:
        coloring = t.call("cube.Coloring.constant", cube.Coloring.constant, n, q["color"])
    t.call("cube.save_coloring", cube.save_coloring, coloring, q["out"])
    t.count("cube.coloring_bytes", os.path.getsize(q["out"]))
    return {"verdict": "generated"}


def ask_find_line(q: dict, t: Tracer) -> dict:
    method = q["method"]
    t.count("cube.coloring_bytes", os.path.getsize(q["input"]))
    coloring = t.call("cube.load_coloring", cube.load_coloring, q["input"])
    if t.enabled and method == "direct":
        table = t.call("cube.interval_line_members", cube.interval_line_members, coloring.n)
        t.count("cube.line_table_rows", len(table))
    cert = t.call(f"gadgets.find_interval_line.{method}", gadgets.find_interval_line, coloring, method)
    text = t.call("gadgets.render_certificate", gadgets.render_certificate, cert, method)
    with open(q["out"], "w", encoding="ascii") as fh:
        fh.write(text)
    return {"verdict": "found" if cert is not None else "none"}


def _symmetry_tables(n: int, t: Tracer) -> None:
    for g in cube.all_symmetries():
        t.call("cube.rank_permutation", cube.rank_permutation, g, n)


def ask_search(q: dict, t: Tracer) -> dict:
    n = q["n"]
    if t.enabled:
        table = t.call("cube.interval_line_members", cube.interval_line_members, n)
        t.count("cube.line_table_rows", len(table))
    if q["mode"] == "exhaustive":
        if t.enabled and q["symmetry"]:
            _symmetry_tables(n, t)
        report = t.call("search.exhaustive_search", search.exhaustive_search, n, use_symmetry=q["symmetry"])
    else:
        report = t.call(
            "search.local_search", search.local_search, n, q["seed"], q["budget"], jobs=q["jobs"]
        )
    text = t.call("search.render_search_report", search.render_search_report, report)
    if report.outcome == search.OUTCOME_FOUND:
        t.call("cube.save_coloring", cube.save_coloring, report.coloring, q["out"])
        t.count("cube.coloring_bytes", os.path.getsize(q["out"]))
    stats = {k: v for k, v in report.stats.items() if k != "wall_time_s"}
    return {"verdict": report.outcome, "report": text, "stats": stats}


def ask_encode(q: dict, t: Tracer) -> dict:
    instance = t.call("cnf.encode", cnf.encode, q["n"], m=q["m"], sym_break=q["sym_break"])
    t.count("cnf.clauses", len(instance.clauses))
    t.call("cnf.write_dimacs_file", cnf.write_dimacs_file, instance, q["out"])
    t.count("cnf.dimacs_bytes", os.path.getsize(q["out"]))
    return {"verdict": "encoded"}


def ask_solve(q: dict, t: Tracer) -> dict:
    n, m, sym = q["n"], q["m"], q["sym_break"]
    instance = t.call("cnf.encode", cnf.encode, n, m=m, sym_break=sym)
    t.count("cnf.clauses", len(instance.clauses))
    t.call("cnf.write_dimacs_file", cnf.write_dimacs_file, instance, q["out"])
    with open(q["out"], "r", encoding="ascii") as fh:
        text = fh.read()
    t.count("cnf.dimacs_bytes", len(text))
    parsed = t.call("cnf.parse_dimacs", cnf.parse_dimacs, text)
    if "timeout" in q:
        outcome = t.call("cnf.run_solver", cnf.run_solver, q["out"], SOLVER_COMMAND, timeout=q["timeout"])
    else:
        outcome = t.call("cnf.solve_builtin", cnf.solve_builtin, parsed)
    t.rename_last(outcome.status)
    answer = {"verdict": outcome.status, "model": None, "coloring": None}
    if outcome.status == "sat":
        if t.enabled:
            t.call("cube.m_interval_line_members", cube.m_interval_line_members, n, m)
        coloring = t.call("cnf.decode_model", cnf.decode_model, outcome.model, n, m)
        answer["model"] = list(outcome.model)
        answer["coloring"] = coloring.bitstring
    return answer


def ask_bound(q: dict, t: Tracer) -> dict:
    rows = t.call("bounds.tower", bounds.tower, q["cap"])
    return {"verdict": "bounded", "tower": "".join(f"{name}={expr.render()}\n" for name, expr in rows)}


VERBS = {
    "gen": ask_gen,
    "find-line": ask_find_line,
    "search": ask_search,
    "encode": ask_encode,
    "solve": ask_solve,
    "bound": ask_bound,
}


def main() -> None:
    question = json.loads(sys.argv[1])
    tracer = Tracer(question.get("trace", False))
    if tracer.enabled:
        tracer.wrap(search, "violation_count", "search.violation_count")
        tracer.wrap(gadgets.LineCertificate, "verify", "gadgets.LineCertificate.verify")
    probe_before = speed_probe()
    started = time.monotonic()
    answer = VERBS[question["verb"]](question, tracer)
    finished = time.monotonic()
    probe_after = speed_probe()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    answer.update(
        imported_at=IMPORTED_AT,
        started=started,
        finished=finished,
        probe=probe_before + probe_after,
        maxrss_kb=usage,
        spans=tracer.spans,
        counts=tracer.counts,
    )
    print(json.dumps(answer))


if __name__ == "__main__":
    main()
