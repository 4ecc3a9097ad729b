"""Command-line frontend.

Subcommands map one-to-one onto the library: verify-gadgets,
find-line, search, encode, solve, check-proof, bound, gen.  Exit code 0
means a definitive answer was produced (found, refuted, verified, or a
proof of absence), 1 means the chosen route was inconclusive, 2 means
the invocation or an input file was bad.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from typing import Sequence

from .bounds import DEFAULT_CAP_DIGITS, tower
from .cnf import (
    EncoderBugError,
    check_model,
    encode,
    parse_dimacs,
    run_solver,
    solve_builtin,
    write_dimacs_file,
)
from .cube import Coloring, is_count, load_coloring, save_coloring
from .drup import check_proof, parse_proof
from .gadgets import (
    SEED_LENGTHS,
    Quadruple,
    case_lemma_check,
    find_interval_line,
    gadget_lines,
    pattern_coloring,
    render_certificate,
)
from .search import (
    OUTCOME_FOUND,
    OUTCOME_INCONCLUSIVE,
    exhaustive_search,
    local_search,
    render_search_report,
)


def _parse_quadruple(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4 or not all(is_count(p) for p in parts):
        raise ValueError(f"need four comma-separated cuts, got {text!r}")
    return tuple(int(p) for p in parts)


def dimension(text: str) -> int:
    """An --n whose 3**n cells numpy can index: 3**39 < 2**63 - 1 < 3**40."""
    n = int(text)
    if not 1 <= n <= 39:
        raise argparse.ArgumentTypeError(
            f"n={n} is outside 1..39: the cube's 3**n cells must number at most 2**63 - 1"
        )
    return n


def seed(text: str) -> int:
    """A gen --seed, at least 0: random.Random seeds by the absolute value, so -s
    would give the colouring of s."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed={value} is negative: a gen seed must be >= 0")
    return value


def timeout(text: str) -> float:
    """A solve --timeout: a finite number of seconds >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"timeout={text} is not a finite number of seconds >= 0"
        )
    return value


def _parse_color_vector(text: str) -> tuple[int, ...]:
    if len(text) != 5 or any(ch not in "01" for ch in text):
        raise ValueError(f"need five bits like 01100, got {text!r}")
    return tuple(int(ch) for ch in text)


def cmd_verify_gadgets(args: argparse.Namespace) -> int:
    n = args.n
    if n < 5:
        raise ValueError(f"n={n} has no quadruple of cuts inside 1..n-1: four cuts need n >= 5")
    if args.exhaustive_quadruples:
        quads = [Quadruple(n, c) for c in itertools.combinations(range(1, n), 4)]
    elif args.quadruple is not None:
        quads = [Quadruple(n, _parse_quadruple(args.quadruple))]
    else:
        quads = [Quadruple(n, (1, 2, 3, 4))]
    checked = 0
    for quad in quads:
        lines = gadget_lines(quad)
        checked += len(lines)
        if len(quads) == 1:
            for idx, line in enumerate(lines, start=1):
                print(f"line {idx} active={line.lo}..{line.hi} members={line}")
    print(f"n={n}")
    print(f"quadruples-checked={len(quads)}")
    print(f"lines-validated={checked}")
    for d, idx, colour in case_lemma_check():
        bits = "".join(str(b) for b in d)
        print(f"case d={bits} first-singleton={idx} color={colour}")
    print("case-table=ok")
    return 0


def cmd_find_line(args: argparse.Namespace) -> int:
    coloring = load_coloring(args.coloring)
    cert = find_interval_line(coloring, args.method)
    text = render_certificate(cert, args.method)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(text.encode("ascii"))
    # Only the direct scan proves absence; the other routes just failed.
    return 0 if cert is not None or args.method == "direct" else 1


def cmd_search(args: argparse.Namespace) -> int:
    if args.mode == "exhaustive":
        report = exhaustive_search(args.n)
    else:
        report = local_search(args.n, args.seed, args.budget, jobs=args.jobs)
    sys.stdout.write(render_search_report(report))
    if report.outcome == OUTCOME_FOUND:
        out = args.out or f"avoider-n{args.n}.hjc"
        save_coloring(report.coloring, out)
        print(f"avoider-file={out}")
    return 1 if report.outcome == OUTCOME_INCONCLUSIVE else 0


def cmd_encode(args: argparse.Namespace) -> int:
    instance = encode(args.n, m=args.max_intervals, sym_break=args.sym_break)
    write_dimacs_file(instance, args.out)
    print(f"vars={instance.n_vars}")
    print(f"clauses={len(instance.clauses)}")
    print(f"file={args.out}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    with open(args.cnf, "rb") as fh:
        instance = parse_dimacs(fh.read().decode("ascii"))
    deadline = None if args.timeout is None else time.monotonic() + args.timeout
    if args.solver:
        outcome = run_solver(args.cnf, args.solver, timeout=args.timeout)
        print(f"solver={args.solver}")
        culprit = "the external solver's model is wrong"
    else:
        outcome = solve_builtin(instance, timeout=args.timeout)
        print("solver=builtin-cdcl")
        # Only a family file was made by the encoder.
        culprit = "the built-in solver is at fault"
        if instance.family is not None:
            culprit = "the encoder or the built-in solver is at fault"
    if outcome.status == "unsat" and args.solver:
        # An external solver's refutation comes without a proof to check.
        print("status=unsat-unverified")
        print(
            "diagnostics=the external solver's UNSAT comes with no proof; have it write "
            f"a DRUP proof and run: hjinterval check-proof --cnf {args.cnf} --proof FILE"
        )
        return 1
    if outcome.status == "unsat":
        # The refutation counts only once its proof has been checked.
        try:
            reason = check_proof(instance.clause_tuples(), outcome.proof, deadline)
        except TimeoutError as exc:
            print("status=unknown")
            print(f"diagnostics=the refutation is unchecked: {exc}")
            return 1
        print("status=unsat" if reason is None else "status=unsat-unverified")
        return _report_proof(reason, outcome.proof)
    print(f"status={outcome.status}")
    if outcome.status == "unknown":
        print(f"diagnostics={outcome.diagnostics}")
        return 1
    try:
        # A family's model must also be complete and pass a direct scan of the family.
        coloring = check_model(instance, outcome.model)
    except (EncoderBugError, ValueError) as exc:
        print("verified=no")
        print(f"diagnostics={culprit}: {exc}")
        return 1
    model = "model=" + " ".join(map(str, outcome.model))
    print(model if coloring is None else f"coloring={coloring.bitstring}")
    print("verified=yes")
    return 0


def _report_proof(reason: str | None, lemmas: Sequence[Sequence[int]]) -> int:
    if reason is not None:
        print("proof=rejected")
        print(f"diagnostics={reason}")
        return 1
    print(f"proof=checked lemmas={len(lemmas)}")
    return 0


def cmd_check_proof(args: argparse.Namespace) -> int:
    with open(args.cnf, "rb") as fh:
        instance = parse_dimacs(fh.read().decode("ascii"))
    with open(args.proof, "rb") as fh:
        lemmas = parse_proof(fh.read().decode("ascii"))
    return _report_proof(check_proof(instance.clause_tuples(), lemmas), lemmas)


def cmd_bound(args: argparse.Namespace) -> int:
    rows = tower(DEFAULT_CAP_DIGITS)
    print("pattern-lengths=" + ",".join(str(t) for t in SEED_LENGTHS))
    print(f"cap-digits={DEFAULT_CAP_DIGITS}")
    for name, expr in rows:
        print(f"{name}={expr.render()}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "pattern":
        if args.d is None:
            raise ValueError("--kind pattern needs --d with five bits")
        coloring = pattern_coloring(args.n, _parse_color_vector(args.d))
    elif args.kind == "random":
        if args.d is not None:
            raise ValueError("--kind random takes no --d")
        coloring = Coloring.random(args.n, args.seed)
    else:
        if args.d not in (None, "0", "1"):
            raise ValueError("constant colour must be 0 or 1")
        coloring = Coloring.constant(args.n, int(args.d or 0))
    save_coloring(coloring, args.out)
    print(f"n={args.n}")
    print(f"kind={args.kind}")
    print(f"file={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjinterval",
        description="Search, certify and bound monochromatic interval lines in the 3-letter cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-gadgets", help="validate the five-line construction and its case table")
    p.add_argument("--n", type=int, default=5)
    cuts = p.add_mutually_exclusive_group()
    cuts.add_argument("--quadruple", help="four cuts a1,a2,a3,a4 (default 1,2,3,4)")
    cuts.add_argument("--exhaustive-quadruples", action="store_true")
    p.set_defaults(func=cmd_verify_gadgets)

    p = sub.add_parser("find-line", help="look for a monochromatic interval line in a colouring file")
    p.add_argument("--coloring", required=True)
    p.add_argument("--method", choices=("direct", "gadget", "pipeline"), default="direct")
    p.add_argument("--out", help="also write the certificate to this file")
    p.set_defaults(func=cmd_find_line)

    p = sub.add_parser("search", help="search for an avoider of all interval lines")
    p.add_argument("--n", type=dimension, required=True)
    p.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=20_000)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for local restarts")
    p.add_argument("--out", help="avoider file (default avoider-n<N>.hjc)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("encode", help="write the avoider question as a DIMACS CNF file")
    p.add_argument("--n", type=dimension, required=True)
    p.add_argument("--max-intervals", type=int, default=1)
    p.add_argument("--sym-break", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("solve", help="run a SAT solver on a CNF file and decode the model")
    p.add_argument("--cnf", required=True)
    p.add_argument("--solver", help="solver command (default: the built-in CDCL)")
    p.add_argument("--timeout", type=timeout, help="seconds before giving up with status=unknown")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-proof", help="check a DRUP refutation of a CNF file")
    p.add_argument("--cnf", required=True)
    p.add_argument("--proof", required=True, help='DRUP text, one "l1 ... 0" lemma a line')
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser("bound", help="print the nested Ramsey bound tower")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("gen", help="generate a colouring file")
    p.add_argument("--n", type=dimension, required=True)
    p.add_argument("--kind", choices=("pattern", "random", "constant"), required=True)
    p.add_argument("--d", help="five pattern colours like 01100 (pattern kind), or 0 or 1 (constant kind)")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
