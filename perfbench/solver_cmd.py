"""The bundled DPLL behind the external-solver protocol.

Usage: python3 solver_cmd.py FILE.cnf

``hjinterval solve --solver CMD --timeout SEC`` is the CLI's only way to
ask for a time-limited answer; this command lets that path run the
bundled solver, answering with the usual "s ..." and "v ..." lines.
"""

import sys

from hjinterval.cnf import parse_dimacs, solve_builtin


def main() -> None:
    with open(sys.argv[1], "r", encoding="ascii") as fh:
        outcome = solve_builtin(parse_dimacs(fh.read()))
    if outcome.status == "sat":
        print("s SATISFIABLE")
        print("v " + " ".join(map(str, outcome.model)) + " 0")
    else:
        print("s UNSATISFIABLE")


if __name__ == "__main__":
    main()
