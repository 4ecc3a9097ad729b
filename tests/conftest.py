import os
import sys
from pathlib import Path

import numpy as np
import pytest

import hjinterval
from hjinterval.cnf import CnfInstance, encode, solve_builtin

# The directory this suite imported hjinterval from: src/ in a checkout, the
# site-packages directory when the package is installed. Child pythons get it
# as an absolute path, so they run the code under test whatever their cwd is.
PACKAGE_ROOT = str(Path(hjinterval.__file__).resolve().parents[1])

WELL_BEHAVED = """\
import sys
from hjinterval.cnf import parse_dimacs, solve_builtin

with open(sys.argv[1]) as fh:
    instance = parse_dimacs(fh.read())
outcome = solve_builtin(instance)
if outcome.status == "sat":
    print("c toy solver")
    print("s SATISFIABLE")
    print("v " + " ".join(str(lit) for lit in outcome.model) + " 0")
else:
    print("s UNSATISFIABLE")
"""


@pytest.fixture
def child_env():
    """Environment for a child python that must import the hjinterval under test."""

    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def solver_factory(tmp_path):
    """Build throwaway solver commands from a python script body."""

    counter = [0]

    def make(body: str) -> str:
        counter[0] += 1
        script = tmp_path / f"solver{counter[0]}.py"
        script.write_text(f"import sys\nsys.path.insert(0, {PACKAGE_ROOT!r})\n{body}")
        return f"{sys.executable} {script}"

    return make


@pytest.fixture
def toy_solver(solver_factory):
    """A real external solver: parses DIMACS, answers with s/v lines."""

    return solver_factory(WELL_BEHAVED)


@pytest.fixture
def two_interval_mono_model():
    """A model of encode(3) whose colouring avoids every interval line but
    leaves the 2-interval line 1..1+3..3 fixed=2:1 monochromatic."""

    # The line's points 111, 212, 313 have ranks 0, 10, 20: pin them to colour 0.
    base = encode(3)
    pinned = CnfInstance(27, np.vstack((base.clauses, ((-1, 0, 0), (-11, 0, 0), (-21, 0, 0)))))
    outcome = solve_builtin(pinned)
    assert outcome.status == "sat"
    return outcome.model


@pytest.fixture
def two_cube_unsat_cnf():
    """A refutable CNF under the header of encode(2), whose 2-cube has avoiders."""

    return "p cnf 9 2\nc hjinterval n=2 m=1 sym_break=0\n1 0\n-1 0\n"
