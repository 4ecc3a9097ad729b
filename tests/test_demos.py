import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script, key_lines",
    [
        (
            "bound_tower.py",
            ["n0 = 4", "R3(5,5) has 6396 digits", "compose: R4(R3(20,20),10)+1"],
        ),
        (
            "proof_walkthrough.py",
            [
                "w4 = 113323322   contracts to 13232",
                "L1: active 3..5   {111113322, 112223322, 113333322}",
                "32 cases, all hit",
                "MONO-LINE n=5 color=0 active=3..3 fixed=1:1,2:3,4:3,5:2",
            ],
        ),
        (
            "sat_frontier.py",
            [
                "c hjinterval n=1 m=1 sym_break=0",
                "n=5: unsat",
                "checked",
                "74 clauses, sat, no monochromatic line in the decoded colouring",
            ],
        ),
        (
            "small_cube_search.py",
            [
                "n=4 least avoider: 0010101001010100100101011011010010100101001010011100100101101"
                "01101101010100001011",
                "n=5: refuted",
                "independent recount: 0 violations",
            ],
        ),
    ],
)
def test_demo_runs(script, key_lines, tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path,
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for key in key_lines:
        assert key in proc.stdout
