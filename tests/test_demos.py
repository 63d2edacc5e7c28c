"""Every script under demos/ runs to completion against the package sources
and prints its exact results."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from permupower.golden import EXPECTED_CENSUS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def census_rows(d):
    """Demo 03's table rows for d: each class as power, float, count."""
    return [f"{power} # {count}" for power, count in EXPECTED_CENSUS[d].items()]


# Lines each demo prints, with every decimal number written as "#" and runs
# of spaces as one: the exact values (integers and fractions) are pinned,
# floats are not.
EXPECTED_LINES = {
    "01_entangling_power.py": [
        "identity (d=3) Q_P= 81 Q_PS= 9 power = 0 = #",
        "swap (d=3) Q_P= 9 Q_PS= 81 power = 0 = #",
        "controlled-not (d=2) Q_P= 8 Q_PS= 4 power = 4/9 = #",
        "cnot * swap (d=2) Q_P= 4 Q_PS= 8 power = 4/9 = #",
        "Latin-square maximum (d=3) Q_P= 9 Q_PS= 9 power = 3/4 = #",
        "minimal nonzero family at d=4 Q_P= 184 Q_PS= 16 power = 6/25 = #",
        "the side-6 extremum Q_P= 40 Q_PS= 36 power = 628/735 = #",
        "column agreements a_ijm=0 a_ijn=0, row agreements b_imn=1 b_jmn=1 -> preserved: False",
    ],
    "02_latin_square_maxima.py": [
        *(f"d={d:2d} power {d}/{d + 1} block conditions all hold: True"
          for d in (3, 4, 5, 7, 8, 9, 11, 12)),
        "d= 2 -- no orthogonal Latin squares of side 2 exist",
        "11 23 32",
        "Q_P=40, Q_PS=36, power 628/735 = #",
        "(the unreachable unitary ceiling at d=6 would be 6/7 = #)",
    ],
    "03_census.py": [
        "d = 2: 24 permutations, 2 classes (bound 4)",
        *census_rows(2),
        "mean power: 8/27 = #",
        "non-entangling: 8 = 2(d!)^2, a fraction 1/3 of all",
        "d = 3: 362880 permutations, 15 classes (bound 22)",
        *census_rows(3),
        "mean power: 31/56 = #",
        "non-entangling: 72 = 2(d!)^2, a fraction 1/5040 of all",
        "The exact means at d=2 and d=3 are 8/27 and 31/56; the sampled",
    ],
    "04_oracle_crosscheck.py": [
        *(f"{label} # # # +- # (# SE)"
          for label in ("cnot (d=2)", "r9 (d=3)", "min:3", "mols:5", "random d=3",
                        "random d=4")),
    ],
    "05_four_qudit_states.py": [
        "12|34 13|24 14|23 1|234 2|134 3|124 4|123",
        *(f"{label} # # # # # # #"
          for label in ("identity d=3", "swap d=3", "mols d=3", "mols d=4", "mols d=5")),
    ],
}


def test_demos_found():
    assert len(DEMOS) >= 5
    assert sorted(EXPECTED_LINES) == [script.name for script in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {" ".join(re.sub(r"-?\d+\.\d+", "#", line).split())
               for line in proc.stdout.splitlines()}
    missing = [line for line in EXPECTED_LINES[script.name] if line not in printed]
    assert not missing, missing
