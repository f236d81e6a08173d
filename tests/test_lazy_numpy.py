"""numpy is loaded only where a DP table or brute-force CSP array is built.

The test process already holds numpy (other test modules import it), so
every check runs in a fresh interpreter with ``src`` on its path.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Shared by both interpreters: a 4x4 grid, corner to corner.
SETUP = """
import sys
from lbcut import Instance, Variant, approx_auto, parse_instance, solve_fpt
from lbcut.io import generate
GRID = parse_instance(generate("grid", [4, 4]))
INST = Instance(GRID, 0, 15, 6, Variant.VERTEX)
"""

WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
""" + SETUP + """
from lbcut.cli import main

assert approx_auto(INST).cut.size == 2
flags = ["--graph", "g.lbcut", "--source", "1", "--sink", "16",
         "--length", "6", "--variant", "vertex"]
assert main(["generate", "grid", "4", "4", "-o", "g.lbcut"]) == 0
assert main(["verify", *flags, "--cut", "2,5"]) == 0
for algo in ("approx", "brute", "mincut-baseline"):
    assert main(["solve", *flags, "--algo", algo, "--json"]) == 0, algo
try:
    solve_fpt(INST)
except ImportError:
    pass
else:
    raise AssertionError("the DP ran although numpy could not be imported")
"""

LOADED_ON_FIRST_DP = SETUP + """
assert "numpy" not in sys.modules
approx_auto(INST)
assert "numpy" not in sys.modules
assert solve_fpt(INST).size == 2
assert "numpy" in sys.modules
"""


def _run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_approximation_and_cli_run_without_numpy(tmp_path):
    run = _run(WITHOUT_NUMPY, tmp_path)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "g.lbcut").exists()


def test_numpy_loads_on_the_first_dp_solve(tmp_path):
    run = _run(LOADED_ON_FIRST_DP, tmp_path)
    assert run.returncode == 0, run.stderr
