"""The demos as a user runs them, their stdout pinned byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import gridcascade

DEMOS = Path(__file__).parents[1] / "demos"

# sha256 of the stdout of each mean-field demo. Demos 01 and 04 are left
# out: their Monte Carlo output depends on the BLAS kernel (ROADMAP item 4).
DEMO_GOLDEN = {
    "02_meanfield_traces.py": "2058c5311e8ca911a1a0cef0c1e28014a9691e74ebc7ab3cc04f52fd0c15bb3a",
    "03_critical_thresholds.py": "5fc1f171c3901e57e4036d43a768d6ae502a2d0ee87bc5d66bbf63da34986ebd",
}


def test_mean_field_demos_print_their_golden_output():
    env = dict(os.environ, PYTHONPATH=str(Path(gridcascade.__file__).parents[1]))
    procs = {name: subprocess.Popen([sys.executable, str(DEMOS / name)], env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for name in DEMO_GOLDEN}
    try:
        outs = {name: proc.communicate(timeout=120) for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
    for name, (out, err) in outs.items():
        assert procs[name].returncode == 0, err.decode()
        assert hashlib.sha256(out).hexdigest() == DEMO_GOLDEN[name], out.decode()
