"""Importing the simulator and the harness does not import scipy.

scipy costs about a second to import and is only needed for the
Student-t quantile of a multi-sample confidence interval, so it is
imported there, on first use.
"""

import math
import os
import subprocess
import sys

import pytest

from repro.common.stats import confidence_interval


def test_core_imports_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import repro.harness.experiments, repro.system.simulator, "
        "repro.traces\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("n", range(2, 31))
def test_confidence_half_width_is_the_student_t_interval(n):
    from scipy import stats

    samples = [float((i * 7) % 5) + 0.25 * i for i in range(n)]
    mean = sum(samples) / n
    sem = math.sqrt(sum((x - mean) ** 2 for x in samples) / (n - 1) / n)
    expected = float(stats.t.ppf(0.975, df=n - 1)) * sem
    ci = confidence_interval(samples)
    assert ci.n == n
    assert ci.mean == mean
    assert ci.half_width == expected
