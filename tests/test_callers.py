"""Code outside the package that calls it: the benchmark workloads and the
README's example must keep running against the library's current names."""
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ab_decide", "mc_firstprice"])
def test_benchmark_workload_pass(workload, tmp_path):
    """One untraced pass of the workload: every op runs, checks out against
    its reference, and the self-test catches every planted defect."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failed"] == 0, report["failures"]
    assert report["wrong"] == {}
    assert report["self_test_missed"] == []


def test_readme_example(capsys):
    """The README's first python block runs and prints an estimate within
    its bound of the true revenue."""
    text = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    estimate, truth, bound = map(float, capsys.readouterr().out.split())
    assert all(map(math.isfinite, (estimate, truth, bound)))
    assert abs(estimate - truth) <= bound
