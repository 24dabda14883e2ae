"""The suite's per-test time limit (tests/conftest.py) turns a hang into a failure."""

import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_test_past_the_time_limit_fails_with_its_node_id(tmp_path):
    text, limit = CONFTEST.read_text(), "\nTIME_LIMIT_S = 60\n"
    assert limit in text
    (tmp_path / "conftest.py").write_text(text.replace(limit, "\nTIME_LIMIT_S = 0.5\n"))
    (tmp_path / "test_hang.py").write_text(
        "import time\n\n\ndef test_sleeps_past_the_limit():\n    time.sleep(30)\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=25,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "test_hang.py::test_sleeps_past_the_limit ran past the 0.5 s time limit" in run.stdout
