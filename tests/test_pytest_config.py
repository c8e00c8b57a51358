"""The repository's pytest settings must let a failing property report
itself: pytest turns warnings into errors here, and a warning raised while
hypothesis reports a failure must not hide the falsifying example."""

import subprocess
import sys

import pytest

from conftest import ROOT

pytest.importorskip("hypothesis")

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed" in output
    assert run.returncode == 1
