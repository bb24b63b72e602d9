"""The runnable demos: each finishes cleanly and leaves nothing behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import teefab

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["two_tenants.py", "wallet_flow.py"])
def test_a_demo_leaves_no_temporary_directory(tmp_path, demo):
    src = str(Path(teefab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    run = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / demo)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert list(tmpdir.iterdir()) == []
