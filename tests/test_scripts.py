"""The scripts under ``scripts/`` run to completion against the package."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"


@pytest.mark.parametrize(
    "argv",
    [["adversarial_demo.py"], ["size_trends.py", "--quick"], ["ab_constructions.py", str(REPO), str(REPO), "--quick"]],
)
def test_script_runs_cleanly(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
