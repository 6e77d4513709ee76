"""Demos 01-06 print what their recorded transcripts hold.

Each demo runs in its own interpreter from the repository root, with
``src`` on the path.  Only demo 04's ``wall clock:`` line is masked: every
other line is deterministic, so a change that moves any printed number
shows here.  Re-record a transcript only with the change that means to
move it:  ``PYTHONPATH=src python demos/<name>.py > tests/data/demos/<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = ROOT / "tests" / "data" / "demos"
DEMOS = ["01_divergences", "02_bands_and_codebook", "03_covering",
         "04_classical_end_to_end", "05_quantum_pgm", "06_regions_and_curves"]


def _masked(name: str, text: str) -> list:
    lines = text.splitlines()
    if name == "04_classical_end_to_end":
        lines = ["wall clock: <masked>" if line.startswith("wall clock:") else line
                 for line in lines]
    return lines


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_its_transcript(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    want = (TRANSCRIPTS / f"{name}.txt").read_text()
    assert _masked(name, run.stdout) == _masked(name, want)
