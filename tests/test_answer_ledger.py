"""The answer ledger: ``tests/answers.txt`` holds the lines that
``tools/answer_digest.py`` prints for its fast entries, so a change that
moves an answer, a search counter, a CLI report or an error fails here. A
moved line is a changed check: regenerate the ledger from the root with

    for w in hypercube cli symmetry formats; do
        python3 tools/answer_digest.py --workload $w
    done > tests/answers.txt

and name each moved line, and why it moved, in CHANGES.md. ``random`` and
``oracle`` take seconds each and are run by hand.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "answers.txt"


@pytest.mark.parametrize("entry", ["hypercube", "cli", "symmetry", "formats"])
def test_answer_digest_matches_the_ledger(entry):
    # Each entry in its own process, run from this checkout's root, whose
    # src/ the tool imports.
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "answer_digest.py"),
                           "--workload", entry], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    expected = [line for line in LEDGER.read_text().splitlines()
                if line.split(" ", 1)[0] == entry]
    assert expected and proc.stdout.splitlines() == expected
