"""Replay the golden CLI corpus under ``tests/golden/``.

Each ``<case>.json`` holds the input files the command reads (``files``: name
to JSON content, written into an empty working directory), the ``argv``
given to ``aparam``, and the recorded ``stdout`` and ``exit`` code.  Every
case must print its recorded stdout byte for byte and return its recorded
exit code.

To re-record after a deliberate output change, run from the repository root

    PYTHONPATH=src python tests/test_golden.py

which rewrites ``stdout`` and ``exit`` of every case from the current code.
A new case is a new file with ``argv`` and ``files`` (``stdout`` and ``exit``
may be left empty before recording).  Review the diff before committing.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from aparam.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


def replay(case: dict, workdir: Path) -> tuple[int, str]:
    for name, content in case["files"].items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(content))
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(buf):
            code = run(case["argv"])
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_golden_case(path, tmp_path):
    case = json.loads(path.read_text())
    assert replay(case, tmp_path) == (case["exit"], case["stdout"])


if __name__ == "__main__":
    import tempfile

    for path in CASES:
        case = json.loads(path.read_text())
        with tempfile.TemporaryDirectory() as tmp:
            case["exit"], case["stdout"] = replay(case, Path(tmp))
        path.write_text(json.dumps(case, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
