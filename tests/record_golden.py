"""Re-record tests/golden_cli.json from the current source.

Runs every argv in the file through ``python -m dinicert.cli`` in a
subprocess and rewrites the file in the same layout, so that a diff of the
JSON lists exactly the cases whose bytes moved.  Run from anywhere:

    python tests/record_golden.py
"""

import json
import os
import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def record(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-m", "dinicert.cli", *argv],
                         capture_output=True, text=True, env=env)
    return {"argv": argv, "code": run.returncode, "stdout": run.stdout,
            "stderr": run.stderr}


if __name__ == "__main__":
    cases = [record(case["argv"]) for case in json.loads(GOLDEN.read_text())]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
