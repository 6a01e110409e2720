"""Re-record tests/golden_cli.json from the current source.

Runs every argv in the file through ``python -m dinicert.cli`` in a
subprocess, rewrites the file in the same layout and prints the argv of
each case whose bytes moved (a new case, without recorded output, counts
as moved).  Run from anywhere:

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
    cases = []
    for old in json.loads(GOLDEN.read_text()):
        cases.append(record(old["argv"]))
        if cases[-1] != old:
            print("moved:", " ".join(old["argv"]))
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
