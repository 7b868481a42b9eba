#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs ``run.py --smoke`` against the recorded reference, which must pass,
and then against copies of it with one expected output corrupted, each of
which must end with a non-zero exit and ``fail_frac`` > 0.  Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench"


def smoke(*extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *extra],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"failed": 0, "attempted": 0}
    return proc.returncode, result["failed"] / max(1, result["attempted"])


def corrupted(ref: dict, what: str) -> dict:
    bad = json.loads(json.dumps(ref))
    if what == "table":
        # theta at n=3 on 4 pegs is 8; claim 9.
        old = bad["tables"]["hanoi4-pool"]
        bad["tables"]["hanoi4-pool"] = old.replace("\n3,2,8,", "\n3,2,9,", 1)
        if bad["tables"]["hanoi4-pool"] == old:
            raise SystemExit("selftest: the 4-peg reference has no n=3 row to corrupt")
    else:
        bad["claim"]["csv_sha256"] = "0" * 64
    return bad


def main() -> int:
    ok = True
    code, frac = smoke()
    print(f"reference: exit {code}, fail_frac {frac:.4g}")
    ok &= code == 0 and frac == 0
    ref = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    for what in ("table", "claim"):
        path = OUT / f"reference-bad-{what}.json"
        path.write_text(json.dumps(corrupted(ref, what)))
        code, frac = smoke("--reference", str(path))
        print(f"corrupted {what}: exit {code}, fail_frac {frac:.4g}")
        ok &= code != 0 and frac > 0
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
