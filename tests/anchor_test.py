#!/usr/bin/env python3
"""Self-test for scripts/check_anchors.py (ctest: anchor_selftest): on the
fixture tree in tests/anchor_fixtures/, the check must fail and report
exactly the lines of GUIDE.md that carry a `<!-- bad -->` marker: one
stale line number, one anchor without a name, one name that only shares
a prefix with the code, one missing file and one ambiguous file name.

Run directly (`python3 tests/anchor_test.py`) or via ctest.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(os.path.dirname(HERE), "scripts", "check_anchors.py")
FIXTURE = os.path.join(HERE, "anchor_fixtures")
GUIDE = os.path.join(FIXTURE, "GUIDE.md")


def main() -> int:
    with open(GUIDE, encoding="utf-8") as f:
        want = [i for i, line in enumerate(f.read().splitlines(), 1)
                if "<!-- bad -->" in line]
    run = subprocess.run([sys.executable, CHECK, "--root", FIXTURE, GUIDE],
                         capture_output=True, text=True)
    got = [int(m.group(1)) for m in
           re.finditer(r"^stale anchor GUIDE\.md:(\d+):", run.stdout, re.M)]
    if run.returncode != 1 or got != want:
        print(f"anchor_test: FAIL (exit {run.returncode}, reported lines "
              f"{got}, want {want})")
        print(run.stdout, run.stderr, sep="\n")
        return 1
    print("anchor_test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
