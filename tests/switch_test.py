#!/usr/bin/env python3
"""Self-test for scripts/check_switches.py (ctest: switch_selftest): on
the fixture tree in tests/switch_fixtures/, whose src/ sets every switch
but vmmc.reliability.enabled, the check must fail and name exactly that
one.

Run directly (`python3 tests/switch_test.py`) or via ctest.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK = os.path.join(os.path.dirname(HERE), "scripts", "check_switches.py")
FIXTURE = os.path.join(HERE, "switch_fixtures")


def main() -> int:
    run = subprocess.run(
        [sys.executable, CHECK, "--root", FIXTURE,
         "--params", os.path.join(FIXTURE, "params.h")],
        capture_output=True, text=True)
    named = [line.split("'")[1] for line in run.stdout.splitlines()
             if "switch '" in line]
    ok = run.returncode == 1 and named == ["vmmc.reliability.enabled"]
    if not ok:
        print(f"switch_test: FAIL (exit {run.returncode}, named {named})")
        print(run.stdout, run.stderr, sep="\n")
        return 1
    print("switch_test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
