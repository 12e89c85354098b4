#!/usr/bin/env python3
"""ctest wallprof_selftest: profiles a short simulator benchmark under the
wallprof shim and checks that resolve.py attributes samples to
vmmc::sim::Simulator code.

    selftest.py <libwallprof.so> <sim_microbench>
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    lib, bench = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "prof.txt")
        env = dict(os.environ, LD_PRELOAD=lib, WALLPROF_OUT=dump)
        subprocess.run([bench, "--benchmark_filter=^BM_EventDispatch$"],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "resolve.py"), dump,
             "--top", "10", "--expect", "vmmc::sim::Simulator"]).returncode


if __name__ == "__main__":
    sys.exit(main())
