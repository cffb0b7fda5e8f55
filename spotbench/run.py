#!/usr/bin/env python3
"""Builds and runs the SPOT serving benchmark from the repository root.

    python3 spotbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures spotbench/ (which builds the repository's library and
spot_serverd from source) into .bench_build/, then runs the spotbench
binary, whose last stdout line is the JSON result. Build output goes to
stderr. Exits non-zero without a result when the sources or the build are
missing, or when a run does not finish within RUN_TIMEOUT_S.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_run")
# A run ends well inside this; a wedged one is killed with its server.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("spotbench: no SPOT sources next to spotbench/ to build")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "spotbench", "spot_serverd"], check=True, **quiet)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("spotbench: build failed: %s" % err)
    cmd = [os.path.join(BUILD, "spotbench"), *sys.argv[1:],
           "--server", os.path.join(BUILD, "tools", "spot_serverd"),
           "--work-dir", WORK]
    sys.stdout.flush()
    # Its own process group, which the spot_serverd it launches joins.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        sys.exit("spotbench: no result after %d s; stopped" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
