"""Two-clock benchmark launcher.

Usage, from the repository root::

    python3 perfbench/run.py --workload bd_insights --seed 7 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, seed 7

Each workload runs in a fresh interpreter (``perfbench/worker.py``) with
numpy and BLAS pinned to one thread, so peak memory and engine state
(column cache, tracer, recorder) are per workload.  The worker's last
stdout line is the JSON result; the exit code is nonzero when any answer
is wrong, the program is missing, or the worker overruns its time limit.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bd_insights", "rolap_sharded", "serving")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIMEOUT_S = 170


def run_worker(workload: str, forwarded: list[str]) -> int:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # Fixed string hashing: the same seed then lays out the same dicts
    # and sets, and peak memory repeats exactly.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, *forwarded]
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    args, forwarded = parser.parse_known_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')}"
              " is missing", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload} ==", flush=True)
        status = run_worker(workload, forwarded) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
