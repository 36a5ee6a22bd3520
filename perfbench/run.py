"""Run one photonstat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
workload runs whole rounds of operations (calls of ``photonstat.cli.main``)
until ``--seconds`` of round time have passed, checks every operation's output
against the references in ``references.py`` between rounds, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run spends half its time untraced and half with per-layer wrappers installed,
and reports the per-layer metrics plus ``trace.overhead_s``.  Workload names,
inputs and metrics are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 40


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """Run BLAS on one thread; effective only before numpy loads.

    Worker threads and BLAS threads share the machine's two cores.  Two
    OpenBLAS threads made classical-general slower (1.72 s against 1.58 s a
    round), doubled its cpu_s and doubled its run-to-run spread.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_photonstat():
    """Import photonstat from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "photonstat", "__init__.py")):
        sys.exit(f"perfbench: no photonstat sources under {src}")
    sys.path.insert(0, src)
    import photonstat

    if os.path.dirname(os.path.dirname(os.path.abspath(photonstat.__file__))) != src:
        sys.exit(f"perfbench: photonstat imported from {photonstat.__file__}, not {src}")
    return photonstat


def main(argv=None) -> int:
    pin_blas_threads()
    import_photonstat()

    from harness import Harness
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)

    harness = Harness(args.workload, args.seed, ROOT)
    try:
        harness.setup()
        if args.setup_probe:
            print(f"setup_done {time.time()!r}")
            return 0
        setup_samples = [] if args.trace else probe_setup(args)
        result = harness.measure(args.seconds, traced=bool(args.trace))
        harness.report(result, setup_samples)
    finally:
        harness.close()
    return 0


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes: start to the end of the warm-up operation."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        name, ready = line.split()
        if name != "setup_done":
            raise RuntimeError(f"setup probe printed {line!r}")
        samples.append(float(ready) - spawned)
    return samples


if __name__ == "__main__":
    sys.exit(main())
