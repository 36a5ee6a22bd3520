"""Set-up, timed rounds, output checks and the report of one workload run."""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from layers import Tracer
from workloads import WORKLOADS, CheckError


class _Discard(io.TextIOBase):
    """Sink for the CLI's 'wrote N rows' lines, so stdout ends with the result."""

    def write(self, text):
        return len(text)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, when numpy links the bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 40:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct / 100 * n)
    return pct, sorted(samples)[rank - 1]


class Harness:
    def __init__(self, workload: str, seed: int, root: str):
        from photonstat import cli

        self.main = cli.main
        self.root = root
        self.outdir = os.path.join(root, ".perfbench_out", f"{workload}-{os.getpid()}")
        os.makedirs(self.outdir)
        self.workload = WORKLOADS[workload](seed, self.outdir)
        self._keep = set(os.listdir(self.outdir))
        self._next_round = 0
        self.tracer = None  # installed for the traced half of a --trace 1 run
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mib = 0.0

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.outdir))

    def _clean(self) -> None:
        for name in os.listdir(self.outdir):
            if name not in self._keep:
                os.remove(os.path.join(self.outdir, name))

    def run_op(self, op) -> int | None:
        """One CLI call; an exception escaping the CLI counts as a failed operation."""
        try:
            with contextlib.redirect_stdout(_Discard()):
                return self.main(op.argv)
        except Exception:
            print(f"perfbench: {' '.join(op.argv)} raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None

    def setup(self) -> None:
        """Everything before the first timed operation: one untimed warm-up call."""
        self.run_op(self.workload.round_ops(-1)[0])
        self._clean()

    def _check(self, ops, codes) -> None:
        for op, code in zip(ops, codes):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                continue
            try:
                if not self.workload.check(op):
                    self.failed += 1
            except CheckError as exc:
                self.errors.append(str(exc))

    def _rounds(self, budget: float) -> dict:
        walls, cpus, latencies = [], [], []
        while sum(walls) < budget or not walls:
            ops = self.workload.round_ops(self._next_round)
            self._next_round += 1
            codes = []
            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            for op in ops:
                t0 = time.perf_counter()
                codes.append(self.run_op(op))
                latencies.append(time.perf_counter() - t0)
            walls.append(time.perf_counter() - start)
            cpus.append(_cpu_seconds() - cpu0)
            self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if self.tracer is not None:
                self.tracer.end_round()
            self._check(ops, codes)
            self._clean()
        return {"walls": walls, "cpus": cpus, "latencies": latencies}

    def measure(self, seconds: float, traced: bool) -> dict:
        if not traced:
            result = self._rounds(seconds)
        else:
            from photonstat import (classical, cli, combinatorics, config, ensemble,
                                    figures, gmt, kernels, quantum, states)

            result = self._rounds(seconds / 2)
            tracer = Tracer()
            tracer.install({
                "classical": classical, "cli": cli, "combinatorics": combinatorics,
                "config": config, "ensemble": ensemble, "figures": figures, "gmt": gmt,
                "kernels": kernels, "quantum": quantum, "states": states,
            })
            if tracer.missing:
                print(f"perfbench: no such lookup site: {', '.join(tracer.missing)}",
                      file=sys.stderr)
            self.tracer = tracer
            self.main = tracer.wrap("cli.main", cli.main)
            try:
                result["traced"] = self._rounds(seconds / 2)
            finally:
                self.tracer = None
                self.main = cli.main
                tracer.uninstall()
            result["layers"] = tracer.metrics()
        try:
            result["final"] = self.workload.final_check(self.run_op)
        except CheckError as exc:
            self.errors.append(str(exc))
            result["final"] = {}
        self._clean()
        return result

    def report(self, result: dict, setup_samples: list[float]) -> None:
        from photonstat import kernels

        walls = result["walls"]
        phases = [result] + ([result["traced"]] if "traced" in result else [])
        env = {
            "workload": self.workload.name,
            "kernel_backend": kernels.backend(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": blas_threads() or os.environ["OPENBLAS_NUM_THREADS"],
            "threads": self.workload.threads,
            "output_dir": os.path.relpath(self.outdir, self.root),
            "rounds": sum(len(phase["walls"]) for phase in phases),
            "ops": sum(len(phase["latencies"]) for phase in phases),
            **result["final"],
        }
        print("env " + json.dumps(env, sort_keys=True))
        if "layers" in result:
            overhead = statistics.median(result["traced"]["walls"]) - statistics.median(walls)
            metrics = dict(result["layers"])
            metrics["trace.overhead_s"] = (overhead, "s")
        else:
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "run_s": (statistics.median(walls), "s"),
                "op_p50_ms": (statistics.median(result["latencies"]) * 1e3, "ms"),
                "cpu_s": (statistics.median(result["cpus"]), "s"),
                "peak_rss_mib": (self.peak_rss_mib, "MiB"),
            }
            tail = tail_percentile(result["latencies"])
            if tail is not None:
                print(f"metric op_tail_ms {tail[1] * 1e3!r} ms (p{tail[0]} of "
                      f"{len(result['latencies'])} operations)")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value!r} {unit}")
        print(f"operations attempted {self.attempted} failed {self.failed}")
        for error in self.errors[:20]:
            print(f"perfbench: check failed: {error}", file=sys.stderr)
        print(json.dumps({
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
