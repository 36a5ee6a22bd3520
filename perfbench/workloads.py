"""The benchmark's four workloads: inputs, operations and output checks.

An operation is one call of ``photonstat.cli.main``: one figure, one sweep or
one config.  A workload runs whole rounds of the same operations; inputs that
vary are drawn from the run's ``--seed`` and the round index, so the same seed
gives the same inputs.  Every operation writes to a fresh path, because
rewriting an existing file costs a filesystem flush that would swamp the
output layer.

``check`` returns True when an operation's output agrees with the reference
computed in ``references``, False when it misses the precision a reported
deviation must meet (counted as failed), and raises ``CheckError`` when the
output is wrong beyond that.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

EPS = np.finfo(float).eps
# The project's agreement gate for exact paths, applied relative to the scale
# of the compared quantity.
REL_TOL = 1e-10
CLOUD_N = 10_000
CUBE_SIDE = 100.0


class CheckError(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    kind: str
    argv: list
    out: str
    meta: dict = field(default_factory=dict)


def derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cloud_positions(seed: int, realization: int, n: int) -> np.ndarray:
    """The cloud photonstat documents for (seed, realization): Philox keyed by both,
    uniform in a cube of side 100 wavelengths centred on the origin."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(realization,))
    rng = np.random.Generator(np.random.Philox(ss))
    return rng.uniform(-0.5 * CUBE_SIDE, 0.5 * CUBE_SIDE, size=(n, 3))


def offaxis_k(seed: int, realization: int) -> np.ndarray:
    """fig3's transverse observation direction for (seed, realization)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(realization, 1))
    angle = np.random.Generator(np.random.Philox(ss)).uniform(0.0, 2.0 * math.pi, size=1)[0]
    return np.array([math.cos(angle), math.sin(angle), 0.0])


def unit_vectors(rng: np.random.Generator, count: int) -> list:
    v = rng.normal(size=(count, 3))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).tolist()


def expect_close(what: str, got: complex, want: complex, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{what}: got {got!r}, reference {want!r}, tolerance {tol:.3g}")


def cell(row: dict, stem: str) -> complex:
    return complex(float(row[f"{stem}_re"]), float(row[f"{stem}_im"]))


def pulse_moments(r: float) -> tuple[float, complex, float]:
    """(p, c, f) of the pulse state with coherence ratio R = cot^2(theta/2)."""
    return 1.0 / (1.0 + r), -1j * math.sqrt(r) / (1.0 + r), 1.0 / (1.0 + r) ** 2


class Workload:
    name = ""
    threads = 1

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self._files = 0

    def fresh(self, suffix: str) -> str:
        self._files += 1
        return os.path.join(self.outdir, f"{self._files:07d}{suffix}")

    def write_json(self, payload: dict) -> str:
        path = self.fresh(".json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def round_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> bool:
        raise NotImplementedError

    def final_check(self, run_op) -> dict:
        """Checks that need fresh operations outside the timed section."""
        return {}


# ---------------------------------------------------------------- fig3


class Fig3Offaxis(Workload):
    """``figure fig3`` at its default grid, one realization, one thread.

    Each round is one full figure on a cloud seeded from ``--seed`` plus one
    single-cell figure per checked (m, R) cell on the fixed cloud of seed 7.
    The full figure is checked at working precision; the fixed cells against
    the deviation's own magnitude, which the low-R cells miss today.
    """

    name = "fig3-offaxis"
    threads = 1
    CHECK_SEED = 7
    M_VALUES = (2, 3)
    R_INV_GRID = np.geomspace(1e2, 1e8, 25)
    CHECK_R_INDICES = (0, 8, 16, 24)  # R = 1e-2, 1e-4, 1e-6, 1e-8

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.cell_configs = []
        for m in self.M_VALUES:
            for i in self.CHECK_R_INDICES:
                r_inv = float(self.R_INV_GRID[i])
                config = self.write_json({"m_values": [m], "r_inv_grid": [r_inv]})
                self.cell_configs.append((m, r_inv, config))
        self._fixed = None

    def _figure(self, seed: int, config: str | None = None) -> list:
        argv = ["figure", "fig3", "--realizations", "1", "--threads", str(self.threads),
                "--seed", str(seed)]
        return argv + (["--config", config] if config else [])

    def round_ops(self, index):
        seed = derive_seed(self.seed, index + 1)
        out = self.fresh(".csv")
        ops = [Op("full", self._figure(seed) + ["--out", out], out, {"seed": seed})]
        for m, r_inv, config in self.cell_configs:
            out = self.fresh(".csv")
            argv = self._figure(self.CHECK_SEED, config) + ["--out", out]
            ops.append(Op("cell", argv, out, {"cell": (m, 1.0 / r_inv)}))
        return ops

    @staticmethod
    def _power_sums(seed: int, high_precision: bool):
        from references import mp_power_sums, structure_factors

        pos = cloud_positions(seed, 0, CLOUD_N)
        k = offaxis_k(seed, 0)
        if high_precision:
            return mp_power_sums(pos, k, max(Fig3Offaxis.M_VALUES))
        import mpmath

        sums = structure_factors(pos, [d * k for d in range(1, max(Fig3Offaxis.M_VALUES) + 1)])
        return [mpmath.mpc(CLOUD_N)] + [mpmath.mpc(v) for v in sums]

    @staticmethod
    def _references(power_sums) -> dict:
        from references import disjoint_pair_sums

        return {m: disjoint_pair_sums(power_sums, m) for m in Fig3Offaxis.M_VALUES}

    def check(self, op):
        from references import autocorrelation_delta

        rows = read_rows(op.out)
        if op.kind == "cell":
            if self._fixed is None:
                sums = self._power_sums(self.CHECK_SEED, high_precision=True)
                self._fixed = (sums, self._references(sums))
            sums, pair_sums = self._fixed
            cells = [(int(row["m"]), float(row["ratio"])) for row in rows]
            if cells != [op.meta["cell"]]:
                raise CheckError(f"fig3 cell {op.meta['cell']} wrote cells {cells}")
            row = rows[0]
            m, r = cells[0]
            want = complex(autocorrelation_delta(pair_sums[m], sums, CLOUD_N, m, r))
            got = cell(row, "mean_delta_coh")
            return abs(got - want) <= REL_TOL * abs(want)
        sums = self._power_sums(op.meta["seed"], high_precision=False)
        pair_sums = self._references(sums)
        cells = [(int(row["m"]), float(row["ratio"])) for row in rows]
        if cells != [(m, 1.0 / r_inv) for m in self.M_VALUES for r_inv in self.R_INV_GRID]:
            raise CheckError("fig3 rows do not cover its default (m, R) grid in order")
        for row in rows:
            m, r = int(row["m"]), float(row["ratio"])
            want = complex(autocorrelation_delta(pair_sums[m], sums, CLOUD_N, m, r))
            # working precision: an O(m!) value rounded over N atoms, sqrt(N) m! eps
            tol = REL_TOL * abs(want) + math.sqrt(CLOUD_N) * math.factorial(m) * EPS
            expect_close(f"fig3 m={m} R={r:.3g}", cell(row, "mean_delta_coh"), want, tol)
            if float(row["sem"]) != 0.0 or int(row["realizations"]) != 1:
                raise CheckError("fig3 single-realization row reports a spread")
        return True


# ------------------------------------------------------- general directions


def _s_table(seed: int, realization: int, n: int, vectors, m: int) -> np.ndarray:
    from references import block_vectors, structure_factors

    return structure_factors(cloud_positions(seed, realization, n), block_vectors(vectors, m))


class DeviationGeneral(Workload):
    """``deviation`` sweeps over an r_grid at distinct directions, two threads.

    Each round runs four m = n = 2 sweeps and one m = n = 3 sweep, each on its
    own seeded cloud pair and directions.  The median operation is then an
    m = 2 sweep, and a run has enough of them for a steady median under the
    scheduling noise of two threads.
    """

    name = "deviation-general"
    threads = 2
    R_GRID = [10.0**e for e in range(-8, -1)]
    REALIZATIONS = 2
    ORDERS = (2, 2, 3, 2, 2)

    def _config(self, index: int, slot: int) -> dict:
        m = self.ORDERS[slot]
        seed = derive_seed(self.seed, index + 1, slot)
        rng = np.random.default_rng(seed)
        return {
            "state": {"kind": "pulse", "theta": math.pi / 2},
            "ensemble": {"n": CLOUD_N},
            "order": {"m": m, "n": m},
            "directions": {"vectors": unit_vectors(rng, 2 * m)},
            "sweep": {"r_grid": self.R_GRID},
            "realizations": self.REALIZATIONS,
            "seed": seed,
        }

    def op_for(self, cfg: dict, threads: int) -> Op:
        out = self.fresh(".csv")
        path = self.write_json(cfg)
        argv = ["deviation", "--config", path, "--threads", str(threads), "--out", out]
        return Op("deviation", argv, out, {"cfg": cfg})

    def round_ops(self, index):
        return [self.op_for(self._config(index, slot), self.threads)
                for slot in range(len(self.ORDERS))]

    def check(self, op):
        from references import (condition_margins, correlator_G, delta_n_closed_form,
                                gmt_pair_sum, normalized, quantum_moment)

        cfg = op.meta["cfg"]
        m = cfg["order"]["m"]
        vectors = cfg["directions"]["vectors"]
        rows = read_rows(op.out)
        points = [(float(row["state_param"]), int(row["realization"])) for row in rows]
        if points != [(r, real) for r in self.R_GRID for real in range(self.REALIZATIONS)]:
            raise CheckError("deviation rows do not cover its (R, realization) grid in order")
        tables = {}
        for row in rows:
            real, r = int(row["realization"]), float(row["state_param"])
            if real not in tables:
                tables[real] = _s_table(cfg["seed"], real, CLOUD_N, vectors, m)
            s = tables[real]
            p, c, f = pulse_moments(r)
            c2 = abs(c) ** 2
            inten = [f * CLOUD_N + c2 * abs(s[1 << j]) ** 2 for j in range(2 * m)]
            g_raw, g_mag = correlator_G(s, m, m, quantum_moment(p, c))
            g_exact = normalized(g_raw, inten)
            scale = max(normalized(g_mag, inten), abs(g_exact))

            def g1(i, j):
                return (f * s[1 << i | 1 << j] + c2 * s[1 << i] * s[1 << j]) / math.sqrt(
                    inten[i] * inten[j])

            def s_of(minus, plus):
                return s[sum(1 << i for i in minus + plus)]

            g_gmt = gmt_pair_sum(g1, m)
            delta_n = delta_n_closed_form(s_of, CLOUD_N, m)
            scale = max(scale, abs(g_gmt))
            tol = REL_TOL * scale
            where = f"deviation m={m} R={r:.3g} realization {real}"
            expect_close(f"{where} g_exact", cell(row, "g_exact"), g_exact, tol)
            expect_close(f"{where} g_gmt", cell(row, "g_gmt"), g_gmt, tol)
            expect_close(f"{where} delta_n", cell(row, "delta_n"), delta_n, tol)
            expect_close(f"{where} delta_total", cell(row, "delta_total"), g_gmt - g_exact, tol)
            expect_close(f"{where} delta_coh", cell(row, "delta_coh"),
                         g_gmt - g_exact - delta_n, tol)
            expect_close(f"{where} epsilon", float(row["epsilon"]),
                         math.factorial(m) * math.sqrt(r), REL_TOL * math.sqrt(r))
            for stem, (lhs, rhs) in condition_margins(CLOUD_N, m, m, r).items():
                expect_close(f"{where} {stem}", float(row[f"{stem}_ratio"]), lhs / rhs,
                             1e-9 * lhs / rhs)
        return True

    def final_check(self, run_op):
        """Fresh threads = 1 and threads = 2 runs of the first round must match byte for byte."""
        compared = 0
        for m in (2, 3):
            cfg = self._config(0, self.ORDERS.index(m))
            outputs = []
            for threads in (1, 2):
                op = self.op_for(cfg, threads)
                if run_op(op) != 0:
                    raise CheckError(f"deviation threads={threads} exited non-zero")
                with open(op.out, "rb") as fh:
                    outputs.append(fh.read())
            if outputs[0] != outputs[1]:
                raise CheckError(f"deviation CSV (m={m}) differs between 1 and 2 threads")
            compared += 1
        return {"thread_invariance_configs": compared}


# ------------------------------------------------------------ classical


class ClassicalGeneral(Workload):
    """``classical`` at distinct directions with the exact path and Monte Carlo.

    Each round runs a (2,2), a (2,1) and a second (2,2) config, each on its own
    seeded cloud, directions and pair of coherence ratios.
    """

    name = "classical-general"
    threads = 1
    N_ATOMS = 2000
    SAMPLES = 4000
    ORDERS = ((2, 2), (2, 1), (2, 2))
    MC_SIGMAS = 5.0

    def _config(self, index: int, slot: int) -> dict:
        m, n = self.ORDERS[slot]
        seed = derive_seed(self.seed, index + 1, slot)
        rng = np.random.default_rng(seed)
        ratios = [float(10 ** rng.uniform(-2, -1)), float(10 ** rng.uniform(-0.5, 0.5))]
        return {
            "state": {"kind": "classical", "e_coh_re": 0.0, "e_incoh": 1.0},
            "ensemble": {"n": self.N_ATOMS},
            "order": {"m": m, "n": n},
            "directions": {"vectors": unit_vectors(rng, m + n)},
            "sweep": {"r_grid": ratios},
            "samples": self.SAMPLES,
            "seed": seed,
        }

    def round_ops(self, index):
        ops = []
        for slot in range(len(self.ORDERS)):
            cfg = self._config(index, slot)
            out = self.fresh(".csv")
            argv = ["classical", "--config", self.write_json(cfg), "--threads",
                    str(self.threads), "--out", out]
            ops.append(Op("classical", argv, out, {"cfg": cfg}))
        return ops

    def check(self, op):
        from references import classical_moment, correlator_G, normalized

        cfg = op.meta["cfg"]
        m, n = cfg["order"]["m"], cfg["order"]["n"]
        rows = read_rows(op.out)
        if len(rows) != len(cfg["sweep"]["r_grid"]):
            raise CheckError(f"classical wrote {len(rows)} rows")
        s = _s_table(cfg["seed"], 0, self.N_ATOMS, cfg["directions"]["vectors"], m)
        for row, r in zip(rows, cfg["sweep"]["r_grid"]):
            e_coh = math.sqrt(r)
            inten = [self.N_ATOMS + e_coh**2 * abs(s[1 << j]) ** 2 for j in range(m + n)]
            g_raw, g_mag = correlator_G(s, m, n, classical_moment(e_coh, 1.0))
            g = normalized(g_raw, inten)
            where = f"classical ({m},{n}) R={r:.3g}"
            tol = REL_TOL * max(normalized(g_mag, inten), abs(g))
            expect_close(f"{where} g", cell(row, "g"), g, tol)
            if int(row["samples"]) != self.SAMPLES:
                raise CheckError(f"{where}: {row['samples']} Monte Carlo samples")
            se = float(row["mc_se"])
            if not se > 0.0:
                raise CheckError(f"{where}: Monte Carlo standard error {se}")
            expect_close(f"{where} Monte Carlo", cell(row, "mc"), g, self.MC_SIGMAS * se)
        return True


# --------------------------------------------------------- forward closed


class ForwardClosed(Workload):
    """``figure fig1``, ``fig2``, ``fig4`` at their defaults and ``conditions`` sweeps.

    No cloud and no kernel: exact-integer closed forms plus CSV output.  Each
    round repeats the four operations 24 times; the conditions sweeps cycle
    through four orders and draw their (N, R) grids from the seed.
    """

    name = "forward-closed"
    threads = 1
    REPEATS = 24
    CONDITION_ORDERS = ((2, 2), (3, 3), (2, 1), (3, 1))

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self._verified = {}

    def round_ops(self, index):
        ops = []
        for rep in range(self.REPEATS):
            for fig in ("fig1", "fig2", "fig4"):
                out = self.fresh(".csv")
                ops.append(Op(fig, ["figure", fig, "--out", out], out))
            m, n = self.CONDITION_ORDERS[rep % len(self.CONDITION_ORDERS)]
            rng = np.random.default_rng(derive_seed(self.seed, index + 1, rep))
            cfg = {
                "order": {"m": m, "n": n},
                "ensemble": {"n": 100},
                "sweep": {
                    "n_grid": sorted(int(v) for v in rng.integers(10, 100_001, size=8)),
                    "r_grid": sorted(float(v) for v in 10 ** rng.uniform(-10, -1, size=8)),
                },
            }
            out = self.fresh(".csv")
            argv = ["conditions", "--config", self.write_json(cfg), "--out", out]
            ops.append(Op("conditions", argv, out, {"cfg": cfg}))
        return ops

    def check(self, op):
        if op.kind == "conditions":
            return self._check_conditions(op)
        with open(op.out, "rb") as fh:
            data = fh.read()
        if op.kind not in self._verified:
            getattr(self, f"_check_{op.kind}")(read_rows(op.out))
            self._verified[op.kind] = data
        elif data != self._verified[op.kind]:
            raise CheckError(f"{op.kind} output differs between identical runs")
        return True

    @staticmethod
    def _rel(what, got, want, tol=REL_TOL):
        expect_close(what, got, want, tol * abs(want))

    def _check_fig1(self, rows):
        from references import forward_g2

        if len(rows) != 17 * 21:
            raise CheckError(f"fig1 wrote {len(rows)} rows")
        for row in rows:
            nat, r = int(row["n_atoms"]), float(row["ratio"])
            self._rel(f"fig1 g2 N={nat} R={r:.3g}", float(row["g2"]), forward_g2(nat, r))
            self._rel("fig1 (NR)^2", float(row["nr_squared"]), (nat * r) ** 2, 1e-12)

    def _check_fig2(self, rows):
        from references import forward_g

        if len(rows) != 2 * 121:
            raise CheckError(f"fig2 wrote {len(rows)} rows")
        g_zero = {}
        for row in rows:
            m, nat, r = int(row["m"]), int(row["n_atoms"]), float(row["ratio"])
            if m not in g_zero:
                g_zero[m] = forward_g(nat, m, m, 0.0)
            want = float(abs(g_zero[m] - forward_g(nat, m, m, r)))
            self._rel(f"fig2 m={m} R={r:.3g}", float(row["delta_coh_abs"]), want)
            fact = math.factorial(m) * m * (m - 1)
            self._rel("fig2 linear term", float(row["linear_term"]), fact * r, 1e-12)
            self._rel("fig2 quadratic term", float(row["quadratic_term"]),
                      0.25 * fact * nat**2 * r**2, 1e-12)
            self._rel("fig2 crossover", float(row["crossover_ratio"]), 4.0 / nat**2, 1e-12)

    def _check_fig4(self, rows):
        from references import forward_g, forward_g21

        if len(rows) != 3 * 81:
            raise CheckError(f"fig4 wrote {len(rows)} rows")
        leading = {(2, 1): lambda nat, r: 2.0 * math.sqrt(nat * r),
                   (3, 1): lambda nat, r: 3.0 * nat * r,
                   (3, 2): lambda nat, r: 6.0 * math.sqrt(nat * r)}
        for row in rows:
            m, n, nat, r = int(row["m"]), int(row["n"]), int(row["n_atoms"]), float(row["ratio"])
            want = forward_g21(nat, r) if (m, n) == (2, 1) else float(forward_g(nat, m, n, r))
            self._rel(f"fig4 ({m},{n}) R={r:.3g}", float(row["g_abs"]), want)
            self._rel("fig4 leading term", float(row["leading_pred"]), leading[m, n](nat, r), 1e-12)

    def _check_conditions(self, op):
        from references import condition_margins

        cfg = op.meta["cfg"]
        m, n = cfg["order"]["m"], cfg["order"]["n"]
        rows = read_rows(op.out)
        grid = [(nat, r) for nat in cfg["sweep"]["n_grid"] for r in cfg["sweep"]["r_grid"]]
        if len(rows) != len(grid):
            raise CheckError(f"conditions wrote {len(rows)} rows")
        for row, (nat, r) in zip(rows, grid):
            if int(row["n_atoms"]) != nat or float(row["ratio"]) != r:
                raise CheckError(f"conditions row order: {row['n_atoms']}, {row['ratio']}")
            flagged = False
            for stem, (lhs, rhs) in condition_margins(nat, m, n, r).items():
                where = f"conditions ({m},{n}) N={nat} R={r:.3g} {stem}"
                self._rel(f"{where} lhs", float(row[f"{stem}_lhs"]), lhs, 1e-12)
                self._rel(f"{where} rhs", float(row[f"{stem}_rhs"]), rhs, 1e-12)
                self._rel(f"{where} ratio", float(row[f"{stem}_ratio"]), lhs / rhs, 1e-12)
                flagged |= lhs / rhs >= 0.1
            if (row["flagged"] == "true") != flagged:
                raise CheckError(f"conditions ({m},{n}) N={nat} R={r:.3g} flagged={row['flagged']}")
        return True


WORKLOADS = {w.name: w for w in (Fig3Offaxis, DeviationGeneral, ClassicalGeneral, ForwardClosed)}
