"""Config validation, sweep runners, CSV contracts, CLI exit codes."""

import csv
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import photonstat
from photonstat.cli import main
from photonstat.config import ResultTable, ScenarioConfig, format_cell
from photonstat.ensemble import random_cloud
from photonstat.errors import ConfigError
from photonstat.figures import (
    run_classical,
    run_conditions,
    run_correlate,
    run_deviation,
    run_figure,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "state": {"kind": "pulse", "theta": math.pi},
    "ensemble": {"n": 4, "seed": 1},
    "order": {"m": 2, "n": 2},
    "directions": {"preset": "forward"},
}


class TestScenarioConfig:
    def test_minimal_valid(self):
        cfg = ScenarioConfig.from_dict(dict(BASE))
        assert cfg.order.m == 2
        assert cfg.realizations == 1

    def test_missing_theta(self):
        bad = dict(BASE, state={"kind": "pulse"})
        with pytest.raises(ConfigError, match="state.theta"):
            ScenarioConfig.from_dict(bad)

    def test_bad_preset(self):
        bad = dict(BASE, directions={"preset": "sideways"})
        with pytest.raises(ConfigError, match="directions.preset"):
            ScenarioConfig.from_dict(bad)

    def test_empty_sweep_axis(self):
        bad = dict(BASE, sweep={"n_grid": []})
        with pytest.raises(ConfigError, match="sweep.n_grid"):
            ScenarioConfig.from_dict(bad)

    def test_two_state_axes(self):
        bad = dict(BASE, sweep={"r_grid": [0.1], "s_grid": [1.0]})
        with pytest.raises(ConfigError, match="at most one state axis"):
            ScenarioConfig.from_dict(bad)

    def test_vector_count_checked(self):
        bad = dict(BASE, directions={"vectors": [[0, 0, 0]] * 3})
        with pytest.raises(ConfigError, match="directions.vectors"):
            ScenarioConfig.from_dict(bad)

    def test_zero_realizations(self):
        bad = dict(BASE, realizations=0)
        with pytest.raises(ConfigError, match="realizations"):
            ScenarioConfig.from_dict(bad)

    def test_ensemble_seed_used(self):
        assert ScenarioConfig.from_dict(dict(BASE)).seed == 1
        assert ScenarioConfig.from_dict(dict(BASE, ensemble={"n": 4}, seed=5)).seed == 5
        assert ScenarioConfig.from_dict(dict(BASE, ensemble={"n": 4})).seed == 0

    def test_equal_seeds_accepted(self):
        assert ScenarioConfig.from_dict(dict(BASE, seed=1)).seed == 1

    def test_conflicting_seeds_rejected(self):
        with pytest.raises(ConfigError, match="ensemble.seed"):
            ScenarioConfig.from_dict(dict(BASE, seed=2))

    @pytest.mark.parametrize("value", [True, 2.5, float("inf"), float("nan"), "two"])
    def test_non_integer_counts_rejected(self, value):
        with pytest.raises(ConfigError, match="realizations: expected integer"):
            ScenarioConfig.from_dict(dict(BASE, realizations=value))

    @pytest.mark.parametrize(
        "payload, field",
        [({"seed": False}, "seed"), ({"sweep": {"n_grid": [True, 2]}}, "sweep.n_grid"),
         ({"sweep": {"r_grid": [True]}}, "sweep.r_grid")],
    )
    def test_bools_rejected(self, payload, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.from_dict(dict(BASE, ensemble={"n": 4}, **payload))

    def test_integral_float_counts_accepted(self):
        cfg = ScenarioConfig.from_dict(dict(BASE, realizations=3.0, samples=1e4))
        assert (cfg.realizations, cfg.samples) == (3, 10_000)


class TestResultTable:
    def test_csv_quoting_and_floats(self):
        table = ResultTable(columns=["name", "value"])
        table.append(name='needs,"quoting"', value=0.1)
        text = table.to_csv_text()
        assert text == 'name,value\n"needs,""quoting""",0.1\n'

    def test_format_cell(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "true"
        assert format_cell(np.float64(1.5)) == "1.5"
        assert format_cell(2.0000000000000004) == "2.0000000000000004"
        assert format_cell(7) == "7"


class TestRunners:
    def test_correlate_inverted_n_sweep(self):
        cfg = ScenarioConfig.from_dict(dict(BASE, sweep={"n_grid": [2, 4, 8]}))
        table, _ = run_correlate(cfg)
        assert table.column("g_re") == pytest.approx([1.0, 1.5, 1.75], rel=1e-12)
        assert table.column("method") == ["forward-closed-form"] * 3

    def test_correlate_dark_state_flagged(self):
        cfg = ScenarioConfig.from_dict(
            dict(BASE, state={"kind": "pulse", "theta": 0.0})
        )
        table, _ = run_correlate(cfg)
        assert table.column("status") == ["dark-state"]
        assert table.column("g_re") == [None]

    def test_correlate_validate_appends_oracle(self):
        cfg = ScenarioConfig.from_dict(
            dict(
                BASE,
                state={"kind": "pulse", "theta": 1.2},
                ensemble={"n": 5, "seed": 2},
                directions={"preset": "off-axis"},
            )
        )
        plain, _ = run_correlate(cfg, validate=False)
        checked, summary = run_correlate(cfg, validate=True)
        assert plain.column("g_re") == checked.column("g_re")
        assert summary["max_rel_discrepancy"] is not None
        assert summary["max_rel_discrepancy"] < 1e-10

    def test_classical_forward_values(self):
        cfg = ScenarioConfig.from_dict(
            dict(
                BASE,
                state={"kind": "classical", "e_incoh": 1.0},
                sweep={"n_grid": [5, 30]},
            )
        )
        table, _ = run_classical(cfg)
        assert table.column("g_re") == pytest.approx([1.8, 2.0 - 1.0 / 30], rel=1e-12)

    def test_classical_mc_column(self):
        cfg = ScenarioConfig.from_dict(
            dict(
                BASE,
                state={"kind": "classical", "e_incoh": 1.0, "e_coh_re": 0.3},
                ensemble={"n": 3, "seed": 4},
                samples=20_000,
            )
        )
        table, _ = run_classical(cfg)
        (mc,) = table.column("mc_re")
        (g,) = table.column("g_re")
        (se,) = table.column("mc_se")
        assert abs(mc - g) <= 4 * se

    def test_forward_correlate_builds_no_cloud(self, monkeypatch):
        import photonstat.figures as figures

        calls = []

        def counting_cloud(n, *args, **kwargs):
            calls.append(n)
            assert n <= 10**6, "a forward row must not build its cloud"
            return random_cloud(n, *args, **kwargs)

        monkeypatch.setattr(figures, "random_cloud", counting_cloud)
        cfg = ScenarioConfig.from_dict(dict(BASE, sweep={"n_grid": [10, 20000]}))
        table, _ = run_correlate(cfg)
        assert calls == []
        assert table.column("method") == ["forward-closed-form"] * 2
        # a forward deviation row at N = 10^9 would need a 22 GiB cloud
        big = dict(BASE, ensemble={"n": 10**9, "seed": 1}, state={"kind": "pulse", "theta": 1.0})
        table, _ = run_deviation(ScenarioConfig.from_dict(big))
        assert calls == []
        assert table.column("status") == ["ok"]
        (delta_n,) = table.column("delta_n_re")
        assert delta_n == pytest.approx(2e-9, rel=1e-12)
        off_axis = dict(BASE, directions={"preset": "off-axis"}, sweep={"n_grid": [10]})
        run_correlate(ScenarioConfig.from_dict(off_axis))
        assert len(calls) == 1

    def test_deviation_runner(self):
        cfg = ScenarioConfig.from_dict(dict(BASE, ensemble={"n": 100, "seed": 3}))
        table, _ = run_deviation(cfg)
        (delta,) = table.column("delta_total_re")
        assert delta == pytest.approx(2.0 / 100, rel=1e-9)
        (flagged,) = table.column("flagged")
        assert not flagged

    def test_conditions_runner(self):
        cfg = ScenarioConfig.from_dict(
            dict(
                BASE,
                order={"m": 4, "n": 4},
                ensemble={"n": 10_000, "seed": 0},
                state={"kind": "pulse", "theta": math.pi},
            )
        )
        table, _ = run_conditions(cfg)
        (lhs,) = table.column("finite_n_lhs")
        assert lhs == pytest.approx(math.factorial(4) * 12 / 2e4, rel=1e-12)
        assert lhs == pytest.approx(1.44e-2, rel=1e-10)

    def test_conditions_short_circuit_note(self):
        cfg = ScenarioConfig.from_dict(
            dict(BASE, order={"m": 5, "n": 5}, ensemble={"n": 3, "seed": 0})
        )
        table, _ = run_conditions(cfg)
        assert "m > N" in table.column("note")[0]

    @pytest.mark.parametrize("m, n, flagged", [(3, 1, False), (3, 3, True)])
    def test_conditions_order_above_atom_count(self, tmp_path, m, n, flagged):
        # g = 0 exactly: m = n misses g_GMT = m!, m != n matches g_GMT = 0
        cfg = write_config(
            tmp_path,
            {"order": {"m": m, "n": n}, "ensemble": {"n": 2}, "sweep": {"r_grid": [0.01]}},
        )
        out = tmp_path / "conditions.csv"
        assert main(["conditions", "--config", str(cfg), "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["note"] == "g=0 short-circuit: m > N"
        assert row["flagged"] == ("true" if flagged else "false")
        margins = [c for c in row if c.endswith(("_lhs", "_rhs", "_ratio"))]
        assert len(margins) == 12
        assert all(row[c] == "" for c in margins)

    def test_unequal_condition_rhs(self):
        cfg = ScenarioConfig.from_dict(
            dict(
                BASE,
                order={"m": 2, "n": 1},
                ensemble={"n": 10_000, "seed": 0},
                state={"kind": "driven", "s": 100.0},
            )
        )
        table, _ = run_conditions(cfg)
        (rhs,) = table.column("spin_sqrt_rhs")
        assert rhs == pytest.approx(5e-3, rel=1e-3)


class TestFigures:
    def test_fig1_columns(self):
        table, meta = run_figure(
            "fig1", overrides={"n_grid": [100], "r_inv_grid": [1.0, 10.0]}
        )
        assert meta["figure"] == "fig1"
        assert len(table.rows) == 2
        g2 = table.column("g2")
        assert all(0.0 < v < 2.0 for v in g2)

    def test_fig2_slopes(self):
        r_inv = list(np.geomspace(1e5, 1e7, 21))
        table, _ = run_figure("fig2", overrides={"r_inv_grid": r_inv})
        rows = [
            (r, d)
            for m, r, d in zip(
                table.column("m"), table.column("ratio"), table.column("delta_coh_abs")
            )
            if m == 2
        ]
        xs = np.log([r for r, _ in rows])
        ys = np.log([d for _, d in rows])
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_fig4_reference_columns(self):
        table, _ = run_figure("fig4", overrides={"r_inv_grid": [1e8]})
        for m, n, g_abs, pred in zip(
            table.column("m"), table.column("n"), table.column("g_abs"),
            table.column("leading_pred"),
        ):
            assert g_abs == pytest.approx(pred, rel=0.05)

    def test_fig3_thread_count_invariance(self):
        kwargs = dict(
            overrides={"r_inv_grid": [1e4], "n": 200},
            seed=7,
            realizations=8,
        )
        t1, _ = run_figure("fig3", threads=1, **kwargs)
        t4, _ = run_figure("fig3", threads=4, **kwargs)
        assert t1.to_csv_text() == t4.to_csv_text()

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            run_figure("fig9")

    def test_fig3_method_names_power_sums(self):
        table, _ = run_figure(
            "fig3", overrides={"r_inv_grid": [1e4], "n": 50}, seed=7, realizations=2
        )
        assert table.columns[-1] == "method"
        assert table.column("method") == ["power-sum"] * 2

    @pytest.mark.parametrize(
        "figure_id, overrides, field",
        [
            ("fig1", {"n_grid": [0]}, "n_grid"),
            ("fig3", {"r_inv_grid": [0.0]}, "r_inv_grid"),
            ("fig3", {"m_values": [0]}, "m_values"),
            ("fig2", {"n": "many"}, "n"),
            ("fig4", {"orders": [[1, -1]]}, "orders"),
            ("fig4", {"orders": [[2, 2]]}, "orders"),
            ("fig4", {"orders": [2, 1]}, "orders"),
            ("fig4", {"orders": []}, "orders"),
            ("fig4", {"orders": [[3, 1, 2]]}, "orders"),
            ("fig4", {"orders": [["three", 1]]}, "orders"),
        ],
    )
    def test_out_of_range_overrides_rejected(self, figure_id, overrides, field):
        with pytest.raises(ConfigError, match=field):
            run_figure(figure_id, overrides=overrides)

    def test_zero_realizations_rejected(self):
        with pytest.raises(ConfigError, match="realizations"):
            run_figure("fig3", overrides={"n": 20}, realizations=0)


class TestCliProcess:
    def test_correlate_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, sweep={"n_grid": [2, 4, 8]}))
        out = tmp_path / "out.csv"
        code = main(["correlate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("n_atoms,")
        sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert sidecar["tool"] == "photonstat"
        assert sidecar["config"]["order"] == {"m": 2, "n": 2}

    def test_sidecar_records_engine_and_versions(self, tmp_path):
        import platform

        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out.csv"
        assert main(["correlate", "--config", str(cfg), "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert sidecar["engine"] == "numpy"
        assert sidecar["python"] == platform.python_version()
        assert sidecar["numpy"] == np.__version__

    @pytest.mark.parametrize("command", ["correlate", "deviation"])
    def test_faint_state_rows_match_bright(self, tmp_path, command):
        # with c = 0 the state enters g only through its scale, so p = 1e-200
        # must give the p = 0.5 values, oracle columns included; p = 0 is dark
        flags = ["--validate"] if command == "correlate" else []
        for preset in ("off-axis", "forward"):
            rows = {}
            for p in (0.5, 1e-200, 0.0):
                cfg = write_config(
                    tmp_path,
                    dict(
                        BASE,
                        state={"kind": "moments", "p": p},
                        directions={"preset": preset},
                        sweep={"n_grid": [4]},
                    ),
                )
                out = tmp_path / f"{command}-{preset}-{p}.csv"
                assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
                (rows[p],) = read_csv(out)
            assert rows[1e-200]["status"] == rows[0.5]["status"] == "ok"
            assert rows[0.0]["status"] == "dark-state"
            value_columns = [
                c for c in rows[0.5] if c.startswith(("g_", "delta_", "oracle_"))
            ]
            assert len(value_columns) >= (5 if flags else 3)
            for column in value_columns:
                assert float(rows[1e-200][column]) == pytest.approx(
                    float(rows[0.5][column]), rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize("preset", ["forward", "off-axis"])
    def test_faint_classical_rows_match_bright(self, tmp_path, preset):
        # amplitudes 1e-201 and 1e-200 have the ratio and every normalized
        # value of 0.1 and 1, the Monte Carlo columns included
        rows = []
        for e_coh, e_incoh in ((0.1, 1.0), (1e-201, 1e-200)):
            state = {"kind": "classical", "e_coh_re": e_coh, "e_incoh": e_incoh}
            cfg = write_config(
                tmp_path,
                dict(BASE, state=state, directions={"preset": preset}, samples=200),
            )
            out = tmp_path / f"cl-{e_incoh}.csv"
            assert main(["classical", "--config", str(cfg), "--out", str(out)]) == 0
            rows += read_csv(out)
        bright, faint = rows
        assert faint["status"] == bright["status"] == "ok"
        for column in ("ratio", "g_re", "g_im", "g_abs", "mc_re", "mc_im", "mc_se"):
            assert float(faint[column]) == pytest.approx(
                float(bright[column]), rel=1e-12, abs=1e-12
            )
        assert float(faint["ratio"]) == pytest.approx(0.01, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (
                ["correlate"],
                dict(BASE, ensemble={"n": 10**9, "seed": 1}, order={"m": 20, "n": 20},
                     state={"kind": "pulse", "theta": 1.0}),
            ),
            (
                ["deviation"],
                dict(BASE, ensemble={"n": 10**9, "seed": 1}, order={"m": 20, "n": 20},
                     state={"kind": "pulse", "theta": 1.0}),
            ),
            (["figure", "fig2"], {"m_values": [40]}),
        ],
        ids=["correlate", "deviation", "fig2"],
    )
    def test_closed_form_out_of_float_range_exit_3(self, tmp_path, capsys, argv, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "float range" in err
        assert ("N = 1000000000, m = 20" in err) or ("N = 10000, m = 40" in err)

    @pytest.mark.parametrize(
        "figure_id, overrides",
        [
            # m > N: delta_coh is exactly 0, but m! m (m - 1) R is no float
            ("fig2", {"n": 5, "m_values": [171]}),
            ("fig4", {"orders": [[171, 0]], "r_inv_grid": [1e8]}),
            ("fig4", {"orders": [[2, 1], [300, 299]], "r_inv_grid": [1e8]}),
        ],
        ids=["fig2-m-above-n", "fig4-even-gap", "fig4-odd-gap"],
    )
    def test_figure_order_out_of_float_range_exit_3(self, tmp_path, capsys, figure_id, overrides):
        cfg = write_config(tmp_path, overrides, name=f"{figure_id}.json")
        out = tmp_path / "out.csv"
        assert main(["figure", figure_id, "--config", str(cfg), "--out", str(out)]) == 3
        assert "leaves the float range" in capsys.readouterr().err

    def test_fig4_any_unequal_order(self, tmp_path):
        orders = [[1, 0], [0, 2], [5, 2], [1, 3]]
        cfg = write_config(tmp_path, {"orders": orders, "r_inv_grid": [1e8]}, name="fig4.json")
        out = tmp_path / "fig4.csv"
        assert main(["figure", "fig4", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [[int(row["m"]), int(row["n"])] for row in rows] == orders
        for row in rows:
            assert float(row["g_abs"]) == pytest.approx(float(row["leading_pred"]), rel=0.05)

    def test_conditions_huge_order_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"order": {"m": 200, "n": 200}, "ensemble": {"n": 100_000}})
        out = tmp_path / "out.csv"
        assert main(["conditions", "--config", str(cfg), "--out", str(out)]) == 3
        assert "N = 100000, m = 200 leaves the float range" in capsys.readouterr().err

    def test_forward_correlate_more_slots_than_atoms(self, tmp_path):
        # m + n > N puts a minus and a plus slot on one atom; the oracle agrees
        cfg = write_config(
            tmp_path,
            dict(BASE, state={"kind": "pulse", "theta": 1.2}, ensemble={"n": 3},
                 order={"m": 3, "n": 2}),
        )
        out = tmp_path / "out.csv"
        assert main(["correlate", "--config", str(cfg), "--out", str(out), "--validate"]) == 0
        (row,) = read_csv(out)
        assert row["method"] == "forward-closed-form"
        assert float(row["g_im"]) == pytest.approx(0.2222111162938118, rel=1e-12)
        assert abs(float(row["g_re"])) <= 1e-15
        assert float(row["rel_discrepancy"]) <= 1e-12

    def test_smoke_matrix_exits_cleanly(self, tmp_path):
        # every command, preset, small N and order gives rows or a documented code
        failures = []
        cfg_path, out = tmp_path / "smoke.json", str(tmp_path / "smoke.csv")
        rng = np.random.default_rng(0)
        orders = [(m, n) for m in range(4) for n in range(4) if m + n]
        for (m, n), preset, nat in itertools.product(
            orders, ("forward", "off-axis", "explicit"), (1, 2, 3, 4)
        ):
            directions = (
                {"vectors": rng.normal(size=(m + n, 3)).tolist()}
                if preset == "explicit" else {"preset": preset}
            )
            for command in ("correlate", "deviation", "conditions", "classical"):
                state = (
                    {"kind": "classical", "e_incoh": 1.0, "e_coh_re": 0.3}
                    if command == "classical" else {"kind": "pulse", "theta": 1.2}
                )
                cfg_path.write_text(json.dumps({
                    "state": state, "ensemble": {"n": nat, "seed": 1},
                    "order": {"m": m, "n": n}, "directions": directions,
                }))
                code = main([command, "--config", str(cfg_path), "--out", out])
                if code not in (0, 2, 3):
                    failures.append((command, preset, nat, m, n, code))
        assert failures == []

    @pytest.mark.parametrize("preset", ["forward", "off-axis", "explicit"])
    @pytest.mark.parametrize("command", ["correlate", "deviation", "classical", "conditions"])
    def test_csv_identical_across_threads(self, tmp_path, command, preset):
        order = {"m": 2, "n": 1} if command == "classical" else {"m": 2, "n": 2}
        total = order["m"] + order["n"]
        directions = (
            {"vectors": np.random.default_rng(5).normal(size=(total, 3)).tolist()}
            if preset == "explicit" else {"preset": preset}
        )
        payload = dict(
            BASE, order=order, directions=directions, realizations=3,
            sweep={"n_grid": [3, 40], "r_grid": [1e-6, 1e-2, 3.0]},
        )
        if command == "classical":
            payload.update(state={"kind": "classical", "e_incoh": 1.0}, samples=300)
        cfg = write_config(tmp_path, payload)
        texts = []
        for threads in (1, 2):
            out = tmp_path / f"{command}-{threads}.csv"
            argv = [command, "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
            assert main(argv) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("samples", [1, True, False, 2, 3, 2.5])
    def test_classical_samples_without_two_batches_exit_2(self, tmp_path, capsys, samples):
        # fewer than four samples leave no two batches for a standard error
        payload = dict(BASE, state={"kind": "classical", "e_incoh": 1.0},
                       directions={"preset": "off-axis"}, samples=samples)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        assert main(["classical", "--config", str(cfg), "--out", str(out)]) == 2
        assert "samples" in capsys.readouterr().err
        assert not out.exists()

    def test_classical_fewest_samples_give_an_error_bar(self, tmp_path):
        payload = dict(BASE, state={"kind": "classical", "e_incoh": 1.0},
                       directions={"preset": "off-axis"}, samples=4.0)
        out = tmp_path / "out.csv"
        assert main(["classical", "--config", str(write_config(tmp_path, payload)),
                     "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert (row["samples"], row["batches"]) == ("4", "2")
        assert float(row["mc_se"]) > 0.0

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["figure", "fig4"], {"n": 1, "orders": [[1500, 0]]}),
            (["correlate"], dict(BASE, ensemble={"n": 1}, order={"m": 20000, "n": 0},
                                 state={"kind": "pulse", "theta": 1.5})),
            (["correlate"], dict(BASE, ensemble={"n": 1}, order={"m": 20000, "n": 20000},
                                 state={"kind": "pulse", "theta": 1.5})),
        ],
        ids=["fig4", "correlate-m", "correlate-mn"],
    )
    def test_forward_order_far_above_atom_count(self, tmp_path, argv, payload):
        # the pair-sum table stops at a + b <= N, so these rows cost O(N), not O(m^2)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows and all(float(row["g_abs"]) == 0.0 for row in rows)

    def test_classical_mc_identical_across_blas_threads(self, tmp_path):
        # the matrix product reduces over atoms inside BLAS; its result, and so
        # every CSV byte, must not depend on the BLAS or sweep thread count
        vectors = np.random.default_rng(8).normal(size=(4, 3)).tolist()
        payload = dict(
            BASE, state={"kind": "classical", "e_incoh": 1.0}, ensemble={"n": 2000},
            directions={"vectors": vectors}, sweep={"r_grid": [0.05, 2.0]},
            samples=4000, seed=3,
        )
        cfg = write_config(tmp_path, payload)
        src = os.path.dirname(os.path.dirname(os.path.abspath(photonstat.__file__)))
        texts = {}
        for blas, threads in itertools.product(("1", "2"), ("1", "2")):
            out = tmp_path / f"blas{blas}-threads{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "photonstat.cli", "classical", "--config", str(cfg),
                 "--threads", threads, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            texts[blas, threads] = out.read_bytes()
        assert len(set(texts.values())) == 1
        rows = read_csv(tmp_path / "blas1-threads1.csv")
        assert all(float(row["mc_se"]) > 0.0 for row in rows)

    def test_fig4_unknown_order_exit_2(self, tmp_path, capsys):
        overrides = write_config(tmp_path, {"orders": [[1, -1]]}, name="fig4.json")
        out = tmp_path / "fig4.csv"
        assert main(["figure", "fig4", "--config", str(overrides), "--out", str(out)]) == 2
        assert "orders" in capsys.readouterr().err

    def test_config_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE, directions={"preset": "bogus"}))
        assert main(["correlate", "--config", str(cfg)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["correlate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_capacity_error_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            dict(BASE, order={"m": 5, "n": 5}, directions={"preset": "off-axis"}),
        )
        assert main(["correlate", "--config", str(cfg)]) == 3

    def test_validation_failure_exit_4(self, tmp_path, monkeypatch):
        import photonstat.cli as cli

        def rigged(cfg, validate=False, threads=1):
            table, summary = run_correlate(cfg, validate=validate, threads=threads)
            summary["max_rel_discrepancy"] = 1e-3
            return table, summary

        monkeypatch.setattr(cli, "run_correlate", rigged)
        cfg = write_config(tmp_path, dict(BASE))
        out = tmp_path / "v.csv"
        code = main(["correlate", "--config", str(cfg), "--validate", "--out", str(out)])
        assert code == 4
        assert out.exists()  # primary columns still written

    def test_figure_determinism_across_threads(self, tmp_path):
        fig_cfg = write_config(tmp_path, {"r_inv_grid": [1e4], "n": 150}, "fig.json")
        outs = []
        for threads, name in [(1, "a.csv"), (4, "b.csv"), (1, "c.csv")]:
            out = tmp_path / name
            code = main([
                "figure", "fig3", "--config", str(fig_cfg), "--seed", "7",
                "--realizations", "6", "--threads", str(threads),
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_parser_built_once(self):
        from photonstat.cli import build_parser

        assert build_parser() is build_parser()

    def test_theta_out_of_range_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, sweep={"theta_grid": [4.0]}))
        assert main(["deviation", "--config", str(cfg)]) == 2
        assert "sweep.theta_grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep", [{"s_grid": [0.0]}, {"r_grid": [-1.0]}, {"r_grid": [float("inf")]}]
    )
    def test_state_axis_out_of_range_exit_2(self, tmp_path, sweep):
        cfg = write_config(tmp_path, dict(BASE, sweep=sweep))
        assert main(["correlate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "state",
        [{"kind": "pulse", "theta": 4.0}, {"kind": "moments", "p": 0.5, "c_re": 0.9}],
    )
    def test_out_of_range_state_exit_2(self, tmp_path, capsys, state):
        cfg = write_config(tmp_path, dict(BASE, state=state))
        assert main(["deviation", "--config", str(cfg)]) == 2
        assert "state" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["correlate", "deviation", "conditions"])
    def test_classical_state_in_quantum_command_exit_2(self, tmp_path, command):
        # on every state axis: a sweep must not swap in a two-level state
        state = {"kind": "classical", "e_incoh": 1.0}
        for sweep in ({}, {"r_grid": [0.1]}, {"theta_grid": [1.2]}, {"s_grid": [0.5]}):
            cfg = write_config(tmp_path, dict(BASE, state=state, sweep=sweep))
            assert main([command, "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "state", [{"kind": "pulse", "theta": 1.2}, {"kind": "driven", "s": 0.5}]
    )
    def test_quantum_state_in_classical_command_exit_2(self, tmp_path, capsys, state):
        for sweep in ({}, {"r_grid": [0.1]}, {"theta_grid": [1.2]}, {"s_grid": [0.5]}):
            cfg = write_config(tmp_path, dict(BASE, state=state, sweep=sweep))
            assert main(["classical", "--config", str(cfg)]) == 2
        assert "state.kind" in capsys.readouterr().err

    def test_classical_without_state_uses_default_model(self, tmp_path):
        payload = {k: v for k, v in BASE.items() if k != "state"}
        cfg = write_config(tmp_path, dict(payload, sweep={"r_grid": [0.0, 0.5]}))
        out = tmp_path / "cl.csv"
        assert main(["classical", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [float(row["e_incoh"]) for row in rows] == [1.0, 1.0]
        assert float(rows[0]["g_re"]) == pytest.approx(2.0 - 1.0 / 4, rel=1e-12)

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, directions={"preset": "off-axis"}))
        assert main(["correlate", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert main(["figure", "fig1", "--seed", "-1"]) == 2

    def test_fig3_zero_r_inv_exit_2(self, tmp_path, capsys):
        fig_cfg = write_config(tmp_path, {"r_inv_grid": [0.0]}, "fig.json")
        out = tmp_path / "fig3.csv"
        code = main(["figure", "fig3", "--config", str(fig_cfg), "--out", str(out)])
        assert code == 2
        assert "r_inv_grid" in capsys.readouterr().err
        assert not out.exists()

    def test_fig1_zero_atoms_exit_2(self, tmp_path, capsys):
        fig_cfg = write_config(tmp_path, {"n_grid": [0]}, "fig.json")
        out = tmp_path / "fig1.csv"
        code = main(["figure", "fig1", "--config", str(fig_cfg), "--out", str(out)])
        assert code == 2
        assert "n_grid" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_overrides_file_errors_exit_2(self, tmp_path):
        assert main(["figure", "fig1", "--config", str(tmp_path / "nope.json")]) == 2
        not_object = write_config(tmp_path, [1, 2], "list.json")
        assert main(["figure", "fig1", "--config", str(not_object)]) == 2

    def test_conditions_cli(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE, ensemble={"n": 50, "seed": 0}))
        out = tmp_path / "cond.csv"
        assert main(["conditions", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_ensemble_seed_changes_output(self, tmp_path):
        outs = []
        for seed in (1, 2):
            payload = dict(
                BASE,
                state={"kind": "pulse", "theta": 1.2},
                ensemble={"n": 6, "seed": seed},
                directions={"preset": "off-axis", "angle": 0.3},
            )
            cfg = write_config(tmp_path, payload, f"s{seed}.json")
            out = tmp_path / f"s{seed}.csv"
            assert main(["correlate", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] != outs[1]

    def test_seed_flag_overrides_both(self, tmp_path):
        payload = dict(BASE, ensemble={"n": 6, "seed": 3}, seed=3)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o.csv"
        assert main(["correlate", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["seed"] == "9"

    def test_conflicting_seeds_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, seed=8))
        assert main(["correlate", "--config", str(cfg)]) == 2
        assert "ensemble.seed" in capsys.readouterr().err

    def test_deviation_dark_state_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            dict(BASE, ensemble={"n": 20, "seed": 0}, sweep={"theta_grid": [0.0, 1.0, math.pi]}),
        )
        out = tmp_path / "dev.csv"
        assert main(["deviation", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row["status"] for row in rows] == ["dark-state", "ok", "ok"]
        assert rows[0]["state_kind"] == "pulse"
        assert rows[0]["g_exact_re"] == ""
        assert float(rows[2]["delta_total_re"]) == pytest.approx(2.0 / 20, rel=1e-9)

    @pytest.mark.parametrize("preset", ["forward", "off-axis"])
    def test_classical_dark_state_rows(self, tmp_path, preset):
        cfg = write_config(
            tmp_path,
            dict(
                BASE,
                state={"kind": "classical", "e_coh_re": 0.0, "e_incoh": 0.0},
                directions={"preset": preset},
                sweep={"n_grid": [3, 5]},
                samples=100,
            ),
        )
        out = tmp_path / "cl.csv"
        assert main(["classical", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row["n_atoms"] for row in rows] == ["3", "5"]
        assert [row["status"] for row in rows] == ["dark-state"] * 2
        assert all(row["g_re"] == "" for row in rows)

    def test_deviation_s_grid_labelled_driven(self, tmp_path):
        cfg = write_config(
            tmp_path,
            dict(BASE, ensemble={"n": 20, "seed": 0}, sweep={"s_grid": [0.5, 2.0]}),
        )
        for command in ("deviation", "correlate"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            rows = read_csv(out)
            assert [row["state_kind"] for row in rows] == ["driven", "driven"]
            assert [float(row["state_param"]) for row in rows] == [0.5, 2.0]

    def test_r_grid_labelled_by_evaluated_state(self, tmp_path):
        payload = dict(
            BASE,
            state={"kind": "moments", "p": 0.5, "c_re": 0.1},
            ensemble={"n": 20, "seed": 0},
            sweep={"r_grid": [0.1]},
        )
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "dev.csv"
        assert main(["deviation", "--config", str(cfg), "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["state_kind"] == "pulse"
        assert float(row["ratio"]) == pytest.approx(0.1, rel=1e-12)

    def test_classical_cli(self, tmp_path):
        cfg = write_config(
            tmp_path,
            dict(BASE, state={"kind": "classical", "e_incoh": 1.0}),
        )
        out = tmp_path / "cl.csv"
        assert main(["classical", "--config", str(cfg), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert "g_re" in header.split(",")
