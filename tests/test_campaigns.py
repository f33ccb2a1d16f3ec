import json
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from qfisher import campaigns
from qfisher.campaigns import (
    CampaignConfig,
    bounds_curve,
    run_bound_entangled_scan,
    run_campaign,
    run_table2,
    run_table3,
    sweep_p,
    analyze,
    run_phase_sim,
)
from qfisher.cli import main
from qfisher.core import mix_with_identity
from qfisher.criteria import evaluate
from qfisher.zoo import parse_state_spec, plus_state


class TestTable2:
    def test_counts_deterministic_and_worker_independent(self):
        a = run_table2(samples=3000, seed=7, workers=1)
        b = run_table2(samples=3000, seed=7, workers=2)
        assert [(r.name, r.detected) for r in a] == [(r.name, r.detected) for r in b]

    def test_row_shape(self):
        rows = run_table2(samples=500, seed=0)
        names = [r.name for r in rows]
        assert names == ["fq_2", "fq_avg_2", "fq_3", "fq_avg_3", "dme", "dme_family", "witness"]
        for r in rows:
            assert 0 <= r.detected <= r.samples
            assert 0.0 <= r.percent <= 100.0

    def test_witness_is_rarest(self):
        rows = {r.name: r.percent for r in run_table2(samples=4000, seed=1)}
        assert rows["witness"] < min(v for k, v in rows.items() if k != "witness")

    def test_local_mode_adds_rows_and_dominates(self):
        rows = {r.name: r for r in run_table2(samples=60, seed=2, mode="local")}
        assert rows["fq_2_local"].detected >= rows["fq_2"].detected
        assert rows["fq_3_local"].detected >= rows["fq_3"].detected
        assert rows["witness_opt"].detected >= rows["witness"].detected

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_table2(samples=10, seed=0, mode="sideways")


class TestTable3:
    def test_ordering_and_mode_drop(self):
        first = {r.name: r.percent for r in run_table3(samples=6000, seed=0, mode="dme")}
        second = {r.name: r.percent for r in run_table3(samples=6000, seed=0, mode="dme_family")}
        assert first["witness"] > first["fq_3"] > first["fq_avg_3"]
        assert all(second[k] < first[k] for k in first)

    def test_worker_independence(self):
        a = run_table3(samples=2000, seed=5, workers=1)
        b = run_table3(samples=2000, seed=5, workers=2)
        assert [(r.name, r.detected) for r in a] == [(r.name, r.detected) for r in b]

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_table3(samples=10, seed=0, mode="dme_violating")

    def test_chunk_working_set(self):
        # the rejection sampler runs its streams in blocks; unblocked it
        # lifted this peak from about 17.4 to 24.8 MB
        campaigns._table3_chunk(0, 16, 0, "dme_violating")
        tracemalloc.start()
        try:
            campaigns._table3_chunk(0, campaigns.CHUNK_SIZE, 0, "dme_violating")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 18e6


class TestBoundEntangledScan:
    def test_all_ppt_none_detected(self):
        rows = {r.name: r for r in run_bound_entangled_scan(samples=2000, seed=0)}
        assert rows["ppt_all_cuts"].detected == 2000
        assert rows["fq_2"].detected == 0
        assert rows["fq_avg_2"].detected == 0


class TestBoundsCurve:
    def test_reference_rows(self):
        rows = bounds_curve(100)
        assert rows[0]["fq_bound"] == 100.0
        assert rows[-1]["fq_bound"] == 10_000.0

    def test_straight_line_majorizes(self):
        # s k^2 + r^2 <= N k with equality exactly when k divides N
        for row in bounds_curve(100):
            k = row["k"]
            assert row["fq_bound"] <= row["nk"] + 1e-12
            if 100 % k == 0:
                assert row["fq_bound"] == row["nk"]
            else:
                assert row["fq_bound"] < row["nk"]

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            bounds_curve(1)


class TestSweep:
    def test_ghz4_thresholds_match_closed_form(self):
        rows = sweep_p("ghz:4")
        fq_rows = {r["k"]: r for r in rows if r["criterion"] == "fq"}
        for k in (1, 2, 3):
            assert abs(fq_rows[k]["p_threshold"] - fq_rows[k]["p_closed_form"]) <= 2e-6

    def test_ghz_detected_earlier_by_max_direction(self):
        rows = sweep_p("ghz:4")
        by_crit = {}
        for r in rows:
            by_crit.setdefault(r["criterion"], {})[r["k"]] = r["p_threshold"]
        for k in (1, 2, 3):
            assert by_crit["fq"][k] <= by_crit["fq_avg"][k]

    def test_half_filled_dicke_average_wins_for_genuine(self):
        rows = sweep_p("dicke:4:2")
        by = {(r["criterion"], r["k"]): r["p_threshold"] for r in rows}
        assert by[("fq_avg", 3)] < by[("fq", 3)]

    def test_three_qubit_extra_criteria(self):
        rows = sweep_p("ghz:3")
        crits = {r["criterion"] for r in rows}
        assert {"witness", "dme"} <= crits
        wit = next(r for r in rows if r["criterion"] == "witness")
        assert abs(wit["p_threshold"] - wit["p_closed_form"]) <= 2e-6

    @pytest.mark.parametrize("spec", ["ghz:3", "ghz:4", "dicke:4:2"])
    def test_one_mixture_per_weight_and_per_name_thresholds(self, spec, monkeypatch):
        # each bisection on its own, one evaluate call per step and name
        state = parse_state_spec(spec)
        n = state.num_qubits

        def alone(name, p):
            return bool(evaluate(mix_with_identity(state, p).matrix[None], n, (name,))[name][0])

        weights = []
        mix = campaigns.mix_with_identity
        monkeypatch.setattr(campaigns, "mix_with_identity", lambda s, p: weights.append(p) or mix(s, p))
        rows = sweep_p(spec)
        assert len(weights) == len(set(weights))
        for row in rows:
            name = f"{row['criterion']}_{row['k'] + 1}" if row["k"] else row["criterion"]
            assert row["p_threshold"] == campaigns._bisect_p(partial(alone, name), 1e-6)

    def test_needs_pure_state(self):
        with pytest.raises(ValueError):
            sweep_p("duer:3")


class TestAnalyze:
    def test_ghz4(self):
        report = analyze("ghz:4")
        assert abs(report["qfi_max"] - 16.0) <= 1e-9
        assert report["depth_qfi"] == 4
        assert abs(report["qfi_local_opt"] - 16.0) <= 1e-8

    def test_dicke(self):
        report = analyze("dicke:4:2")
        assert abs(report["qfi_max"] - 12.0) <= 1e-9
        assert abs(3 * report["qfi_avg"] - 24.0) <= 1e-9

    def test_smolin(self):
        report = analyze("smolin:2")
        assert report["depth_qfi"] == 1 and report["depth_qfi_avg"] == 2
        assert report["entangled"] and not report["genuine_multipartite"]


class TestPhaseSim:
    def test_summary_fields_and_ratio(self):
        out = run_phase_sim("ghz:3", m=400, trials=40, seed=0)
        assert set(out) >= {"std", "crb", "ratio", "estimates", "shot_noise", "heisenberg"}
        assert len(out["estimates"]) == 40
        assert 0.7 <= out["ratio"] <= 1.4
        assert out["heisenberg"] < out["shot_noise"]

    def test_plus_probe_stays_at_shot_noise(self):
        out = run_phase_sim("plus:3", m=400, trials=40, seed=0)
        assert out["std"] >= out["heisenberg"]
        assert out["std"] >= 0.7 * out["shot_noise"]

    def test_needs_pure_state(self):
        with pytest.raises(ValueError):
            run_phase_sim("duer:3", m=10, trials=2)

    def test_plus_probe_from_file_gets_x_basis(self, tmp_path):
        # the POVM follows the probe, not the spec string: a file holding
        # |+>^4 times a global phase is read like plus:4
        amps = np.exp(0.7j) * plus_state(4).amplitudes
        path = tmp_path / "plus4.json"
        path.write_text(
            json.dumps({"n": 4, "kind": "pure", "re": amps.real.tolist(), "im": amps.imag.tolist()})
        )
        from_file = run_phase_sim(str(path), m=200, trials=20, seed=0)
        from_zoo = run_phase_sim("plus:4", m=200, trials=20, seed=0)
        assert from_file["true_theta"] == from_zoo["true_theta"]
        np.testing.assert_allclose(from_file["estimates"], from_zoo["estimates"], rtol=0, atol=1e-12)


class TestRunCampaign:
    def test_csv_bytes_identical_across_workers(self):
        cfg1 = CampaignConfig("table2", samples=2000, seed=9, workers=1)
        cfg2 = CampaignConfig("table2", samples=2000, seed=9, workers=2)
        assert run_campaign(cfg1)[0] == run_campaign(cfg2)[0]

    def test_unknown_campaign(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig("table5"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig("table2", samples=0)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


class TestWorkerCap:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(campaigns, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(campaigns.os, "cpu_count", lambda: 4)
        _RecordingPool.requested = []
        return _RecordingPool

    def test_capped_at_chunk_count(self, pool):
        # 5000 samples are three chunks
        run_campaign(CampaignConfig("table3", samples=5000, seed=1, workers=10_000))
        assert pool.requested == [3]

    def test_capped_at_cpu_count(self, pool, monkeypatch):
        monkeypatch.setattr(campaigns, "CHUNK_SIZE", 100)
        run_campaign(CampaignConfig("table3", samples=1000, seed=1, workers=64))
        assert pool.requested == [4]

    def test_single_chunk_runs_serially(self, pool):
        run_campaign(CampaignConfig("table2", samples=100, seed=1, workers=64))
        assert pool.requested == []

    def test_csv_bytes_identical_for_any_workers(self, pool):
        csvs = {
            w: run_campaign(CampaignConfig("table2", samples=5000, seed=3, workers=w))[0]
            for w in (1, 2, 3, 4096)
        }
        assert pool.requested == [2, 3, 3]
        assert len(set(csvs.values())) == 1


class TestCli:
    def test_bounds_curve_stdout(self, capsys):
        assert main(["bounds-curve", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("k,")
        assert len(out.strip().splitlines()) == 7

    def test_analyze_json(self, capsys):
        assert main(["analyze", "--state", "ghz:3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["depth_qfi"] == 3

    def test_unknown_state_exit_2(self, capsys):
        assert main(["analyze", "--state", "w:3"]) == 2

    def test_missing_option_exit_2(self, capsys):
        assert main(["bounds-curve"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--m", "0"], ["--trials", "0"], ["--theta", "nan"], ["--theta", "inf"], ["--mode", "witness-opt"]],
    )
    def test_bad_phase_sim_field_exit_2(self, flags, capsys):
        assert main(["phase-sim", "--state", "ghz:2", *flags]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--state", "ghz:3", "--mode", "witness_opt"],
            ["analyze", "--state", "ghz:3", "--mode", "local"],
            ["bounds-curve", "--n", "4", "--mode", "witness-opt"],
            ["sweep-p", "--state", "ghz:3", "--mode", "local"],
            ["bound-entangled-scan", "--samples", "10", "--mode", "local"],
            ["table2", "--samples", "10", "--mode", "witness-opt"],
            ["table3", "--samples", "10", "--mode", "local"],
        ],
    )
    def test_undefined_mode_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, k", [("ghz:3", "99"), ("ghz:3", "0"), ("ghz:3", "3"), ("ghz:4", "4"), ("ghz:4", "-1")]
    )
    def test_sweep_p_class_out_of_range_exit_2(self, spec, k, capsys):
        assert main(["sweep-p", "--state", spec, "--k", k]) == 2
        assert capsys.readouterr().err == f"error: --k {k} is outside 1..{int(spec[4:]) - 1}\n"

    def test_sweep_p_class_filter(self, capsys):
        assert main(["sweep-p", "--state", "ghz:3", "--k", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        expected = [["fq", "2"], ["fq_avg", "2"], ["witness", ""], ["dme", ""]]
        assert [row.split(",")[:2] for row in rows] == expected

    def test_non_numeric_theta_in_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"state": "ghz:2", "theta": "half"}))
        assert main(["phase-sim", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "campaign, values",
        [
            ("bounds-curve", {"n": "6"}),
            ("bounds-curve", {"n": 6.0}),
            ("bounds-curve", {"n": True}),
            ("bounds-curve", {"n": 6, "k": "3"}),
            ("analyze", {"state": 5}),
            ("analyze", {"state": "ghz:3", "mode": 1}),
            ("bounds-curve", {"n": 3, "out": 5}),
            ("table2", {"samples": 2.9}),
            ("table2", {"samples": 10, "seed": True}),
            ("table2", {"samples": 10, "workers": "2"}),
            ("phase-sim", {"state": "ghz:2", "m": 10.5}),
            ("phase-sim", {"state": "ghz:2", "trials": "5"}),
            ("table2", {"full": "no"}),
            ("table2", {"full": 1}),
            ("phase-sim", {"state": "ghz:2", "theta": True}),
            ("phase-sim", {"state": "ghz:2", "theta": "0.5"}),
        ],
    )
    def test_mistyped_config_value_exit_2(self, campaign, values, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        assert main([campaign, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: config")

    def test_integer_theta_in_config_runs_at_that_phase(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"state": "ghz:2", "theta": 1, "m": 50, "trials": 3}))
        assert main(["phase-sim", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["true_theta"] == 1.0

    @pytest.mark.parametrize("spec", ["ghz:40", "dicke:40:20", "plus:40", "ones:40", "duer:40", "smolin:20"])
    def test_state_beyond_the_cap_exit_2(self, spec, capsys):
        assert main(["analyze", "--state", spec]) == 2
        assert "exceeds the dense-storage cap" in capsys.readouterr().err

    def test_mixed_state_file_beyond_the_cap_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 40, "kind": "mixed", "re": [1.0], "im": [0.0]}))
        assert main(["analyze", "--state", str(path)]) == 2
        assert "exceeds the dense-storage cap" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, size", [("pure", 4), ("mixed", 16)])
    @pytest.mark.parametrize("n", [2.9, True])
    def test_state_file_with_non_integer_qubit_count_exit_2(self, kind, size, n, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": n, "kind": kind, "re": [0.5] * size, "im": [0.0] * size}))
        assert main(["analyze", "--state", str(path)]) == 2
        assert "number of qubits must be a positive integer" in capsys.readouterr().err

    def test_mixed_state_file_of_wrong_length_exit_3(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 2, "kind": "mixed", "re": [0.25] * 15, "im": [0.0] * 15}))
        assert main(["analyze", "--state", str(path)]) == 3
        assert "mixed record has 15 entries, expected 16" in capsys.readouterr().err

    def test_class_filter(self, capsys):
        assert main(["bounds-curve", "--n", "8", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("3,")
        assert main(["bounds-curve", "--n", "8", "--k", "9"]) == 2

    def test_invariant_violation_exit_3(self, tmp_path, capsys):
        bad = {"n": 1, "kind": "mixed", "re": [1.5, 0.0, 0.0, -0.5], "im": [0.0] * 4}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["analyze", "--state", str(path)]) == 3

    def test_output_files(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        assert main(["table3", "--samples", "300", "--seed", "1", "--out", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("criterion,")
        json_path = tmp_path / "rows.json"
        assert main(["table3", "--samples", "300", "--seed", "1", "--out", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["campaign"] == "table3" and len(payload["rows"]) == 3

    def test_config_file_merging(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples": 250, "seed": 4, "state": "ghz:3"}))
        out_a = tmp_path / "a.json"
        assert main(["analyze", "--config", str(config), "--out", str(out_a)]) == 0
        assert json.loads(out_a.read_text())["state"] == "ghz:3"
        # explicit flag beats the config value
        out_b = tmp_path / "b.json"
        assert main(
            ["analyze", "--config", str(config), "--state", "ghz:4", "--out", str(out_b)]
        ) == 0
        assert json.loads(out_b.read_text())["num_qubits"] == 4

    def test_phase_sim_emits_summary(self, tmp_path, capsys):
        csv_path = tmp_path / "trials.csv"
        code = main(
            ["phase-sim", "--state", "ghz:2", "--m", "200", "--trials", "10", "--out", str(csv_path)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert {"std", "crb", "ratio"} <= set(summary)
        assert csv_path.read_text().splitlines()[0] == "trial,estimate"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qfisher.cli", "bounds-curve", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("k,")
