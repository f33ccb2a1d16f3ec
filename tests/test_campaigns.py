import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
import qfisher as qf
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
from qfisher.criteria import _margin, _margins, evaluate
from qfisher.zoo import parse_state_spec, plus_state


def bisect_p(detect, tol: float) -> float | None:
    """Reference sweep: the least mixing weight at which a monotone detector
    fires, bisected from [0, 1] until the bracket is at most ``tol``."""
    if not detect(1.0):
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if detect(mid):
            hi = mid
        else:
            lo = mid
    return hi


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

    def test_local_chunk_matches_the_per_state_optimisers(self, monkeypatch):
        # one call of each batch optimiser per chunk, whose values are those
        # of the per-state functions with the chunk's per-sample seeds
        calls = {}

        def recording(name, fn):
            def run(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.setdefault(name, []).append(out[0] if isinstance(out, tuple) else out)
                return out

            monkeypatch.setattr(campaigns, name, run)

        recording("_local_directions_batch", campaigns._local_directions_batch)
        recording("_optimized_witness", campaigns._optimized_witness)
        seed = 1000
        for start, stop in ((0, 7), (7, 16)):
            calls.clear()
            counts = campaigns._table2_chunk(start, stop, seed, local=True)
            assert {name: len(values) for name, values in calls.items()} == {
                "_local_directions_batch": 1,
                "_optimized_witness": 1,
            }
            fq_local, witness_opt = calls["_local_directions_batch"][0], calls["_optimized_witness"][0]
            psis = qf.zoo._random_pure_batch(campaigns._streams(seed, start, stop))
            states = list(zip(range(start, stop), (qf.PureState(3, psi) for psi in psis)))
            fq_ref = np.array([qf.optimize_local_directions(psi, restarts=4, seed=(seed, i, 1))[0] for i, psi in states])
            witness_ref = np.array(
                [qf.ghz_witness(psi, optimize_local_unitaries=True, restarts=5, seed=(seed, i, 2)) for i, psi in states]
            )
            assert np.max(np.abs(fq_local - fq_ref)) <= 1e-12
            assert np.max(np.abs(witness_opt - witness_ref)) <= 1e-12
            flags = []
            for name, values, ref in (
                ("fq_2", fq_local, fq_ref),
                ("fq_3", fq_local, fq_ref),
                ("witness", witness_opt, witness_ref),
            ):
                flags.append(_margin(name, 3, ref) > 0)
                assert np.array_equal(_margin(name, 3, values) > 0, flags[-1])
            assert counts[-3:].tolist() == [int(f.sum()) for f in flags]


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

    @pytest.mark.parametrize(
        "spec",
        [
            "ghz:2", "ghz:3", "ghz:4", "ghz:5", "ghz:7", "dicke:4:1", "dicke:4:2", "dicke:5:2",
            "psi_s4:+", "psi_s4:-", "plus:3", "ones:4",
        ],
    )
    def test_one_mixture_per_weight_and_per_name_thresholds(self, spec, monkeypatch):
        # the thresholds of a bisection on each name alone
        state = parse_state_spec(spec)
        n = state.num_qubits
        weights = []
        mix = campaigns.mix_with_identity
        monkeypatch.setattr(campaigns, "mix_with_identity", lambda s, p: weights.append(p) or mix(s, p))
        rows = sweep_p(spec)
        assert len(weights) == len(set(weights))
        mixture = cache(lambda p: mix(state, p).matrix[None])
        with campaigns._blas_threads(1):
            for row in rows:
                name = f"{row['criterion']}_{row['k'] + 1}" if row["k"] else row["criterion"]
                alone = lambda p: bool(evaluate(mixture(p), n, (name,))[name][0])
                assert row["p_threshold"] == bisect_p(alone, 1e-6)
                # a closed form exactly where the search finds a threshold; dme has none
                if row["criterion"] != "dme":
                    assert (row["p_closed_form"] is None) == (row["p_threshold"] is None)
        if spec == "plus:3":
            assert all(row["p_threshold"] is None for row in rows)

    @pytest.mark.parametrize("spec, most", [("ghz:7", 50), ("ghz:5", 40), ("dicke:6:3", 30)])
    def test_few_mixtures_and_no_closed_form_in_the_search(self, spec, most, monkeypatch):
        weights, closed_at = [], []
        mix, closed = campaigns.mix_with_identity, campaigns.critical_p
        monkeypatch.setattr(campaigns, "mix_with_identity", lambda s, p: weights.append(p) or mix(s, p))
        monkeypatch.setattr(campaigns, "critical_p", lambda *a: closed_at.append(len(weights)) or closed(*a))
        sweep_p(spec)
        assert len(weights) == len(set(weights)) <= most
        assert weights[:2] == [1.0, 0.0]
        assert closed_at and set(closed_at) == {0}  # every closed form before the first mixture

    def test_one_class_searches_only_its_names(self, monkeypatch):
        full = sweep_p("ghz:7")
        weights = []
        mix = campaigns.mix_with_identity
        monkeypatch.setattr(campaigns, "mix_with_identity", lambda s, p: weights.append(p) or mix(s, p))
        for k in range(1, 7):
            weights.clear()
            assert sweep_p("ghz:7", k=k) == [row for row in full if row["k"] == k]
            assert len(weights) <= 12
        assert sweep_p("ghz:3", k=2) == [row for row in sweep_p("ghz:3") if row["k"] in (2, None)]
        with pytest.raises(ValueError, match="class k must lie in 1..6, got 7"):
            sweep_p("ghz:7", k=7)

    @pytest.mark.parametrize("resolution", [0.0, -1e-6, 2.0**-53, float("nan"), float("inf"), -float("inf")])
    def test_resolution_must_be_finite_and_a_double_grid(self, resolution, monkeypatch):
        monkeypatch.setattr(campaigns, "mix_with_identity", None)  # refused before any mixture
        with pytest.raises(ValueError, match="resolution must be finite and at least 2\\^-52"):
            sweep_p("ghz:2", resolution)

    @pytest.mark.parametrize("resolution", [2.0**-52, 0.3, 1.0, 7.0])
    def test_any_admitted_resolution_matches_bisection(self, resolution):
        state = parse_state_spec("ghz:2")
        rows = sweep_p("ghz:2", resolution)
        for row in rows:
            name = f"{row['criterion']}_{row['k'] + 1}"
            detect = lambda p: bool(evaluate(mix_with_identity(state, p).matrix[None], 2, (name,))[name][0])
            assert row["p_threshold"] == bisect_p(detect, resolution)

    @pytest.mark.parametrize(
        "island, sign",
        # "a" is detected from 0.8 and on an island below it, or from 0.3 and
        # not on an island above it; the search for "b" lands on the island
        [((0.3, 0.35), 1.0), ((0.7, 0.75), -1.0)],
    )
    def test_non_monotone_margins_raise(self, island, sign):
        lo, hi = island
        edge = 0.8 if sign > 0 else 0.3

        def stub(p):
            a = sign if lo <= p <= hi else p - edge
            return {"a": np.array([a]), "b": np.array([p - (lo + hi) / 2 + 0.005 * sign])}

        with pytest.raises(qf.InvariantError, match=r"^a detects p = 0\.3\d* but not p = 0\.7\d*$"):
            campaigns._grid_thresholds(stub, ["a", "b"], 1e-6)

    def test_detecting_the_maximally_mixed_state_raises(self, monkeypatch, capsys):
        monkeypatch.setattr(campaigns, "_margins", lambda batch, n, names: {name: np.array([1.0]) for name in names})
        with pytest.raises(qf.InvariantError, match="^fq_2 detects I/2\\^N$"):
            sweep_p("ghz:3")
        assert main(["sweep-p", "--state", "ghz:3"]) == 3
        assert capsys.readouterr().err == "invariant violation: fq_2 detects I/2^N\n"

    @pytest.mark.parametrize(
        "margin, most",
        [
            (lambda p: 1.0 if p >= 0.3 else -1.0, 25),  # a step: regula falsi gives bisection steps
            (lambda p: np.expm1(12 * (p - 0.3)), 15),  # convex: 21 points without the Illinois halving
            (lambda p: p**8 - 0.6**8, 22),
            (lambda p: -1.0, 2),  # never detected
        ],
    )
    def test_monotone_stub_thresholds_on_the_grid(self, margin, most):
        points = []
        found = campaigns._grid_thresholds(lambda p: points.append(p) or {"a": np.array([margin(p)])}, ["a"], 1e-6)
        assert found["a"] == bisect_p(lambda p: margin(p) > 0, 1e-6)
        assert len(points) == len(set(points)) <= most

    def test_needs_pure_state(self):
        with pytest.raises(ValueError):
            sweep_p("duer:3")

    def test_needs_two_qubits(self, capsys):
        # one qubit has no class k in 1..N-1, so there would be no row at all
        with pytest.raises(ValueError, match="^need at least 2 qubits$"):
            sweep_p("ghz:1")
        assert main(["sweep-p", "--state", "ghz:1"]) == 2
        assert capsys.readouterr() == ("", "error: need at least 2 qubits\n")


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


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**100])
    def test_streams_are_default_rng_of_seed_and_index(self, seed):
        # the last seed has more entropy words than the pool holds; the
        # ranges cross a chunk boundary and end at the largest index
        for start, stop in ((0, 5), (2040, 2056), (2**32 - 4, 2**32)):
            streams = list(campaigns._streams(seed, start, stop))
            assert len(streams) == stop - start
            for i, rng in zip(range(start, stop), streams):
                ref = np.random.default_rng([seed, i])
                assert rng.bit_generator.state == ref.bit_generator.state
                assert np.array_equal(rng.random(14), ref.random(14))

    def test_indices_from_2_32_refused(self, capsys):
        with pytest.raises(ValueError, match="sample indices"):
            campaigns._streams(0, 2**32 - 1, 2**32 + 1)
        CampaignConfig("table2", samples=2**32)
        with pytest.raises(ValueError, match="samples must lie in"):
            CampaignConfig("table2", samples=2**32 + 1)
        assert main(["table2", "--samples", str(2**32 + 1)]) == 2
        assert capsys.readouterr().err == f"error: samples must lie in 1..{2**32}\n"

    def test_stand_in_serves_only_the_pcg64_seed_request(self):
        seed_seq = next(campaigns._streams(3, 7, 8)).bit_generator.seed_seq
        ref = np.random.SeedSequence([3, 7]).generate_state(4, np.uint64)
        assert np.array_equal(seed_seq.generate_state(4, np.uint64), ref)
        for request in ((4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)):
            with pytest.raises(ValueError, match="only PCG64"):
                seed_seq.generate_state(*request)

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy.random is imported when the first streams are built, not at start
        code = "import sys, qfisher.cli; sys.exit('numpy.random' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_cli_import_leaves_multiprocessing_unloaded(self):
        # the process pool is imported only where a run asks for two or more
        # workers: neither the import nor a --workers 1 run loads it
        code = (
            "import sys, qfisher.cli; loaded = 'multiprocessing' in sys.modules; "
            "qfisher.cli.main(['table3', '--samples', '10']); "
            "sys.exit(2 * loaded + ('multiprocessing' in sys.modules))"
        )
        assert subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL).returncode == 0


class TestRunCampaign:
    def test_csv_bytes_identical_across_workers(self):
        # 2500 samples are two chunks, so two workers really split them
        for name in ("table2", "table3", "bound-entangled-scan"):
            cfg1 = CampaignConfig(name, samples=2500, seed=9, workers=1)
            cfg2 = CampaignConfig(name, samples=2500, seed=9, workers=2)
            assert run_campaign(cfg1)[0] == run_campaign(cfg2)[0]

    def test_unknown_campaign(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig("table5"))

    @pytest.mark.parametrize(
        "config, message",
        [
            (CampaignConfig("table5"), r"^unknown campaign 'table5'$"),
            (CampaignConfig("table5", mode="local"), r"^table5 defines no mode 'local'$"),
            (CampaignConfig("bounds-curve", n=4, mode="local"), r"^bounds-curve defines no mode 'local'$"),
            (CampaignConfig("phase-sim", mode="witness-opt"), r"^phase-sim defines no mode 'witness-opt'$"),
            (CampaignConfig("analyze", state="ghz:3", mode="local"), r"^analyze defines no mode 'local'$"),
            (CampaignConfig("analyze", mode="local"), r"^analyze defines no mode 'local'$"),
        ],
    )
    def test_dispatch_errors(self, config, message):
        with pytest.raises(ValueError, match=message):
            run_campaign(config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig("table2", samples=0)
        with pytest.raises(ValueError, match="^seed must be at least 0$"):
            CampaignConfig("table2", seed=-1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process
    (so a worker initializer has no worker to run in)."""

    requested = []

    def __init__(self, max_workers, initializer=None):
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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
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


def _chunk_blas_threads(start: int, stop: int) -> np.ndarray:
    """A chunk function reporting [BLAS threads it runs on (0 without the
    thread API), 1 for the chunk itself]."""
    api = campaigns._blas_thread_api()
    return np.array([0 if api is None else api[0](), 1])


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestBlasThreads:
    @pytest.fixture
    def fake_api(self, monkeypatch):
        calls = []
        count = [3]

        def set_(n):
            calls.append(n)
            count[0] = n

        monkeypatch.setattr(campaigns, "_blas_thread_api", lambda: (lambda: count[0], set_))
        return calls, count

    def test_one_thread_in_the_block_then_the_callers_count(self, fake_api):
        calls, count = fake_api
        with campaigns._blas_threads(1):
            assert count == [1]
        assert calls == [1, 3]
        assert count == [3]

    def test_restored_when_the_block_raises(self, fake_api):
        calls, count = fake_api
        with pytest.raises(RuntimeError, match="^inside$"):
            with campaigns._blas_threads(1):
                raise RuntimeError("inside")
        assert calls == [1, 3]
        assert count == [3]

    def test_campaigns_restore_the_callers_count(self, fake_api, monkeypatch):
        calls, count = fake_api
        seen = []
        mix = campaigns.mix_with_identity
        monkeypatch.setattr(campaigns, "mix_with_identity", lambda s, p: seen.append(count[0]) or mix(s, p))
        run_table2(samples=100, seed=1)
        assert (calls, count) == ([1, 3], [3])
        sweep_p("ghz:3")  # d = 8, below the cut
        assert (calls, count) == ([1, 3, 1, 3], [3])
        assert set(seen) == {1}
        monkeypatch.setattr(campaigns, "SMALL_DIM", 8)
        seen.clear()
        sweep_p("ghz:3")  # at the cut: the caller's threads, untouched
        assert (calls, count) == ([1, 3, 1, 3], [3])
        assert set(seen) == {3}
        # a pure state's report runs on one thread, a mixed state's on the caller's
        reports = []
        report = campaigns.build_report
        monkeypatch.setattr(campaigns, "build_report", lambda s, **kw: reports.append(count[0]) or report(s, **kw))
        analyze("dicke:4:2")
        analyze("duer:3")
        assert (calls, count, reports) == ([1, 3, 1, 3, 1, 3], [3], [1, 3])
        estimates = []
        estimate = campaigns.run_phase_estimation
        monkeypatch.setattr(
            campaigns, "run_phase_estimation", lambda *a, **kw: estimates.append(count[0]) or estimate(*a, **kw)
        )
        run_phase_sim("ghz:3", m=10, trials=2)
        assert (calls, count, estimates) == ([1, 3, 1, 3, 1, 3], [3], [3])

    def test_large_paths_take_back_the_threads_a_cli_process_withheld(self, fake_api, monkeypatch):
        calls, count = fake_api
        seen = {}
        for name in ("mix_with_identity", "build_report", "run_phase_estimation"):
            seen[name] = []
            wrapped = getattr(campaigns, name)
            monkeypatch.setattr(
                campaigns, name, lambda *a, _seen=seen[name], _f=wrapped, **kw: _seen.append(count[0]) or _f(*a, **kw)
            )
        monkeypatch.setattr(campaigns, "_withheld_blas_threads", 5)

        def run():
            calls.clear()
            for record in seen.values():
                record.clear()
            sweep_p("ghz:3")
            analyze("dicke:3:1")
            analyze("duer:3")
            run_phase_sim("ghz:3", m=10, trials=2)
            return calls, {name: set(record) for name, record in seen.items()}

        # d = 8 at the cut: the withheld count for the sweep, the mixed report
        # and phase-sim; a pure report still runs on one thread
        monkeypatch.setattr(campaigns, "SMALL_DIM", 8)
        assert run() == (
            [5, 3, 1, 3, 5, 3, 5, 3],
            {"mix_with_identity": {5}, "build_report": {1, 5}, "run_phase_estimation": {5}},
        )
        # below the cut: one thread for the sweep, the process's count elsewhere
        monkeypatch.setattr(campaigns, "SMALL_DIM", 16)
        assert run() == (
            [1, 3, 1, 3],
            {"mix_with_identity": {1}, "build_report": {1, 3}, "run_phase_estimation": {3}},
        )
        assert count == [3]

    @staticmethod
    def _cli_process(prelude: str = "", **thread_env: str) -> dict:
        """A fresh process, with only the given BLAS thread variables set,
        that runs ``prelude`` and imports ``qfisher.cli``: its thread
        variables after the import, and its BLAS thread count before the
        import (where NumPy is loaded by then) and after it."""
        code = f"""{prelude}
import json, os, sys
def threads():
    from qfisher import campaigns
    api = campaigns._blas_thread_api()
    return None if api is None else api[0]()
before = threads() if "numpy" in sys.modules else None
import qfisher.cli
from qfisher import campaigns
env = {{k: os.environ.get(k) for k in {BLAS_THREAD_VARS!r}}}
print(json.dumps(dict(env=env, before=before, after=threads(), withheld=campaigns._withheld_blas_threads)))
"""
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS} | thread_env
        return json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout)

    def test_a_cli_process_starts_on_one_thread(self):
        got = self._cli_process()
        if sys.platform != "linux":  # no thread API to raise the count again, so no pin
            assert got["env"] == dict.fromkeys(BLAS_THREAD_VARS)
            return
        assert got["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), "OPENBLAS_NUM_THREADS": "1"}
        assert got["after"] == (None if campaigns._blas_thread_api() is None else 1)
        assert got["withheld"] == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_a_count_in_the_environment_is_honoured(self, var):
        got = self._cli_process(**{var: "2"})
        assert got["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), var: "2"}
        assert got["after"] == (None if campaigns._blas_thread_api() is None else 2)
        assert got["withheld"] is None

    def test_importing_the_cli_after_numpy_changes_nothing(self):
        got = self._cli_process("import numpy")
        assert got["env"] == dict.fromkeys(BLAS_THREAD_VARS)
        assert got["after"] == got["before"]
        assert got["withheld"] is None

    def test_csv_unchanged_without_the_thread_api(self, monkeypatch):
        with_api = run_campaign(CampaignConfig("table2", samples=2500, seed=0))[0]
        monkeypatch.setattr(campaigns, "_blas_thread_api", lambda: None)
        without = run_campaign(CampaignConfig("table2", samples=2500, seed=0))[0]
        golden = (Path(__file__).parent / "golden" / "table2.csv").read_text()
        assert with_api == without == golden

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_functions_run_on_one_thread(self, workers, monkeypatch):
        monkeypatch.setattr(campaigns, "CHUNK_SIZE", 10)
        api = campaigns._blas_thread_api()
        before = None if api is None else api[0]()
        threads, chunks = campaigns._map_chunks(_chunk_blas_threads, 20, workers)
        assert chunks == 2
        if api is None:
            # no OpenBLAS thread API in this process: the helper does nothing
            assert threads == 0
        else:
            assert threads == 2  # one thread in each of the two chunks
            assert api[0]() == before

    @pytest.mark.parametrize(
        "method", [m for m in ("fork", "forkserver", "spawn") if m in multiprocessing.get_all_start_methods()]
    )
    def test_pool_workers_run_on_one_thread_under_any_start_method(self, method, monkeypatch):
        # a forkserver or spawn worker does not inherit the caller's count;
        # the pool's initializer sets it
        monkeypatch.setattr(campaigns, "CHUNK_SIZE", 10)
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=context))
        threads, chunks = campaigns._map_chunks(_chunk_blas_threads, 20, 2)
        assert chunks == 2
        assert threads == (0 if campaigns._blas_thread_api() is None else 2)


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

    @pytest.mark.parametrize("argv", [["table2"], ["bounds-curve", "--n", "4"]])
    def test_negative_seed_exit_2(self, argv, capsys):
        assert main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be at least 0\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--m", "0"],
            ["--trials", "0"],
            ["--theta", "nan"],
            ["--theta", "inf"],
            ["--mode", "witness-opt"],
            ["--trials", "1"],  # one estimate has no spread, so std / CRB would read 0
        ],
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

    @pytest.mark.parametrize(
        "argv, config, unread",
        [
            (["table2", "--k", "99"], {}, "--k"),
            (["table2", "--m", "5"], {}, "--m"),
            (["table2", "--state", "ghz:4"], {}, "--state"),
            (["analyze", "--state", "ghz:3", "--samples", "5"], {}, "--samples"),
            (["analyze", "--state", "ghz:3", "--full"], {}, "--full"),
            (["bounds-curve", "--n", "4", "--trials", "3", "--theta", "0.5"], {}, "--theta, --trials"),
            (["sweep-p", "--state", "ghz:3", "--n", "3"], {}, "--n"),
            (["phase-sim", "--samples", "5"], {}, "--samples"),
            (["bound-entangled-scan", "--k", "0"], {}, "--k"),
            (["table2"], {"k": 99}, "--k"),
            (["analyze"], {"state": "ghz:3", "samples": 5}, "--samples"),
            (["analyze", "--state", "ghz:3"], {"full": False}, "--full"),
            (["table3"], {"sampels": 5}, "--sampels"),
            (["table3"], {"campaign": "table2"}, "--campaign"),
        ],
    )
    def test_unread_flag_exit_2(self, argv, config, unread, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr("qfisher.cli.run_campaign", lambda cfg: ran.append(cfg))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([*argv, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {argv[0]} does not read {unread}\n"
        assert not ran

    @pytest.mark.parametrize("campaign", qf.campaigns.CAMPAIGNS)
    def test_seed_workers_out_and_config_taken_by_every_campaign(self, campaign, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr("qfisher.cli.run_campaign", lambda cfg: ran.append(cfg) or ("", {}))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 2, "workers": 1}))
        argv = [campaign, "--seed", "3", "--workers", "2", "--out", str(tmp_path / "x.json"), "--config", str(path)]
        assert main(argv) == 0
        assert [(cfg.seed, cfg.workers) for cfg in ran] == [(3, 2)]

    def test_benchmark_setup_command_runs(self, capsys):
        # the benchmark appends --workers 1 and --seed to every invocation
        assert main(["bounds-curve", "--n", "4", "--workers", "1", "--seed", "0"]) == 0
        assert capsys.readouterr().out.startswith("k,")

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

    @pytest.mark.parametrize("kind, re, im", [("pure", [0.5, 0.5], [0.5]), ("mixed", [0.25] * 16, [0.0] * 8)])
    def test_state_file_with_mismatched_re_and_im_exit_2(self, kind, re, im, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 2 if kind == "mixed" else 1, "kind": kind, "re": re, "im": im}))
        assert main(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed state record: 're' has shape")

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

    def test_bounds_curve_beyond_the_cap_exit_2(self, capsys, monkeypatch):
        # the table holds no dense object, but --n shares the qubit cap
        assert main(["bounds-curve", "--n", "13"]) == 2
        assert "13 qubits exceeds the dense-storage cap of 12" in capsys.readouterr().err
        monkeypatch.setattr(qf.core, "_MAX_QUBITS", 13)
        assert main(["bounds-curve", "--n", "13"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 14

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

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"kind": "mixed", "re": [0.5, np.nan, np.nan, 0.5], "im": [0.0] * 4}, "non-finite entry"),
            ({"kind": "mixed", "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0, np.inf, 0.0, 0.0]}, "non-finite entry"),
            ({"kind": "pure", "re": [np.nan, 0.0], "im": [0.0, 0.0]}, "sum |a|^2 = nan"),
        ],
    )
    def test_non_finite_state_file_exit_3(self, tmp_path, capsys, record, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, **record}))  # written as NaN and Infinity
        assert main(["analyze", "--state", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_output_files(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        assert main(["table3", "--samples", "300", "--seed", "1", "--out", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("criterion,")
        json_path = tmp_path / "rows.json"
        assert main(["table3", "--samples", "300", "--seed", "1", "--out", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["campaign"] == "table3" and len(payload["rows"]) == 3

    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch):
        # a write that fails after the run
        def failing_open(*args, **kwargs):
            raise OSError("no space left")

        with monkeypatch.context() as patch:
            patch.setattr("qfisher.cli.open", failing_open, raising=False)
            assert main(["bounds-curve", "--n", "4", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: no space left\n"
        # a missing directory, or an output path that is a directory, is found
        # before the campaign runs
        ran = []
        monkeypatch.setattr("qfisher.cli.run_campaign", lambda config: ran.append(config))
        for out, message in ((tmp_path / "missing" / "x.csv", "does not exist"), (tmp_path, "is a directory")):
            for campaign in (["bounds-curve", "--n", "4"], ["table2"]):
                assert main([*campaign, "--out", str(out)]) == 2
                assert message in capsys.readouterr().err
        assert not ran

    def test_config_file_merging(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 4, "state": "ghz:3"}))
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
