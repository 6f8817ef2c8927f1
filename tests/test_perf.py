"""Perf subsystem tests: schema round-trip, comparator verdicts, CLI smoke."""

import io
import json
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.harness.workloads import (
    DYNAMIC,
    LADDER,
    MATRIX,
    apply_churn_op,
    churn_stream,
    matrix_sweep,
)
from repro.labeling.spec import LpSpec
from repro.perf import (
    DEFAULT_TOLERANCE,
    PerfRecord,
    Trajectory,
    compare,
    latest_bench_path,
    load_baseline,
    load_trajectory,
    next_bench_path,
    validate_trajectory,
    write_baseline,
    write_trajectory,
)
from repro.perf.baseline import normalized_median
from repro.perf.environment import environment_provenance
from repro.reduction.to_tsp import reduce_to_path_tsp

REPO_BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline.json"


def make_trajectory(**overrides) -> Trajectory:
    """A small synthetic trajectory (no timing, fully deterministic)."""
    fields = dict(
        environment={"python": "3.x", "cpu_count": 1, "calibration_seconds": 0.01},
        records=[
            PerfRecord(
                experiment="apsp_oracle:n=60",
                wall_seconds=(0.010, 0.012, 0.011),
                metrics={"apsp_run_count": 1, "apsp_speedup": 15.0},
            ),
            PerfRecord(
                experiment="service_cache:n=20",
                wall_seconds=(0.050, 0.048, 0.052),
                metrics={"cache_hits": 9, "cache_misses": 1, "cache_hit_rate": 0.9},
            ),
        ],
        kind="quick",
    )
    fields.update(overrides)
    return Trajectory(**fields)


def scaled(trajectory: Trajectory, factor: float) -> Trajectory:
    """The same trajectory with every wall time multiplied by ``factor``."""
    return Trajectory(
        environment=dict(trajectory.environment),
        records=[
            PerfRecord(r.experiment, tuple(w * factor for w in r.wall_seconds),
                       dict(r.metrics))
            for r in trajectory.records
        ],
        kind=trajectory.kind,
    )


class TestSchema:
    def test_round_trip(self):
        traj = make_trajectory()
        again = Trajectory.from_json(json.loads(json.dumps(traj.to_json())))
        assert again.kind == traj.kind
        assert again.environment == traj.environment
        assert again.record_map().keys() == traj.record_map().keys()
        rec = again.record_map()["apsp_oracle:n=60"]
        assert rec.wall_seconds == pytest.approx((0.010, 0.012, 0.011))
        assert rec.metrics["apsp_run_count"] == 1

    def test_median_is_noise_resistant(self):
        rec = PerfRecord("x", (0.01, 0.01, 9.9))  # one stalled repeat
        assert rec.median_seconds == pytest.approx(0.01)

    def test_validate_rejects_bad_payloads(self):
        good = make_trajectory().to_json()
        assert validate_trajectory(good) == []
        assert validate_trajectory([]) != []
        assert validate_trajectory({**good, "schema_version": 99}) != []
        assert validate_trajectory({**good, "kind": "nightly"}) != []
        assert validate_trajectory({**good, "records": []}) != []
        bad_rec = {**good, "records": [{"experiment": "", "wall_seconds": []}]}
        assert len(validate_trajectory(bad_rec)) >= 2

    def test_from_json_raises_with_problems(self):
        with pytest.raises(ReproError, match="schema_version"):
            Trajectory.from_json({"schema_version": 0})

    def test_bench_file_numbering(self, tmp_path):
        assert latest_bench_path(tmp_path) is None
        assert next_bench_path(tmp_path).name == "BENCH_0.json"
        p0 = write_trajectory(make_trajectory(), directory=tmp_path)
        p1 = write_trajectory(make_trajectory(), directory=tmp_path)
        assert (p0.name, p1.name) == ("BENCH_0.json", "BENCH_1.json")
        assert latest_bench_path(tmp_path) == p1
        assert load_trajectory(p1).kind == "quick"

    def test_load_rejects_corrupt_file(self, tmp_path):
        p = tmp_path / "BENCH_0.json"
        p.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read"):
            load_trajectory(p)


class TestComparator:
    def test_identical_trajectories_pass(self):
        base = make_trajectory()
        report = compare(make_trajectory(), base)
        assert report.passed
        assert {v.status for v in report.verdicts} == {"ok"}

    def test_slower_within_tolerance_passes(self):
        base = make_trajectory()
        report = compare(scaled(base, 1.4), base)
        assert report.passed
        assert {v.status for v in report.verdicts} == {"slower"}

    def test_injected_2x_regression_fails(self):
        base = make_trajectory()
        assert DEFAULT_TOLERANCE < 2.0  # the acceptance gate depends on this
        report = compare(scaled(base, 2.0), base)
        assert not report.passed
        assert {v.status for v in report.verdicts} == {"regression"}
        assert "FAIL" in report.render()

    def test_per_experiment_tolerance_overrides_default(self):
        base = make_trajectory()
        loose = {r.experiment: 1.95 for r in base.records}
        assert not compare(scaled(base, 1.9), base).passed  # default 1.8 fails
        assert compare(scaled(base, 1.9), base, tolerances=loose).passed

    def test_tolerance_range_is_enforced_on_disk(self, tmp_path):
        # a hand-edited tolerance >= 2 would disarm the acceptance gate
        base = make_trajectory()
        with pytest.raises(ReproError, match="tolerance"):
            write_baseline(base, tmp_path / "b.json",
                           tolerances={"apsp_oracle:n=60": 5.0})
        path = write_baseline(base, tmp_path / "b.json")
        data = json.loads(path.read_text())
        data["tolerances"]["apsp_oracle:n=60"] = 0.5
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError, match="tolerance"):
            load_baseline(path)

    def test_tight_tolerance_beats_noise_floor(self):
        base = make_trajectory()
        tight = {r.experiment: 1.05 for r in base.records}
        report = compare(scaled(base, 1.12), base, tolerances=tight)
        assert not report.passed  # 1.12x > 1.05 even though < 1.15 floor

    def test_dropped_gated_metric_fails(self):
        base = make_trajectory()
        current = make_trajectory()
        current.records[0] = PerfRecord(
            "apsp_oracle:n=60", (0.010, 0.011, 0.012),
            {"apsp_speedup": 15.0},  # apsp_run_count gone
        )
        report = compare(current, base)
        assert not report.passed
        verdict = {v.experiment: v for v in report.verdicts}["apsp_oracle:n=60"]
        assert "missing" in verdict.detail

    def test_calibration_normalization_cancels_machine_speed(self):
        base = make_trajectory()
        # twice-as-slow machine: walls double, but so does the calibration
        current = scaled(base, 2.0)
        current.environment["calibration_seconds"] = 0.02
        report = compare(current, base)
        assert report.passed, report.render()
        uncalibrated = make_trajectory(environment={"python": "3.x"})
        assert normalized_median(
            uncalibrated.records[0], uncalibrated.environment
        ) == uncalibrated.records[0].median_seconds

    def test_apsp_counter_gate(self):
        base = make_trajectory()
        current = make_trajectory()
        current.records[0] = PerfRecord(
            "apsp_oracle:n=60", (0.010, 0.011, 0.012),
            {"apsp_run_count": 3, "apsp_speedup": 15.0},
        )
        report = compare(current, base)
        assert not report.passed
        verdict = {v.experiment: v for v in report.verdicts}["apsp_oracle:n=60"]
        assert verdict.status == "metric-regression"
        assert "apsp_run_count" in verdict.detail

    def test_cache_hit_rate_gate(self):
        base = make_trajectory()
        current = make_trajectory()
        current.records[1] = PerfRecord(
            "service_cache:n=20", (0.050, 0.048, 0.052),
            {"cache_hits": 5, "cache_misses": 5, "cache_hit_rate": 0.5},
        )
        report = compare(current, base)
        assert not report.passed

    @staticmethod
    def _oracle_pair(peak: int, hit_rate: float):
        """(current, base) carrying one oracle-scaling record."""
        record = lambda p, h: PerfRecord(  # noqa: E731 - tiny local factory
            "oracle_scaling:n=512", (0.06, 0.07, 0.06),
            {"oracle_peak_bytes": p, "row_block_hit_rate": h},
        )
        base = make_trajectory(records=[record(524288, 0.98)])
        current = make_trajectory(records=[record(peak, hit_rate)])
        return current, base

    def test_oracle_peak_bytes_gate_fails_on_rise(self):
        current, base = self._oracle_pair(peak=600000, hit_rate=0.98)
        report = compare(current, base)
        assert not report.passed
        verdict = report.verdicts[0]
        assert verdict.status == "metric-regression"
        assert "oracle_peak_bytes" in verdict.detail

    def test_row_block_hit_rate_gate_fails_on_fall(self):
        current, base = self._oracle_pair(peak=524288, hit_rate=0.5)
        report = compare(current, base)
        assert not report.passed
        assert "row_block_hit_rate" in report.verdicts[0].detail

    def test_oracle_gates_pass_at_baseline_values(self):
        current, base = self._oracle_pair(peak=524288, hit_rate=0.98)
        assert compare(current, base).passed

    def test_affinity_mismatch_warns_but_passes(self):
        base = make_trajectory()
        current = make_trajectory()
        current.environment["cpu_count"] = 8
        report = compare(current, base)
        assert report.passed  # a warning is a caveat, not a verdict
        assert any("cpu_count" in w for w in report.warnings)
        assert "[WARN]" in report.render()
        assert report.to_json()["warnings"]

    def test_no_affinity_warning_when_counts_match(self):
        report = compare(make_trajectory(), make_trajectory())
        assert report.warnings == []
        assert "[WARN]" not in report.render()

    @staticmethod
    def _speedup_pair(speedup: float, cpus: int):
        """(current, base) trajectories carrying one SERVICE-style record."""
        record = lambda s, c: PerfRecord(  # noqa: E731 - tiny local factory
            "concurrent_service:mixed-small", (0.2, 0.21, 0.2),
            {"workers_speedup_4": s, "effective_cpus": c},
        )
        base = make_trajectory(records=[record(2.5, 4)])
        current = make_trajectory(records=[record(speedup, cpus)])
        return current, base

    def test_workers_speedup_floor_fails_below_2x_on_multicore(self):
        current, base = self._speedup_pair(speedup=1.3, cpus=4)
        report = compare(current, base)
        assert not report.passed
        verdict = report.verdicts[0]
        assert verdict.status == "metric-regression"
        assert "workers_speedup_4" in verdict.detail
        assert "floor" in verdict.detail

    def test_workers_speedup_floor_passes_at_2x(self):
        current, base = self._speedup_pair(speedup=2.0, cpus=4)
        assert compare(current, base).passed

    def test_workers_speedup_floor_skipped_below_4_cpus(self):
        # a pinned single-core runner cannot show scaling; the floor must
        # not punish honesty (speedup ~1.0 there is physics, not a bug)
        current, base = self._speedup_pair(speedup=1.0, cpus=1)
        assert compare(current, base).passed

    def test_workers_speedup_metric_must_stay_present(self):
        current, base = self._speedup_pair(speedup=2.5, cpus=4)
        current.records[0] = PerfRecord(
            "concurrent_service:mixed-small", (0.2, 0.21, 0.2),
            {"effective_cpus": 4},
        )
        report = compare(current, base)
        assert not report.passed
        assert "missing" in report.verdicts[0].detail

    @staticmethod
    def _ratio_pair(current_ratio: float, base_ratio: float = 1.4):
        """(current, base) trajectories carrying one qos_overload record."""
        record = lambda r: PerfRecord(  # noqa: E731 - tiny local factory
            "qos_overload:quick", (0.01, 0.011, 0.01),
            {"approx_ratio": r},
        )
        base = make_trajectory(records=[record(base_ratio)])
        current = make_trajectory(records=[record(current_ratio)])
        return current, base

    def test_approx_ratio_ceiling_fails_above_absolute_limit(self):
        current, base = self._ratio_pair(current_ratio=1.6, base_ratio=1.45)
        report = compare(current, base)
        assert not report.passed
        verdict = report.verdicts[0]
        assert verdict.status == "metric-regression"
        assert "approx_ratio" in verdict.detail
        assert "ceiling" in verdict.detail

    def test_approx_ratio_ceiling_fails_on_worsening_under_limit(self):
        # still under 1.5, but well above the committed baseline: the
        # quality the repo already banked may not quietly erode
        current, base = self._ratio_pair(current_ratio=1.49, base_ratio=1.2)
        report = compare(current, base)
        assert not report.passed
        assert "worsened" in report.verdicts[0].detail

    def test_approx_ratio_ceiling_passes_at_baseline_and_better(self):
        for ratio in (1.4, 1.42, 1.1):
            current, base = self._ratio_pair(current_ratio=ratio)
            assert compare(current, base).passed, ratio

    @staticmethod
    def _ladder_pair(cur: dict, base: dict):
        """(current, base) trajectories carrying one cold_ladder record."""
        record = lambda m: PerfRecord("cold_ladder", (0.3, 0.31, 0.3), m)  # noqa: E731
        return make_trajectory(records=[record(cur)]), make_trajectory(records=[record(base)])

    def test_certified_rate_floor_is_enforced_on_any_host(self):
        # unlike the scaling floor, the certificate share needs no cores
        base = {"certified_rate": 0.7, "cold_solve_p50_ms": 6.0}
        for cpus in ({}, {"effective_cpus": 1}):
            current, baseline = self._ladder_pair(
                {"certified_rate": 0.2, "cold_solve_p50_ms": 6.0, **cpus}, base
            )
            report = compare(current, baseline)
            assert not report.passed
            assert "certified_rate" in report.verdicts[0].detail
            assert "floor" in report.verdicts[0].detail

    def test_cold_solve_p50_ceiling_is_in_calibration_runs(self):
        base = {"certified_rate": 0.7, "cold_solve_p50_ms": 6.0}

        def verdict(p50_ms: float, environment: dict):
            cur = {"certified_rate": 0.7, "cold_solve_p50_ms": p50_ms}
            record = PerfRecord("cold_ladder", (0.3, 0.31, 0.3), cur)
            current = make_trajectory(environment=environment, records=[record])
            return compare(current, self._ladder_pair(cur, base)[1])

        fast, slow = {"calibration_seconds": 0.01}, {"calibration_seconds": 0.04}
        # 1.2 calibration runs: under the 1.5 ceiling, though twice the baseline
        assert verdict(12.0, fast).passed
        # the same 50 ms passes on a host four times slower, fails on the fast one
        assert verdict(50.0, slow).passed
        report = verdict(50.0, fast)
        assert not report.passed
        assert "5.00 calibration runs, above ceiling 1.5" in report.verdicts[0].detail
        # without a calibration the timing cannot be gated, so it fails
        report = verdict(6.0, {})
        assert not report.passed
        assert "needs calibration_seconds" in report.verdicts[0].detail

    def test_approx_ratio_metric_must_stay_present(self):
        current, base = self._ratio_pair(current_ratio=1.4)
        current.records[0] = PerfRecord(
            "qos_overload:quick", (0.01, 0.011, 0.01), {}
        )
        report = compare(current, base)
        assert not report.passed
        assert "missing" in report.verdicts[0].detail

    def test_new_and_skipped_records_pass(self):
        base = make_trajectory()
        current = make_trajectory(
            records=[base.records[0],
                     PerfRecord("brand_new", (0.001,), {})],
            kind="full",
        )
        report = compare(current, base)
        assert report.passed
        statuses = {v.experiment: v.status for v in report.verdicts}
        assert statuses["brand_new"] == "new"
        assert statuses["service_cache:n=20"] == "skipped"

    def test_baseline_file_round_trip(self, tmp_path):
        base = make_trajectory()
        path = write_baseline(base, tmp_path / "baseline.json",
                              tolerances={"apsp_oracle:n=60": 1.9})
        traj, tol = load_baseline(path)
        assert traj.record_map().keys() == base.record_map().keys()
        assert tol["apsp_oracle:n=60"] == 1.9
        assert tol["service_cache:n=20"] == DEFAULT_TOLERANCE

    def test_baseline_merge_preserves_uncovered_records(self, tmp_path):
        # promoting a full run must not drop the quick records the CI
        # perf-gate compares against (the committed baseline is a union)
        path = tmp_path / "baseline.json"
        write_baseline(make_trajectory(), path,
                       tolerances={"apsp_oracle:n=60": 1.9})
        promoted = Trajectory(
            environment={"python": "3.x", "calibration_seconds": 0.01},
            records=[PerfRecord("apsp_oracle:n=100", (0.020,), {}),
                     PerfRecord("service_cache:n=20", (0.040,), {})],
            kind="full",
        )
        write_baseline(promoted, path)
        traj, tol = load_baseline(path)
        names = set(traj.record_map())
        assert names == {"apsp_oracle:n=60", "service_cache:n=20",
                         "apsp_oracle:n=100"}
        # promoted records win on shared names; old tolerances survive
        assert traj.record_map()["service_cache:n=20"].median_seconds == 0.040
        assert tol["apsp_oracle:n=60"] == 1.9

        write_baseline(promoted, path, merge=False)
        traj, _tol = load_baseline(path)
        assert set(traj.record_map()) == {"apsp_oracle:n=100",
                                          "service_cache:n=20"}

    def test_merge_rescales_kept_records_to_new_calibration(self, tmp_path):
        # old records must stay correct under the merged (new) environment:
        # a 2x-faster machine halves calibration, so kept walls halve too
        path = tmp_path / "baseline.json"
        write_baseline(make_trajectory(), path)  # calibration 0.01
        promoted = Trajectory(
            environment={"python": "3.x", "calibration_seconds": 0.005},
            records=[PerfRecord("apsp_oracle:n=100", (0.020,), {})],
            kind="full",
        )
        write_baseline(promoted, path)
        traj, _tol = load_baseline(path)
        kept = traj.record_map()["service_cache:n=20"]
        assert kept.median_seconds == pytest.approx(0.050 * 0.5)
        # invariant: normalized medians are unchanged by the merge
        assert normalized_median(kept, traj.environment) == pytest.approx(
            0.050 / 0.01
        )

    def test_mixed_calibration_falls_back_to_raw_seconds(self):
        # calibrated current vs uncalibrated baseline must not divide one
        # side only (that would shrink every ratio ~1/calibration)
        base = make_trajectory(environment={"python": "3.x"})  # no calibration
        current = make_trajectory()  # calibrated
        report = compare(current, base)
        assert report.passed
        ratios = [v.ratio for v in report.verdicts if v.ratio is not None]
        assert all(r == pytest.approx(1.0) for r in ratios)
        assert not compare(scaled(current, 2.0), base).passed

    def test_zero_baseline_median_still_enforces_metric_gates(self):
        base = make_trajectory(
            records=[PerfRecord("apsp_oracle:n=60", (0.0,),
                                {"apsp_run_count": 1})]
        )
        ok = make_trajectory(
            records=[PerfRecord("apsp_oracle:n=60", (0.5,),
                                {"apsp_run_count": 1})]
        )
        assert compare(ok, base).passed  # wall gate skipped, counters fine
        broken = make_trajectory(
            records=[PerfRecord("apsp_oracle:n=60", (0.0,),
                                {"apsp_run_count": 3})]
        )
        report = compare(broken, base)
        assert not report.passed
        assert report.verdicts[0].status == "metric-regression"

    def test_zero_overlap_fails_the_gate(self):
        # renaming/resizing every scenario must not pass vacuously
        base = make_trajectory()
        renamed = make_trajectory(
            records=[PerfRecord("apsp_oracle:n=80", (0.010,),
                                {"apsp_run_count": 1})]
        )
        report = compare(renamed, base)
        assert not report.passed
        assert any(v.status == "no-overlap" for v in report.verdicts)

    def test_metrics_int_round_trip(self):
        rec = PerfRecord.from_json(
            {"experiment": "x", "wall_seconds": [0.1],
             "metrics": {"apsp_run_count": 1, "speedup": 15.5}}
        )
        assert rec.metrics["apsp_run_count"] == 1
        assert isinstance(rec.metrics["apsp_run_count"], int)
        assert isinstance(rec.metrics["speedup"], float)

    def test_promote_rejects_bench_and_uncalibrated_trajectories(self, tmp_path):
        # a --perf-record trajectory (uncalibrated, pytest nodeids) must not
        # be able to strip calibration from the committed baseline
        bench_kind = make_trajectory(kind="bench")
        with pytest.raises(ReproError, match="bench"):
            write_baseline(bench_kind, tmp_path / "b.json")
        uncalibrated = make_trajectory(environment={"python": "3.x"})
        with pytest.raises(ReproError, match="uncalibrated"):
            write_baseline(uncalibrated, tmp_path / "b.json")

    def test_report_json_shape(self):
        base = make_trajectory()
        data = compare(scaled(base, 2.0), base).to_json()
        assert data["passed"] is False
        assert all({"experiment", "status", "detail"} <= v.keys()
                   for v in data["verdicts"])


class TestWorkloadMatrix:
    def test_legs_instantiate_and_reduce(self):
        leg = MATRIX["diam2-small"]
        workloads = matrix_sweep("diam2-small")
        assert len(workloads) == len(leg.sizes) * len(leg.seeds)
        red = reduce_to_path_tsp(workloads[0].graph, LpSpec(leg.spec))
        assert red.instance.n == workloads[0].n

    def test_every_reduction_leg_spec_is_applicable(self):
        # each reduction leg's spec must be solvable on every graph it
        # generates — exactly what reduction_leg_scenario does mid-suite.
        # reduction=False legs (diameter >> len(spec)) route to the
        # oracle-scaling scenario instead and are checked below.
        for leg in MATRIX.values():
            if not leg.reduction:
                continue
            for wl in matrix_sweep(leg.name):
                reduce_to_path_tsp(wl.graph, LpSpec(leg.spec))

    def test_oracle_legs_are_out_of_reduction_regime(self):
        from repro.graphs.analysis import get_analysis

        for leg in MATRIX.values():
            if leg.reduction:
                continue
            wl = matrix_sweep(leg.name)[0]
            assert wl.n > 256  # the blocked-oracle regime, never dense
            if leg.family == "sparse":
                assert get_analysis(wl.graph).diameter > len(leg.spec)
            else:  # the dense leg: diameter 2, so the bit step does the work
                assert leg.family == "dense"
                assert get_analysis(wl.graph).diameter == 2

    def test_unknown_leg(self):
        with pytest.raises(ReproError, match="unknown matrix leg"):
            matrix_sweep("warp-speed")

    def test_dynamic_legs_stream_applies_cleanly(self):
        # every op must be valid when applied in order from a fresh copy —
        # exactly what the DYNAMIC perf scenario and bench E13 do
        for name, leg in DYNAMIC.items():
            base, ops = churn_stream(name)
            assert len(ops) == leg.steps
            g = base.copy()
            for op in ops:
                apply_churn_op(g, op)

    def test_ladder_legs_are_applicable(self):
        # cold_ladder solves every leg instance with engine="auto"
        for leg in LADDER.values():
            for wl in leg.workloads():
                reduce_to_path_tsp(wl.graph, LpSpec(leg.spec))

    def test_unknown_dynamic_leg(self):
        with pytest.raises(ReproError, match="unknown dynamic leg"):
            churn_stream("warp-speed")


class TestSuiteValidation:
    def test_rejects_bad_repeats(self):
        from repro.perf import run_perf_suite

        with pytest.raises(ReproError, match="repeats"):
            run_perf_suite(quick=True, repeats=0)

    def test_rejects_unknown_leg(self):
        from repro.perf import run_perf_suite

        with pytest.raises(ReproError, match="unknown matrix legs"):
            run_perf_suite(quick=True, legs=["warp-speed"])


class TestEnvironment:
    def test_provenance_fields(self):
        env = environment_provenance(calibrate=False)
        assert env["cpu_count"] >= 1
        assert "numpy" in env and "python" in env
        assert "calibration_seconds" not in env

    def test_cpu_count_is_the_effective_affinity_count(self):
        from repro.parallel.pool import effective_cpu_count

        env = environment_provenance(calibrate=False)
        # cpu_count records what the run could actually use (affinity /
        # cgroup mask); the host's logical count rides along separately
        assert env["cpu_count"] == effective_cpu_count()
        assert env["logical_cpu_count"] >= env["cpu_count"]


class TestCliPerf:
    def run_cli(self, argv):
        from repro.cli import main
        old_out = sys.stdout
        sys.stdout = io.StringIO()
        try:
            code = main(argv)
            return code, sys.stdout.getvalue()
        finally:
            sys.stdout = old_out

    def test_perf_run_quick_writes_schema_valid_bench(self, tmp_path):
        code, _out = self.run_cli(
            ["perf", "run", "--quick", "--repeats", "1", "--leg", "diam2-small",
             "--dir", str(tmp_path)]
        )
        assert code == 0
        bench = latest_bench_path(tmp_path)
        assert bench is not None and bench.name == "BENCH_0.json"
        data = json.loads(bench.read_text())
        assert validate_trajectory(data) == []
        records = {r["experiment"]: r for r in data["records"]}
        apsp = records["apsp_oracle:n=60"]
        assert apsp["metrics"]["apsp_run_count"] == 1
        cache = records["service_cache:n=20"]
        assert cache["metrics"]["cache_hits"] > 0
        assert cache["metrics"]["cache_hit_rate"] == pytest.approx(0.9)
        dynamic = records["dynamic_churn:churn-diam2-small"]
        assert dynamic["metrics"]["full_apsp_refresh_count"] == 0
        ladder = records["cold_ladder"]["metrics"]
        assert ladder["certified_rate"] >= 0.6  # deterministic legs
        assert ladder["corollary2_share"] > 0 and ladder["lk_share"] > 0
        assert data["environment"]["calibration_seconds"] > 0

        # exercise the compare path against the committed baseline; only the
        # report shape is asserted — the verdict depends on this machine's
        # load (a single-repeat run), and the deterministic pieces
        # (apsp_run_count, hit rate, injected-regression exit codes) are
        # asserted elsewhere in this file
        code, out = self.run_cli(
            ["perf", "compare", "--dir", str(tmp_path),
             "--baseline", str(REPO_BASELINE), "--json"]
        )
        report = json.loads(out)
        assert {"passed", "verdicts"} <= report.keys()

    def test_perf_compare_fails_on_injected_2x_slowdown(self, tmp_path):
        # synthetic current = committed baseline with all walls doubled:
        # deterministic on any machine, exactly the acceptance scenario
        base, _tol = load_baseline(REPO_BASELINE)
        write_trajectory(scaled(base, 2.0), directory=tmp_path)
        code, out = self.run_cli(
            ["perf", "compare", "--dir", str(tmp_path),
             "--baseline", str(REPO_BASELINE)]
        )
        assert code == 1
        assert "regression" in out and "perf gate: FAIL" in out

    def test_perf_compare_passes_against_itself(self, tmp_path):
        base, _tol = load_baseline(REPO_BASELINE)
        write_trajectory(base, directory=tmp_path)
        code, out = self.run_cli(
            ["perf", "compare", "--dir", str(tmp_path),
             "--baseline", str(REPO_BASELINE)]
        )
        assert code == 0
        assert "perf gate: PASS" in out

    def test_perf_compare_without_bench_errors(self, tmp_path):
        code, _out = self.run_cli(["perf", "compare", "--dir", str(tmp_path)])
        assert code == 2

    def test_perf_baseline_promotes_latest_bench(self, tmp_path):
        write_trajectory(make_trajectory(), directory=tmp_path)
        out_path = tmp_path / "baseline.json"
        code, _out = self.run_cli(
            ["perf", "baseline", "--dir", str(tmp_path), "--out", str(out_path)]
        )
        assert code == 0
        traj, tol = load_baseline(out_path)
        assert set(tol) == set(traj.record_map())
