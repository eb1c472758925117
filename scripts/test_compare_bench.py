#!/usr/bin/env python3
"""Unit tests for the perf-trajectory comparator (scripts/compare_bench.py).

Run by the CI lint job (`python3 -m unittest discover -s scripts`) and by
ctest (`compare_bench_unit`), so regressions in the gating logic fail
before the build matrix spends an hour discovering them the hard way.
Each test builds a baseline/current directory pair under a tempdir in the
record shape bench/bench_util.h writes — identity fields at the top
level, a nested "measure" object and a nested "host" stamp — and asserts
on the exit code of `compare()`, the same entry point the workflow calls.
"""

import json
import os
import shutil
import tempfile
import unittest

import compare_bench

HOST_A = {
    "host_cpus": 8,
    "host_nproc": 8,
    "host_cpu_model": "TestCPU v1",
    "simd": "avx2",
}
HOST_B = {
    "host_cpus": 64,
    "host_nproc": 32,
    "host_cpu_model": "TestCPU v2",
    "simd": "avx2",
}
# Same machine as HOST_A but run with the scalar fallback forced
# (PARDPP_SIMD=scalar): timings across dispatch arms are advisory.
HOST_A_SCALAR = dict(HOST_A, simd="scalar")


def record(wall_ms, host=None, measure=None, **identity):
    entry = {"experiment": "unit", "family": "f", "pool": 1}
    entry.update(identity)
    entry["measure"] = {"wall_ms": wall_ms, **(measure or {})}
    if host is not None:
        entry["host"] = host
    return entry


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="compare-bench-test-")
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)

    def write_dir(self, name, records):
        directory = os.path.join(self.tmp, name)
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "BENCH_unit.json"), "w") as out:
            json.dump(records, out)
        return directory

    def compare(self, baseline, current, advisory=False):
        return compare_bench.compare(
            baseline, current, warn=0.10, fail=0.25, advisory=advisory
        )

    def snapshot_of(self, records):
        """Writes `records` as a snapshot and explodes it back into a
        baseline directory; -> (snapshot entries, baseline dir)."""
        bench_dir = self.write_dir("out", records)
        snapshot = os.path.join(self.tmp, "BENCH_trajectory.json")
        self.assertEqual(compare_bench.write_snapshot(snapshot, bench_dir), 0)
        with open(snapshot) as handle:
            entries = json.load(handle)
        exploded = compare_bench.snapshot_as_baseline(
            snapshot, os.path.join(self.tmp, "exploded")
        )
        return entries, exploded

    def test_missing_baseline_dir_is_not_gating(self):
        current = self.write_dir("current", [record(100.0, HOST_A)])
        missing = os.path.join(self.tmp, "does-not-exist")
        self.assertEqual(self.compare(missing, current), 0)

    def test_missing_current_records_fail(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        empty = os.path.join(self.tmp, "empty")
        os.makedirs(empty)
        self.assertEqual(self.compare(baseline, empty), 1)

    def test_new_record_without_baseline_is_informational(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir(
            "current",
            [record(100.0, HOST_A), record(5000.0, HOST_A, n=999)],
        )
        self.assertEqual(self.compare(baseline, current), 0)

    def test_same_host_regression_gates(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_A)])
        self.assertEqual(self.compare(baseline, current), 1)

    def test_advisory_downgrades_regression_to_exit_zero(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_A)])
        self.assertEqual(self.compare(baseline, current, advisory=True), 0)

    def test_host_mismatch_downgrades_regression_to_warning(self):
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_B)])
        self.assertEqual(self.compare(baseline, current), 0)

    def test_host_stamp_is_not_identity(self):
        # A runner change must not orphan the record pair: the records
        # still match, and a within-threshold timing passes cleanly.
        self.assertEqual(
            compare_bench.identity_of(record(100.0, HOST_A)),
            compare_bench.identity_of(record(101.0, HOST_B)),
        )
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(101.0, HOST_B)])
        self.assertEqual(self.compare(baseline, current), 0)

    def test_records_without_host_stamp_still_gate(self):
        # A record without a host stamp on either side is not read as a
        # host mismatch.
        baseline = self.write_dir("baseline", [record(100.0)])
        current = self.write_dir("current", [record(200.0, HOST_A)])
        self.assertEqual(self.compare(baseline, current), 1)

    def test_simd_arm_mismatch_downgrades_regression_to_warning(self):
        # Same machine, but the current run forced the scalar fallback:
        # the slowdown is the arm, not a code regression.
        baseline = self.write_dir("baseline", [record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_A_SCALAR)])
        self.assertEqual(self.compare(baseline, current), 0)

    def test_unknown_measure_keeps_identity_and_pairs(self):
        # A measure the comparator has never heard of is still a measure:
        # the record keeps its identity, pairs with its baseline, and its
        # wall time gates.
        def fresh(wall_ms, count):
            return record(
                wall_ms, HOST_A, measure={"never_seen_before": count}
            )

        self.assertEqual(
            compare_bench.identity_of(fresh(100.0, 1)),
            compare_bench.identity_of(record(100.0)),
        )
        baseline = self.write_dir("baseline", [fresh(100.0, 1)])
        self.assertEqual(
            self.compare(baseline, self.write_dir("same", [fresh(101.0, 9)])),
            0,
        )
        self.assertEqual(
            self.compare(baseline, self.write_dir("slow", [fresh(200.0, 9)])),
            1,
        )

    def test_unknown_ms_measure_gates(self):
        # Any measure named *_ms is a wall time, listed nowhere else.
        def timed(novel_ms):
            return record(100.0, HOST_A, measure={"novel_phase_ms": novel_ms})

        baseline = self.write_dir("baseline", [timed(10.0)])
        current = self.write_dir("current", [timed(30.0)])
        self.assertEqual(self.compare(baseline, current), 1)

    def test_measures_not_named_ms_never_gate(self):
        # Counters, rates and flags move run to run; only wall times gate.
        def counted(rate, chi_square):
            return record(
                100.0,
                HOST_A,
                measure={
                    "samples_per_sec": rate,
                    "chi_square": chi_square,
                    "regression": False,
                },
            )

        baseline = self.write_dir("baseline", [counted(1000.0, 3.0)])
        current = self.write_dir("current", [counted(10.0, 300.0)])
        self.assertEqual(self.compare(baseline, current), 0)

    def test_scaling_regression_gates_on_matching_host(self):
        # Pool-4 wall clock is unchanged, but the pool-1 reference got
        # faster, so the parallel speedup collapsed 4.0x -> 2.0x. No
        # individual timing regresses; only the scaling gate can catch
        # this.
        baseline = self.write_dir(
            "baseline",
            [record(100.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        current = self.write_dir(
            "current",
            [record(50.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        self.assertEqual(self.compare(baseline, current), 1)
        self.assertEqual(self.compare(baseline, current, advisory=True), 0)

    def test_scaling_drop_across_hosts_is_advisory(self):
        # Same speedup collapse, but the runs disagree on the host:
        # speedups from different core counts are never comparable.
        baseline = self.write_dir(
            "baseline",
            [record(100.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        current = self.write_dir(
            "current",
            [record(50.0, HOST_B, pool=1), record(25.0, HOST_B, pool=4)],
        )
        self.assertEqual(self.compare(baseline, current), 0)

    def test_scaling_improvement_passes(self):
        baseline = self.write_dir(
            "baseline",
            [record(100.0, HOST_A, pool=1), record(50.0, HOST_A, pool=4)],
        )
        current = self.write_dir(
            "current",
            [record(100.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        self.assertEqual(self.compare(baseline, current), 0)

    def test_scaling_without_pool1_reference_is_skipped(self):
        # A baseline that never recorded pool 1 yields no speedup to
        # compare against; the current run's scaling is informational.
        baseline = self.write_dir(
            "baseline", [record(25.0, HOST_A, pool=4)]
        )
        current = self.write_dir(
            "current",
            [record(1000.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        self.assertEqual(self.compare(baseline, current), 0)

    def test_scaling_speedups_groups_by_identity_minus_pool(self):
        records = compare_bench.load_records(
            self.write_dir(
                "out",
                [
                    record(100.0, HOST_A, pool=1, n=64),
                    record(25.0, HOST_A, pool=4, n=64),
                    record(200.0, HOST_A, pool=1, n=128),
                    record(40.0, HOST_A, pool=4, n=128),
                ],
            )
        )
        speedups = compare_bench.scaling_speedups(records)
        self.assertEqual(len(speedups), 2)
        by_n = {
            dict(rest)["n"]: speedup
            for (_, rest, _), (speedup, _) in speedups.items()
        }
        self.assertAlmostEqual(by_n[64], 4.0)
        self.assertAlmostEqual(by_n[128], 5.0)

    def test_snapshot_keeps_identity_wall_times_and_host(self):
        entries, _ = self.snapshot_of(
            [
                record(
                    100.0,
                    HOST_A,
                    measure={"draw_ms": 2.5, "speedup": 1.0},
                    n=64,
                )
            ]
        )
        self.assertEqual(
            entries,
            [
                {
                    "file": "BENCH_unit.json",
                    "experiment": "unit",
                    "family": "f",
                    "pool": 1,
                    "n": 64,
                    "measure": {"wall_ms": 100.0, "draw_ms": 2.5},
                    "host": HOST_A,
                }
            ],
        )

    def test_snapshot_round_trip_keeps_host_gate_live(self):
        # Exploding the snapshot back into a baseline keeps the mismatch
        # machinery live: a regression on different hardware is advisory.
        _, exploded = self.snapshot_of([record(100.0, HOST_A)])
        current = self.write_dir("current", [record(200.0, HOST_B)])
        self.assertEqual(self.compare(exploded, current), 0)
        same_host = self.write_dir("same-host", [record(200.0, HOST_A)])
        self.assertEqual(self.compare(exploded, same_host), 1)

    def test_snapshot_round_trip_keeps_scaling_gate_live(self):
        _, exploded = self.snapshot_of(
            [record(100.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)]
        )
        collapsed = self.write_dir(
            "collapsed",
            [record(50.0, HOST_A, pool=1), record(25.0, HOST_A, pool=4)],
        )
        self.assertEqual(self.compare(exploded, collapsed), 1)
        other_host = self.write_dir(
            "other-host",
            [record(50.0, HOST_B, pool=1), record(25.0, HOST_B, pool=4)],
        )
        self.assertEqual(self.compare(exploded, other_host), 0)

    def test_steady_state_records_round_trip_and_gate(self):
        # EXP-SS records measure `steady_draw_ms` next to per-plan proposal
        # stats (p_domain, tail_rate) that vary run to run: a changed tail
        # rate must not orphan the pair, while profile/mode are identity
        # (a new mode is a distinct series), and the steady timing must
        # survive the snapshot round trip and gate a same-host slowdown.
        def steady(ms, host, **stats):
            return {
                "experiment": "steadystate_distill",
                "family": "feature",
                "profile": "spiked",
                "mode": "persistent",
                "n": 1000000,
                "measure": {"steady_draw_ms": ms, **stats},
                "host": host,
            }

        (entry,), exploded = self.snapshot_of(
            [steady(0.5, HOST_A, p_domain=0.97, tail_rate=0.03)]
        )
        self.assertEqual(entry["measure"], {"steady_draw_ms": 0.5})
        self.assertEqual(entry["mode"], "persistent")
        # Different stats, same identity: still matched, and the 2x
        # steady-state slowdown gates.
        slower = self.write_dir(
            "slower",
            [steady(1.0, HOST_A, p_domain=0.90, tail_rate=0.10)],
        )
        self.assertEqual(self.compare(exploded, slower), 1)
        # A different proposal mode is a new series, not a regression.
        other_mode = self.write_dir(
            "other-mode",
            [dict(steady(1.0, HOST_A), mode="other")],
        )
        self.assertEqual(self.compare(exploded, other_mode), 0)

    def test_serving_records_pair_across_batch_shapes_and_gate(self):
        # EXP-SRV records carry coalescing/registry telemetry (batches,
        # coalesced_per_batch, queue_peak, ...) that depends on dispatch
        # timing, so two runs of the same config rarely agree on it. Both
        # the coalesced wall clock (wall_ms) and the one-session-per-
        # request baseline (persession_wall_ms) are wall times that
        # survive the snapshot and gate a same-host slowdown.
        def serving(wall, persession, host, **stats):
            return {
                "experiment": "serving_coalescing",
                "family": "symmetric",
                "n": 128,
                "k": 10,
                "requests": 16,
                "pool": 1,
                "measure": {
                    "wall_ms": wall,
                    "persession_wall_ms": persession,
                    **stats,
                },
                "host": host,
            }

        (entry,), exploded = self.snapshot_of(
            [serving(30.0, 200.0, HOST_A, batches=4, coalesced_per_batch=4.0,
                     max_coalesced=7, queue_peak=12, sessions=1,
                     speedup_vs_persession=6.6,
                     persession_draws_per_sec=80.0)]
        )
        self.assertEqual(
            entry["measure"], {"wall_ms": 30.0, "persession_wall_ms": 200.0}
        )
        # Different batch shape, same identity: paired and clean.
        reshaped = self.write_dir(
            "reshaped",
            [serving(31.0, 201.0, HOST_A, batches=16, coalesced_per_batch=1.0,
                     max_coalesced=1, queue_peak=1, sessions=1,
                     speedup_vs_persession=6.5,
                     persession_draws_per_sec=79.0)],
        )
        self.assertEqual(self.compare(exploded, reshaped), 0)
        # A regression in either timing lane gates: here the coalesced
        # path doubled while the baseline held still.
        slower = self.write_dir(
            "slower",
            [serving(60.0, 200.0, HOST_A, batches=4)],
        )
        self.assertEqual(self.compare(exploded, slower), 1)

    def test_recovery_counters_are_measures_not_identity(self):
        # Session recovery counters (retries / degraded_draws / failures)
        # differ between a clean baseline and a fault-injection run. The
        # records must still pair up — a degraded run is the same
        # experiment, not an orphan — and the counter deltas themselves
        # must not gate.
        def counted(wall_ms, retries, degraded, failures):
            return record(
                wall_ms,
                HOST_A,
                measure={
                    "retries": retries,
                    "degraded_draws": degraded,
                    "failures": failures,
                },
            )

        baseline = self.write_dir("baseline", [counted(100.0, 0, 0, 0)])
        current = self.write_dir("current", [counted(101.0, 7, 5, 2)])
        self.assertEqual(self.compare(baseline, current), 0)
        # Were the counters identity, the baseline record would be
        # orphaned and this regression would read as a new record.
        regressed = self.write_dir("regressed", [counted(200.0, 7, 5, 2)])
        self.assertEqual(self.compare(baseline, regressed), 1)


if __name__ == "__main__":
    unittest.main()
