#!/usr/bin/env python3
"""Perf-trajectory comparator for BENCH_*.json series.

Every bench emits a JSON array of records into bench-out/
(bench/bench_util.h JsonSeries). A record states the role of its fields:

    top-level fields   identity (experiment, family, n, d, k, pool, ...)
    "measure": {...}   what the run measured
    "host": {...}      the host stamp (CPU counts and model, SIMD arm)

Records are matched between a baseline and a current run by identity,
and the measures whose names end in `_ms` — the wall times — of matching
records are compared as ratios:

    ratio = current / baseline
    ratio > 1 + warn_threshold  -> warning  (::warning in GitHub Actions)
    ratio > 1 + fail_threshold  -> failure  (exit 1, ::error)

Faster-than-baseline records and records present on only one side are
reported informationally. When both records carry a host stamp and the
stamps differ, fail-level slowdowns are downgraded to warnings: wall
clocks measured on different hardware, or on a different SIMD dispatch
arm, are advisory, not evidence of a code regression. `--advisory`
downgrades every failure to a warning — the mode for comparing against
the in-repo BENCH_trajectory.json snapshot, which is recorded on a
different machine class than the CI runners.

Parallel scaling is a first-class trajectory metric: records that carry
a `pool` identity field are grouped by identity-minus-pool, each pool's
speedup over the group's pool-1 record is computed from `wall_ms`, and
the speedups are compared between baseline and current. A scaling drop
beyond the thresholds gates only when both sides carry the same host
stamp; speedups measured on different hosts are never comparable, so
anything else downgrades the drop to advisory.

Snapshot mode (`--write-snapshot FILE DIR`) curates the trajectory file
tracked in-repo: identity, the wall-time measures and the host stamp,
sorted by key, so the diff of a PR shows exactly which timings moved.
"""

import argparse
import json
import os
import sys


def identity_of(record):
    """-> the record's identity: every top-level field but measure/host."""
    return tuple(
        sorted(
            (field, value)
            for field, value in record.items()
            if field not in ("measure", "host")
        )
    )


def wall_times(record):
    """-> {name: value} of the record's measures whose names end in _ms."""
    return {
        field: value
        for field, value in record.get("measure", {}).items()
        if field.endswith("_ms")
    }


def load_records(directory):
    """-> {(file, identity): record} for all BENCH_*.json."""
    records = {}
    if not os.path.isdir(directory):
        return records
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as handle:
                series = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"::warning::could not parse {path}: {error}")
            continue
        for record in series:
            records[(name, identity_of(record))] = record
    return records


def host_mismatch(base, record):
    """True when both records carry a host stamp and the stamps differ."""
    return "host" in base and "host" in record and base["host"] != record["host"]


def same_host(base, record):
    """True only when both records carry the same host stamp.

    Stricter than `not host_mismatch`: parallel-scaling comparisons need
    a positively matching host to gate, so a record missing the stamp
    stays advisory rather than gating against an unknown topology.
    """
    return "host" in base and "host" in record and base["host"] == record["host"]


def scaling_speedups(records):
    """-> {(file, identity-minus-pool, pool): (speedup, record)}.

    Groups records that carry a `pool` identity field by everything else
    in their identity, then computes each pool's speedup over the
    group's pool-1 wall clock. Groups without a pool-1 record (or with a
    non-positive reference) contribute nothing.
    """
    groups = {}
    for (name, identity), record in records.items():
        pool = None
        rest = []
        for field, value in identity:
            if field == "pool":
                pool = value
            else:
                rest.append((field, value))
        if pool is None or "wall_ms" not in record.get("measure", {}):
            continue
        try:
            pool = int(pool)
        except (TypeError, ValueError):
            continue
        groups.setdefault((name, tuple(rest)), {})[pool] = record
    speedups = {}
    for (name, rest), by_pool in groups.items():
        reference = by_pool.get(1)
        if reference is None:
            continue
        ref_wall = float(reference["measure"]["wall_ms"])
        if ref_wall <= 0.0:
            continue
        for pool, record in by_pool.items():
            if pool == 1:
                continue
            wall = float(record["measure"]["wall_ms"])
            if wall <= 0.0:
                continue
            speedups[(name, rest, pool)] = (ref_wall / wall, record)
    return speedups


def compare_scaling(baseline, current, warn, fail, advisory):
    """Gates per-pool speedups; -> (matched, warnings, failures)."""
    base_scaling = scaling_speedups(baseline)
    cur_scaling = scaling_speedups(current)
    matched = 0
    warnings = 0
    failures = 0
    for key, (cur_speedup, cur_record) in sorted(cur_scaling.items()):
        if key not in base_scaling:
            continue
        base_speedup, base_record = base_scaling[key]
        matched += 1
        name, rest, pool = key
        fields = ", ".join(f"{field}={value}" for field, value in rest)
        line = (
            f"{name} [{fields}] scaling@pool={pool}: "
            f"{base_speedup:.2f}x -> {cur_speedup:.2f}x"
        )
        if cur_speedup < base_speedup * (1.0 - fail):
            if not same_host(base_record, cur_record):
                warnings += 1
                print(
                    "::warning::scaling drop beyond fail threshold "
                    f"(hosts differ: advisory): {line}"
                )
            else:
                failures += 1
                level = "warning" if advisory else "error"
                print(f"::{level}::scaling drop beyond fail threshold: {line}")
        elif cur_speedup < base_speedup * (1.0 - warn):
            warnings += 1
            print(f"::warning::scaling drop: {line}")
        else:
            print(f"ok: {line}")
    return matched, warnings, failures


def describe(key):
    name, identity = key
    fields = ", ".join(f"{field}={value}" for field, value in identity)
    return f"{name} [{fields}]"


def compare(baseline_dir, current_dir, warn, fail, advisory):
    baseline = load_records(baseline_dir)
    current = load_records(current_dir)
    if not baseline:
        print(f"no baseline records under {baseline_dir}; nothing to gate")
        return 0
    if not current:
        print(f"::error::no current records under {current_dir}")
        return 1

    matched = 0
    warnings = 0
    failures = 0
    for key, record in sorted(current.items()):
        if key not in baseline:
            print(f"new record (no baseline): {describe(key)}")
            continue
        base = baseline[key]
        mismatch = host_mismatch(base, record)
        base_times = wall_times(base)
        for field, cur_value in sorted(wall_times(record).items()):
            if field not in base_times:
                continue
            base_value = float(base_times[field])
            cur_value = float(cur_value)
            if base_value <= 0.0:
                continue
            matched += 1
            ratio = cur_value / base_value
            line = (
                f"{describe(key)} {field}: {base_value:.3f} -> "
                f"{cur_value:.3f} ms ({ratio:.2f}x)"
            )
            if ratio > 1.0 + fail:
                if mismatch:
                    warnings += 1
                    print(
                        "::warning::slowdown beyond fail threshold "
                        f"(host mismatch: advisory): {line}"
                    )
                else:
                    failures += 1
                    level = "warning" if advisory else "error"
                    print(
                        f"::{level}::slowdown beyond fail threshold: {line}"
                    )
            elif ratio > 1.0 + warn:
                warnings += 1
                print(f"::warning::slowdown: {line}")
            else:
                print(f"ok: {line}")
    for key in sorted(baseline):
        if key not in current:
            print(f"baseline record disappeared: {describe(key)}")

    scaled, scale_warn, scale_fail = compare_scaling(
        baseline, current, warn, fail, advisory
    )
    warnings += scale_warn
    failures += scale_fail

    print(
        f"\ncompared {matched} timings and {scaled} scaling points: "
        f"{warnings} warnings, {failures} beyond the fail threshold"
        + (" (advisory)" if advisory else "")
    )
    return 1 if failures and not advisory else 0


def write_snapshot(path, directory):
    records = load_records(directory)
    if not records:
        print(f"::error::no records under {directory} to snapshot")
        return 1
    snapshot = []
    for (name, identity), record in sorted(records.items()):
        entry = {"file": name, **dict(identity), "measure": wall_times(record)}
        if "host" in record:
            entry["host"] = record["host"]
        snapshot.append(entry)
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} ({len(snapshot)} records)")
    return 0


def snapshot_as_baseline(snapshot_path, tmp_dir):
    """Explodes a trajectory snapshot back into per-file record maps."""
    with open(snapshot_path) as handle:
        snapshot = json.load(handle)
    per_file = {}
    for entry in snapshot:
        entry = dict(entry)
        name = entry.pop("file")
        per_file.setdefault(name, []).append(entry)
    os.makedirs(tmp_dir, exist_ok=True)
    for name, series in per_file.items():
        with open(os.path.join(tmp_dir, name), "w") as handle:
            json.dump(series, handle)
    return tmp_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="baseline bench-out dir")
    parser.add_argument("current", nargs="?", help="current bench-out dir")
    parser.add_argument("--warn", type=float, default=0.10,
                        help="warn at > this fractional slowdown")
    parser.add_argument("--fail", type=float, default=0.25,
                        help="fail at > this fractional slowdown")
    parser.add_argument("--advisory", action="store_true",
                        help="report fail-level slowdowns as warnings only")
    parser.add_argument("--snapshot", metavar="FILE",
                        help="use a BENCH_trajectory.json snapshot as the "
                             "baseline instead of a directory")
    parser.add_argument("--write-snapshot", nargs=2,
                        metavar=("FILE", "DIR"),
                        help="write a curated trajectory snapshot of DIR "
                             "to FILE and exit")
    args = parser.parse_args()

    if args.write_snapshot:
        return write_snapshot(*args.write_snapshot)
    if args.snapshot:
        if args.current is None:
            args.current = args.baseline
        if args.current is None:
            parser.error("--snapshot needs a current directory")
        args.baseline = snapshot_as_baseline(
            args.snapshot, os.path.join(args.current, ".snapshot-baseline")
        )
    if args.baseline is None or args.current is None:
        parser.error("need baseline and current directories")
    return compare(args.baseline, args.current, args.warn, args.fail,
                   args.advisory)


if __name__ == "__main__":
    sys.exit(main())
