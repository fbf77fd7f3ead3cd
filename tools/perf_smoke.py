#!/usr/bin/env python3
"""Perf smoke gate: compare a fresh bench JSON against the committed artifact.

Usage:
  perf_smoke.py <committed.json> <fresh.json> [--tolerance FRAC]
  perf_smoke.py --policy <committed_policy.json> <fresh_policy.json>
                [--tolerance FRAC]
  perf_smoke.py --host-overhead <off.json[,off2,...]> <on.json[,on2,...]>
                [--overhead-tolerance FRAC]
  perf_smoke.py --ledger <result.json[,result2,...]> [--ledger ...]

Default mode checks (all on *modeled*, machine-independent metrics):
  1. every committed gauge whose name contains "cycles_per_op" must not
     regress: fresh <= committed * (1 + tolerance)  [lower is better];
  2. the "hw.cycles" counter, when present, must match exactly — the
     cycle-accurate simulation is deterministic at a fixed seed, so any
     drift means the modeled circuit changed without the artifact being
     regenerated;
  3. the "shard_scaling.n1_identical_to_single" gauge, when present, must
     be 1.0 in the fresh run (the bench also exits non-zero on its own);
  4. the "host.ffs.speedup_vs_model" gauge, when present, must be at
     least --ffs-speedup-floor (default 3.0). Both backends are measured
     in the same process on the same stream, so the ratio is robust to
     machine speed even though each side is wall-clock.
  5. at each geometry's largest live set N in line_rate's hold-model
     sweep, host.sweep.<geom>.n<N>.ffs_ns_per_op must not exceed
     host.sweep.<geom>.n<N>.heap_ns_per_op: the FfsSorter must beat the
     binary heap where its bitmap is meant to win. Both run in the same
     process on the same stream, like the ratio in 4; a committed
     artifact with a sweep requires one in the fresh run.

Optional per-backend absolute floors (machine-specific, off by default):
--model-floor / --ffs-floor gate host.model.ops_per_sec and
host.ffs.ops_per_sec in the fresh run. Use these only where the runner
hardware is known (e.g. a dedicated perf box).

--policy mode gates bench/policy_comparison artifacts (modeled,
seed-deterministic metrics only):
  1. every fresh row with policy.<row>.exact == 1 must report exactly
     zero inversions — an exact PIFO that inverts is a scheduler bug,
     not a perf regression, and no tolerance applies;
  2. every approximation row (exact == 0) must stay inside the committed
     inversion-rate envelope: fresh <= committed * (1 + tolerance);
  3. an approximation whose committed rate is non-zero must stay
     non-zero — a sudden 0 means the inversion meter stopped observing,
     not that SP-PIFO/RIFO became exact;
  4. every committed policy.* row must still be present in the fresh run.

--host-overhead mode gates the cost of telemetry itself: both file lists
come from the *same machine and bench*, the first run plain, the second
with --timeseries (host profiler attached). Comma-separated lists
are best-of-N: the best ops/sec on each side is compared, and the run
fails if telemetry costs more than --overhead-tolerance (default 3%) of
host.ops_per_sec.

--ledger mode gates perfbench's per-layer ledger: each file holds the
result line of one `perfbench/run.py --trace 1` run, and every run must
be correct with no failed op. The same-process ratios adapter_over_bare
(TagQueue adapter / bare sorter) and wrapper_over_bare (one-bank
ShardedSorter / bare TagSorter) must not exceed 1.5. Both halves of each ratio are timed in one process on one stream,
so the gate holds on any box. A comma-separated list is best-of-N runs
of one workload (the smallest ratio gates), as in --host-overhead mode:
a transient stall on a shared runner inflates one run, not every run.

host.* *wall-clock* gauges (elapsed_ms, ops_per_sec) vary machine to
machine and are skipped by the default mode's name scan; the same-process
ffs/model and ffs/heap ratios above are the only host.* values that gate. Exits 0 when
every check passes, 1 otherwise.
"""

import argparse
import json
import re
import sys


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def flat_metrics(doc):
    metrics = doc.get("metrics", {})
    flat = {}
    flat.update(metrics.get("counters", {}))
    flat.update(metrics.get("gauges", {}))
    return flat


def best_ops_per_sec(paths):
    """Best-of-N host.ops_per_sec over a comma-separated file list."""
    best = None
    for path in paths.split(","):
        metrics = flat_metrics(load_doc(path))
        ops = metrics.get("host.ops_per_sec")
        if ops is None:
            raise SystemExit(f"perf_smoke: {path} has no host.ops_per_sec "
                             "(bench must call record_host_ops)")
        best = ops if best is None or ops > best else best
    return best


def run_host_overhead(args):
    off = best_ops_per_sec(args.committed)
    on = best_ops_per_sec(args.fresh)
    floor = off * (1.0 - args.overhead_tolerance)
    overhead = 1.0 - on / off if off > 0 else 0.0
    print(f"  telemetry off: {off:.0f} ops/s (best of "
          f"{args.committed.count(',') + 1})")
    print(f"  telemetry on : {on:.0f} ops/s (best of "
          f"{args.fresh.count(',') + 1})")
    print(f"  overhead     : {overhead * 100.0:.2f}% "
          f"(limit {args.overhead_tolerance * 100.0:.1f}%)")
    if on < floor:
        print(f"PERF SMOKE FAIL: telemetry-on hot path below "
              f"{floor:.0f} ops/s floor", file=sys.stderr)
        return 1
    print("PERF SMOKE PASS (telemetry overhead within budget)")
    return 0


LEDGER_RATIOS = ("adapter_over_bare", "wrapper_over_bare")
# The smallest value on a 0.25 grid that the best-of-three cleared on
# both gated workloads in five repeated CI-style runs (3-s --trace 1 runs
# on a shared 4-vCPU VM; worst best-of-three 1.297). Never raise it.
LEDGER_CEILING = 1.5


def run_ledger(args):
    failures = []
    checked = 0
    for group in args.ledger:
        best = {}
        for path in group.split(","):
            result = load_doc(path)
            if result.get("correct") is not True or result.get("failed") != 0:
                failures.append(f"{path}: run not correct (correct="
                                f"{result.get('correct')}, failed="
                                f"{result.get('failed')})")
            metrics = result.get("metrics", {})
            for name in LEDGER_RATIOS:
                value = metrics.get(name, {}).get("value")
                if value is None:
                    failures.append(f"{path}: {name} missing — not a "
                                    "--trace 1 result?")
                elif name not in best or value < best[name]:
                    best[name] = value
        runs = group.count(",") + 1
        for name, value in best.items():
            checked += 1
            status = "ok" if value <= LEDGER_CEILING else "OVER"
            print(f"  {group}: {name} {value:.3f} (best of {runs}, ceiling "
                  f"{LEDGER_CEILING:.2f}) {status}")
            if value > LEDGER_CEILING:
                failures.append(f"{group}: {name} {value:.3f} > "
                                f"{LEDGER_CEILING:.2f}")
    if failures:
        print(f"PERF SMOKE FAIL ({len(failures)} issue(s)):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"PERF SMOKE PASS ({checked} ledger ratios)")
    return 0


def policy_rows(metrics):
    """Map row name -> {metric: value} over the policy.* gauges."""
    rows = {}
    for name, value in metrics.items():
        if not name.startswith("policy."):
            continue
        row, _, metric = name[len("policy."):].rpartition(".")
        if row:
            rows.setdefault(row, {})[metric] = value
    return rows


def run_policy(args):
    committed = policy_rows(flat_metrics(load_doc(args.committed)))
    fresh = policy_rows(flat_metrics(load_doc(args.fresh)))
    failures = []
    checked = 0
    if not fresh:
        failures.append("fresh run has no policy.* gauges — wrong file?")
    for row in sorted(committed):
        if row not in fresh:
            failures.append(f"{row}: missing from fresh run")
    for row in sorted(fresh):
        metrics = fresh[row]
        if metrics.get("exact") == 1.0:
            checked += 1
            inv = metrics.get("inversions")
            status = "ok" if inv == 0 else "INVERTED"
            print(f"  {row}: exact PIFO, {inv:.0f} inversions {status}")
            if inv != 0:
                failures.append(
                    f"{row}: exact PIFO reported {inv:.0f} inversions "
                    "(must be exactly 0)")
            continue
        base = committed.get(row, {}).get("inversion_rate")
        rate = metrics.get("inversion_rate", 0.0)
        if base is None:
            print(f"  {row}: inversion rate {rate:.4f} (new row, no envelope)")
            continue
        checked += 1
        limit = base * (1.0 + args.tolerance)
        status = "ok" if rate <= limit else "REGRESSED"
        print(f"  {row}: inversion rate {base:.4f} -> {rate:.4f} "
              f"(limit {limit:.4f}) {status}")
        if rate > limit:
            failures.append(f"{row}: inversion rate {rate:.4f} > {limit:.4f}")
        if base > 0.0 and rate == 0.0:
            failures.append(
                f"{row}: committed inversion rate {base:.4f} but fresh run saw "
                "none — is the inversion meter still observing this row?")
    if checked == 0:
        failures.append("no policy rows checked — wrong file pair?")
    if failures:
        print(f"PERF SMOKE FAIL ({len(failures)} issue(s)):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"PERF SMOKE PASS ({checked} policy checks)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed", nargs="?",
                        help="committed artifact, or telemetry-OFF list in "
                             "--host-overhead mode")
    parser.add_argument("fresh", nargs="?",
                        help="fresh run, or telemetry-ON list in "
                             "--host-overhead mode")
    parser.add_argument("--ledger", action="append", metavar="RESULT",
                        help="gate a perfbench --trace 1 result line's "
                             "same-process ratios at 2.0 (repeatable; a "
                             "comma list is best-of-N)")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed fractional cycles/op regression (default 5%%)")
    parser.add_argument("--policy", action="store_true",
                        help="gate bench/policy_comparison artifacts: exact "
                             "rows invert zero times, approximation rows stay "
                             "inside the committed inversion-rate envelope")
    parser.add_argument("--host-overhead", action="store_true",
                        help="gate telemetry cost: both args are same-machine "
                             "host.ops_per_sec runs, plain vs --timeseries")
    parser.add_argument("--overhead-tolerance", type=float, default=0.03,
                        help="allowed telemetry slowdown (default 3%%)")
    parser.add_argument("--ffs-speedup-floor", type=float, default=3.0,
                        help="minimum host.ffs.speedup_vs_model (same-process "
                             "ratio; default 3.0)")
    parser.add_argument("--model-floor", type=float, default=None,
                        help="absolute host.model.ops_per_sec floor "
                             "(machine-specific; off by default)")
    parser.add_argument("--ffs-floor", type=float, default=None,
                        help="absolute host.ffs.ops_per_sec floor "
                             "(machine-specific; off by default)")
    args = parser.parse_args()

    if args.ledger:
        if args.committed or args.fresh:
            parser.error("--ledger takes no positional files")
        return run_ledger(args)
    if args.committed is None or args.fresh is None:
        parser.error("committed and fresh files are required")
    if args.host_overhead:
        return run_host_overhead(args)
    if args.policy:
        return run_policy(args)

    committed = flat_metrics(load_doc(args.committed))
    fresh = flat_metrics(load_doc(args.fresh))
    failures = []
    checked = 0

    for name, base in sorted(committed.items()):
        if "host." in name:
            continue  # wall-clock numbers: machine-dependent, informational
        if "cycles_per_op" in name:
            now = fresh.get(name)
            if now is None:
                failures.append(f"{name}: missing from fresh run")
                continue
            checked += 1
            limit = base * (1.0 + args.tolerance)
            status = "ok" if now <= limit else "REGRESSED"
            print(f"  {name}: {base:.4f} -> {now:.4f} (limit {limit:.4f}) {status}")
            if now > limit:
                failures.append(f"{name}: {now:.4f} > {limit:.4f}")

    if "hw.cycles" in committed:
        now = fresh.get("hw.cycles")
        checked += 1
        if now != committed["hw.cycles"]:
            failures.append(
                f"hw.cycles: {now} != committed {committed['hw.cycles']} "
                "(modeled circuit changed; regenerate the artifact if intended)")
        else:
            print(f"  hw.cycles: {now} (exact match)")

    gate = "shard_scaling.n1_identical_to_single"
    if gate in fresh:
        checked += 1
        if fresh[gate] != 1.0:
            failures.append(f"{gate}: N=1 sharded run diverged from the bare sorter")
        else:
            print(f"  {gate}: 1 (N=1 bit/cycle identity holds)")

    gate = "host.ffs.speedup_vs_model"
    if gate in fresh:
        checked += 1
        ratio = fresh[gate]
        if ratio < args.ffs_speedup_floor:
            failures.append(f"{gate}: {ratio:.2f} < floor "
                            f"{args.ffs_speedup_floor:.2f} (ffs backend lost "
                            "its edge over the cycle model)")
        else:
            print(f"  {gate}: {ratio:.2f} (floor {args.ffs_speedup_floor:.2f})")

    sweep = re.compile(r"host\.sweep\.(\w+)\.n(\d+)\.ffs_ns_per_op")
    largest = {}
    for name in fresh:
        m = sweep.fullmatch(name)
        if m:
            geom, n = m.group(1), int(m.group(2))
            largest[geom] = max(n, largest.get(geom, n))
    if any(sweep.fullmatch(name) for name in committed) and not largest:
        failures.append("host.sweep.*: committed artifact has the live-set "
                        "sweep, fresh run has none")
    for geom, n in sorted(largest.items()):
        key = f"host.sweep.{geom}.n{n}"
        ffs = fresh[f"{key}.ffs_ns_per_op"]
        heap = fresh.get(f"{key}.heap_ns_per_op")
        checked += 1
        if heap is None:
            failures.append(f"{key}.heap_ns_per_op: missing from fresh run")
        elif ffs > heap:
            failures.append(f"{key}: ffs {ffs:.1f} ns/op > heap {heap:.1f} "
                            "ns/op (ffs lost to the binary heap at its "
                            "largest live set)")
        else:
            print(f"  {key}: ffs {ffs:.1f} <= heap {heap:.1f} ns/op "
                  f"({heap / ffs:.2f}x)")

    for floor, name in ((args.model_floor, "host.model.ops_per_sec"),
                        (args.ffs_floor, "host.ffs.ops_per_sec")):
        if floor is None:
            continue
        now = fresh.get(name)
        checked += 1
        if now is None:
            failures.append(f"{name}: missing from fresh run (floor requested)")
        elif now < floor:
            failures.append(f"{name}: {now:.0f} < floor {floor:.0f}")
        else:
            print(f"  {name}: {now:.0f} (floor {floor:.0f})")

    if checked == 0:
        failures.append("no comparable modeled metrics found — wrong file pair?")

    if failures:
        print(f"PERF SMOKE FAIL ({len(failures)} issue(s)):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"PERF SMOKE PASS ({checked} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
