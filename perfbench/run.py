#!/usr/bin/env python3
"""Benchmark runner for ibcc-sim.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_cell from source (perfbench/CMakeLists.txt, Release,
into .bench_build/perfbench), then runs repetitions of one workload for
--seconds seconds. Every repetition is a fresh process with explicit
threads and shards, a cold snapshot cache and no result store. Each
simulation cell of a repetition is one operation; a cell fails when its
process crashes or times out or when an output check in check_cells()
rejects it.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end figures over the
repetitions, host times scaled by a reference kernel timed in the same
run (host_factor()). With --trace 1 the untraced repetitions
are followed by one traced repetition, which gives the per-layer figures.
See perfbench/README.md for the workloads and the layer -> metric map.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CELL_BIN = os.path.join(BUILD_DIR, "perfbench_cell")
REFERENCE_BIN = os.path.join(BUILD_DIR, "perfbench_reference")

# perfbench_reference's time on the quiet 4-vCPU host the bounds were
# set on. Host times are reported scaled to it (see host_factor()).
REFERENCE_NOMINAL_S = 0.4

# Everything a run may take after the build, and the slice of it one
# repetition may use before it counts as timed out.
RUN_BUDGET_S = 170.0

# Worker threads each workload runs with (run.py passes them explicitly;
# the host must have at least this many or the workload is unresolved).
WORKLOAD_THREADS = {"table2_silent": 1, "ft3_10k_windy": 2, "a2a_648": 2}

# Paper Table II (Gran et al., IPDPS 2012), the six per-node receive-rate
# rows in Gb/s: no hotspots CC off / on, hotspots CC off (hotspot,
# non-hotspot), hotspots CC on (hotspot, non-hotspot).
PAPER_TABLE2 = (2.699, 2.701, 13.602, 0.168, 13.279, 2.246)

SINK_CAP_GBPS = 13.6  # FabricParams::hca_drain_gbps
MTU_BITS = 2048 * 8   # one data packet
NO_HOTSPOT_GBPS = 2.7
NO_HOTSPOT_TOL = 0.05
CC_LIFT_MIN = 5.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER_UNITS = {
    "topo.routing_s": "s",
    "workload.spec_build_s": "s",
    "workload.messages": "count",
    "workload.makespan_us": "us",
    "sim.construct_s": "s",
    "sim.construct_mib": "MiB",
    "sim.bytes_per_endpoint": "B",
    "sim.run_s": "s",
    "sim.run_ns_per_event": "ns",
    "sim.teardown_s": "s",
    "core.events": "count",
    "core.events.packet_arrive": "count",
    "core.events.link_free": "count",
    "core.events.credit_update": "count",
    "core.events.sink_free": "count",
    "core.events.retry_inject": "count",
    "core.events.other": "count",
    "core.events_per_packet": "ratio",
    "fabric.delivered_packets": "count",
    "cc.fecn_marked": "count",
    "cc.cnps_sent": "count",
    "cc.becn_received": "count",
    "shard.windows": "count",
    "shard.cut_links": "count",
    "shard.crossed_packets": "count",
    "shard.crossed_credits": "count",
    "shard.absorbed_events": "count",
    "table2_err_gbps": "Gbps",
    "trace.overhead_pct": "%",
    "trace.span_coverage_pct": "%",
}

# SimResult fields that must repeat exactly for one (workload, seed).
EXACT_FIELDS = (
    "hotspot_rcv_gbps", "non_hotspot_rcv_gbps", "all_rcv_gbps", "total_throughput_gbps",
    "fecn_marked", "cnps_sent", "becn_received", "delivered_bytes", "delivered_packets",
    "events", "events_by_kind", "workload",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build():
    """Configure and build perfbench_cell; returns False on failure."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    jobs = str(max(1, min(4, host_threads())))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_cell", "perfbench_reference",
              "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return os.path.exists(CELL_BIN) and os.path.exists(REFERENCE_BIN)


def child_env():
    # Thread counts come from the cell configs, never from the caller's
    # environment; IBSIM_FULL would not change the cells but is dropped
    # for the same reason.
    return {k: v for k, v in os.environ.items() if not k.startswith("IBSIM_")}


def run_rep(workload, seed, trace, timeout):
    """One repetition in a fresh process: its parsed JSON, or None."""
    cmd = [CELL_BIN, workload, str(seed), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout), env=child_env())
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out after {timeout:.0f} s")
        return None
    for line in proc.stderr.splitlines():
        log("  cell: " + line)
    if proc.returncode != 0:
        log(f"perfbench: {workload} seed {seed} exited {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {workload} seed {seed}: unparsable output")
        return None


def reference_s():
    """One timing of the host-speed reference kernel, or None."""
    try:
        proc = subprocess.run([REFERENCE_BIN], stdout=subprocess.PIPE, text=True, timeout=30)
        return float(proc.stdout.split()[0]) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, IndexError, ValueError):
        return None


def host_factor(reference_samples):
    """Scale from this run's host speed to the reference host's.

    Other tenants of a shared host slow the simulator by up to ~1.8x for
    minutes at a time, and the reference kernel slows with it. Host
    times multiplied by REFERENCE_NOMINAL_S / (mean reference time in
    the same run) drift far less between runs than the raw times do.
    Both the kernel and a repetition also vary by ~15 % from one sample
    to the next; with 3 to 8 samples a run, means average that out
    better than medians.
    """
    return REFERENCE_NOMINAL_S / statistics.fmean(reference_samples)


def exact_key(cell):
    return json.dumps([cell[f] for f in EXACT_FIELDS], sort_keys=True)


def table2_rows(cells):
    """The six Table II receive-rate rows from the four table2 cells."""
    by = {c["label"]: c for c in cells}
    return (by["no_hotspots_cc_off"]["all_rcv_gbps"], by["no_hotspots_cc_on"]["all_rcv_gbps"],
            by["hotspots_cc_off"]["hotspot_rcv_gbps"], by["hotspots_cc_off"]["non_hotspot_rcv_gbps"],
            by["hotspots_cc_on"]["hotspot_rcv_gbps"], by["hotspots_cc_on"]["non_hotspot_rcv_gbps"])


def table2_err_gbps(rows):
    return statistics.fmean(abs(m - p) for m, p in zip(rows, PAPER_TABLE2))


def check_cells(workload, cells):
    """Output checks of one repetition: a list of (cell index, reason)."""
    bad = []
    for i, c in enumerate(cells):
        w = c["workload"]
        if w["ran"] and w["messages_completed"] < w["messages_total"]:
            bad.append((i, f"{w['messages_completed']} of {w['messages_total']} messages completed"))
        # A node drains at most SINK_CAP_GBPS; the measurement window may
        # count one whole packet that straddles its start.
        cap = SINK_CAP_GBPS + MTU_BITS / (c["window_us"] * 1e3)
        for field in ("hotspot_rcv_gbps", "non_hotspot_rcv_gbps", "all_rcv_gbps"):
            if c[field] > cap:
                bad.append((i, f"{field} {c[field]:.4f} above the {cap:.4f} Gb/s sink cap"))
    if workload == "table2_silent":
        index = {c["label"]: i for i, c in enumerate(cells)}
        for label in ("no_hotspots_cc_off", "no_hotspots_cc_on"):
            rate = cells[index[label]]["all_rcv_gbps"]
            if abs(rate - NO_HOTSPOT_GBPS) > NO_HOTSPOT_TOL * NO_HOTSPOT_GBPS:
                bad.append((index[label], f"{label} {rate:.4f} Gb/s not within 5% of 2.7"))
        off = cells[index["hotspots_cc_off"]]["non_hotspot_rcv_gbps"]
        on = cells[index["hotspots_cc_on"]]["non_hotspot_rcv_gbps"]
        if on < CC_LIFT_MIN * off:
            bad.append((index["hotspots_cc_on"],
                        f"CC lifts non-hotspot rate {on:.4f}/{off:.4f}, below {CC_LIFT_MIN}x"))
    return bad


def account(workload, reps, n_cells):
    """(attempted, failed) over repetitions; None marks a crashed one."""
    attempted = len(reps) * n_cells
    failed = 0
    keys = {}
    for rep in reps:
        if rep is None:
            failed += n_cells
            continue
        bad = set()
        for i, reason in check_cells(workload, rep["cells"]):
            log(f"perfbench: check failed: cell {i} ({rep['cells'][i]['label']}): {reason}")
            bad.add(i)
        failed += len(bad)
        for i, c in enumerate(rep["cells"]):
            keys.setdefault(i, []).append((exact_key(c), i in bad))
    # Exact counts must agree across one set of runs: every repetition
    # whose counts differ from the most common ones fails that cell.
    for i, entries in keys.items():
        counts = {}
        for key, _ in entries:
            counts[key] = counts.get(key, 0) + 1
        majority = max(counts, key=counts.get)
        for key, already_bad in entries:
            if key != majority and not already_bad:
                log(f"perfbench: cell {i}: exact counts differ between runs")
                failed += 1
    return attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def raw_times(reps):
    """Host wall seconds (mean over the good repetitions) and set-up
    seconds (median over every set-up they made)."""
    good = [r for r in reps if r is not None]
    return (statistics.fmean(r["wall_s"] for r in good),
            statistics.median(t for r in good for t in r["setup_samples_s"]))


def end_to_end(reps, factor):
    wall, setup = raw_times(reps)
    good = [r for r in reps if r is not None]
    return {
        "wall_s": metric(wall * factor, "s"),
        "setup_s": metric(setup * factor, "s"),
        "peak_rss_mib": metric(statistics.median(r["peak_rss_mib"] for r in good), "MiB"),
    }


def per_layer(workload, traced, untraced_wall):
    cells = traced["cells"]

    def total(field):
        return sum(c[field] for c in cells)

    def shard(name):
        return sum(c["counters"].get("sched.shard." + name, 0) for c in cells)

    kinds = [sum(c["events_by_kind"][k] for c in cells) for k in range(7)]
    events = total("events")
    packets = total("delivered_packets")
    run_s = total("run_s")
    biggest = max(cells, key=lambda c: c["construct_bytes"])
    makespans = [c["workload"]["makespan_us"] for c in cells if c["workload"]["ran"]]
    span_s = sum(s["end_s"] - s["start_s"] for s in traced["spans"])
    values = {
        "topo.routing_s": total("routing_s"),
        "workload.spec_build_s": total("spec_build_s"),
        "workload.messages": sum(c["workload"]["messages_total"] for c in cells),
        "workload.makespan_us": max(makespans) if makespans else 0.0,
        "sim.construct_s": total("construct_s") - total("spec_build_s"),
        "sim.construct_mib": biggest["construct_bytes"] / 2**20,
        "sim.bytes_per_endpoint": biggest["construct_bytes"] / biggest["nodes"],
        "sim.run_s": run_s,
        "sim.run_ns_per_event": run_s * 1e9 / events if events else 0.0,
        "sim.teardown_s": total("teardown_s"),
        "core.events": events,
        "core.events.packet_arrive": kinds[1],
        "core.events.link_free": kinds[2],
        "core.events.credit_update": kinds[3],
        "core.events.sink_free": kinds[4],
        "core.events.retry_inject": kinds[5],
        "core.events.other": kinds[0] + kinds[6],
        "core.events_per_packet": events / packets if packets else 0.0,
        "fabric.delivered_packets": packets,
        "cc.fecn_marked": total("fecn_marked"),
        "cc.cnps_sent": total("cnps_sent"),
        "cc.becn_received": total("becn_received"),
        "shard.windows": shard("windows"),
        "shard.cut_links": shard("cut_links"),
        "shard.crossed_packets": shard("crossed_packets"),
        "shard.crossed_credits": shard("crossed_credits"),
        "shard.absorbed_events": shard("absorbed_events"),
        "table2_err_gbps": table2_err_gbps(table2_rows(cells)) if workload == "table2_silent" else 0.0,
        "trace.overhead_pct": 100.0 * (traced["wall_s"] - untraced_wall) / untraced_wall,
        "trace.span_coverage_pct": 100.0 * span_s / traced["wall_s"],
    }
    return {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def provenance(rep):
    out = {"cpu_model": cpu_model(), "nproc": host_threads()}
    if rep is not None:
        out.update(rep["provenance"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 3
    need = WORKLOAD_THREADS[args.workload]
    if host_threads() < need:
        log(f"perfbench: {args.workload} unresolved: needs {need} threads, "
            f"host has {host_threads()}; not timed")
        return 4

    # Repetitions run while the next one, at the mean length so far, is
    # expected to end within --seconds; there is always at least one.
    # The reference kernel runs before each and after the last.
    start = time.monotonic()
    reps = []
    references = []
    while True:
        elapsed = time.monotonic() - start
        if reps and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
        remaining = RUN_BUDGET_S - elapsed
        if remaining <= 0:
            break
        references.append(reference_s())
        reps.append(run_rep(args.workload, args.seed, False, remaining))
    references.append(reference_s())
    references = [r for r in references if r is not None]
    if not references:
        log("perfbench: the reference kernel failed")
        return 5
    traced = None
    if args.trace:
        traced = run_rep(args.workload, args.seed, True,
                         RUN_BUDGET_S - (time.monotonic() - start))
    all_reps = reps + ([traced] if args.trace else [])
    first = next((r for r in all_reps if r is not None), None)
    n_cells = len(first["cells"]) if first else 1
    attempted, failed = account(args.workload, all_reps, n_cells)

    good = [r for r in reps if r is not None]
    if not good or (args.trace and traced is None):
        metrics = {}
    elif args.trace:
        metrics = per_layer(args.workload, traced, raw_times(reps)[0])
    else:
        metrics = end_to_end(reps, host_factor(references))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(first), "repetitions": len(reps),
              "reference_s": references, "host_factor": host_factor(references)}
    if good:
        record["raw_wall_s"], record["raw_setup_s"] = raw_times(reps)
    if first is not None and args.workload == "table2_silent":
        rows = table2_rows(first["cells"])
        record["table2_rows_gbps"] = rows
        record["table2_err_gbps"] = table2_err_gbps(rows)
    os.makedirs(BUILD_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(BUILD_DIR, name), "w") as f:
        json.dump(dict(record, runs=all_reps, metrics=metrics), f, indent=1)
    print(json.dumps(record), flush=True)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
