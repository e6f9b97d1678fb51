#!/usr/bin/env python3
"""Benchmark of the ISPN simulator.

Builds bench_ispn (bench_ispn/CMakeLists.txt) under .bench_build/ at the
repository root, then runs workloads as a closed loop with one client:
each repeat is a fresh bench_ispn process that simulates the workload's
fixed horizon; the next starts when it has exited.  CPU time comes from
wait4(), peak memory from the repeat itself.  Just before each repeat, a
fixed integer loop in its own process records the host's speed
(reported, never used to rescale).
Single-threaded repeats are pinned to one CPU, the sharded workload's
repeats to as many CPUs as it has workers.

One workload (the form the benchmark command takes):

  python3 bench_ispn/run.py --workload W --seed N --seconds S --trace 0|1

  --trace 0 repeats W for about S seconds (at least three repeats) and
  reports the median of every end-to-end metric.  --trace 1 runs the
  traced pass and reports the per-layer metrics.  The last stdout line is
  one JSON object with the keys correct, attempted, failed and metrics.

A set (calibration, baselines, comparisons):

  python3 bench_ispn/run.py --set [--repeats N] [--seed N] [--label L]
                            [--out DIR] [--smoke]

  Runs N repeats of every workload interleaved (W1 W2 W3 W4 W1 ...), then
  the traced pass of each, prints median, q1, q3, min, max and n of every
  metric, and with --label writes DIR/<label>.json and
  DIR/<label>.trace.json (DIR defaults to bench_ispn/results).  --smoke
  divides the horizons by 20 and runs one repeat, with every check on.

The traced pass alternates untraced and traced repeats twice: per-layer
metrics are the medians of the traced repeats, trace.overhead compares
the two kinds, and the sharded workload adds a 1-worker repeat for
sim.speedup_4v1.

A run fails on a non-zero exit or crash of a repeat, a failed check in a
repeat (packet conservation, invariant violations, zero deliveries, a
guaranteed flow over its bound), or a sim_digest that differs from the
first repeat of the same workload (traced and 1-worker repeats included).
Exit status: 0 when everything passed, 1 otherwise (including a failed
build), 2 on a usage error.
"""

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "bench_ispn"

WORKLOADS = ["fanin-cbr", "parking-mix", "chaos-cc", "sharded-fanin"]
SHARDED = "sharded-fanin"
CPUS = sorted(os.sched_getaffinity(0))
SHARDS = min(4, len(CPUS))  # never more worker threads than CPUs

# name, unit, better
END_TO_END = [
    ("delivered_pps", "pkt/s", "higher"),
    ("sim_speed", "sim_s/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cpu_s", "s", "lower"),
]

PER_LAYER = [
    ("sim.events_per_pkt", "event/pkt", "lower"),
    ("sim.pending_mean", "event", "lower"),
    ("sim.event_ns", "ns", "lower"),
    ("sim.timer_rearm_ns", "ns", "lower"),
    ("sim.rounds_per_sim_s", "round/sim_s", "lower"),
    ("sim.cpu_util", "cpu_s/s", "lower"),
    ("sim.speedup_4v1", "x", "higher"),
    ("sched.ops_per_pkt", "op/pkt", "lower"),
    ("sched.queue_pkts_mean", "pkt", "lower"),
    ("sched.drop_ratio", "ratio", "lower"),
    ("sched.enqdeq_ns", "ns", "lower"),
    ("net.hops_per_pkt", "hop/pkt", "lower"),
    ("net.route_cache_hit_ratio", "ratio", "higher"),
    ("net.sink_label_hit_ratio", "ratio", "higher"),
    ("net.rebuild_routes_us", "us", "lower"),
    ("net.mailbox_spills", "count", "lower"),
    ("core.decisions_per_sim_s", "1/sim_s", "lower"),
    ("core.reject_ratio", "ratio", "lower"),
    ("core.open_close_us", "us", "lower"),
    ("core.measure_ns", "ns", "lower"),
    ("traffic.police_drop_ratio", "ratio", "lower"),
    ("traffic.retransmit_ratio", "ratio", "lower"),
    ("traffic.mark_ratio", "ratio", "lower"),
    ("fault.events", "count", "lower"),
    ("fault.reroutes", "count", "lower"),
    ("scenario.prepare_s", "s", "lower"),
    ("scenario.finish_s", "s", "lower"),
    ("scenario.build_fabric_ms", "ms", "lower"),
    ("scenario.audit_ms", "ms", "lower"),
    ("scenario.slice_p99_ms", "ms", "lower"),
    ("scenario.slices", "count", "higher"),
    ("attrib.sim_share", "ratio", "lower"),
    ("attrib.sched_share", "ratio", "lower"),
    ("attrib.core_share", "ratio", "lower"),
    ("attrib.other_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

MIN_REPEATS = 3
MAX_REPEATS = 50
TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 150
SMOKE_SCALE = 0.05

_child = None  # the running child, stopped on SIGTERM


class BuildError(Exception):
    pass


def build():
    """Configures (once) and builds bench_ispn; build output goes to stderr."""
    cmds = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(BUILD_DIR), "-j", str(SHARDS)])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BuildError(" ".join(cmd))
    return BUILD_DIR / "bench_ispn"


def spawn(cmd, cpus):
    """Runs cmd on `cpus` to completion; returns (returncode, stdout,
    wall s, rusage)."""
    global _child
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # inherited by the child
    try:
        t0 = time.perf_counter()
        _child = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    finally:
        os.sched_setaffinity(0, mask)
    timer = threading.Timer(CHILD_TIMEOUT_S, _child.kill)
    timer.start()
    try:
        out = _child.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(_child.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    _child.returncode = os.waitstatus_to_exitcode(status)
    _child.stdout.close()
    rc, _child = _child.returncode, None
    return rc, out, wall, usage


def loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def run_repeat(binary, workload, seed, scale, trace=False, shards=SHARDS):
    """One repeat in a fresh process.  Returns a sample dict; a failed
    repeat has a non-empty "failed" list."""
    one_cpu = {CPUS[-1]}
    rc, out, _, _ = spawn([str(binary), "--reference"], one_cpu)
    ref_ms = float(out) if rc == 0 else None
    cmd = [str(binary), workload, "--seed", str(seed), "--scale", repr(scale),
           "--shards", str(shards)]
    if trace:
        cmd.append("--trace")
    load = loadavg()
    cpus = set(CPUS[-shards:]) if workload == SHARDED else one_cpu
    rc, out, proc_wall, usage = spawn(cmd, cpus)
    kind = "traced" if trace else f"{shards}-worker" if shards != SHARDS else "repeat"
    sample = {"kind": kind, "ref_ms": ref_ms, "loadavg": load, "failed": []}
    try:
        child = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sample["failed"].append(f"{kind}: exit {rc}, no result")
        return sample
    if rc != 0:
        sample["failed"].append(f"{kind}: exit {rc}")
    sample["failed"] += [f"{kind}: check {c}" for c in child.pop("checks_failed")]
    sample["child"] = child
    mwall = child["measured_wall_s"]
    sample["metrics"] = {
        "delivered_pps": child["measured_delivered"] / mwall,
        "sim_speed": child["measured_sim_s"] / mwall,
        "wall_s": child["wall_s"],
        "setup_s": statistics.median(child["setup_s"]),
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    sample["cpu_util"] = sample["metrics"]["cpu_s"] / proc_wall
    return sample


def check_digests(samples):
    """Fails every sample whose digest differs from the first one's."""
    ok = [s for s in samples if "child" in s]
    for s in ok[1:]:
        if s["child"]["digest"] != ok[0]["child"]["digest"]:
            s["failed"].append(f"{s['kind']}: sim_digest differs from the "
                               "first repeat")


def summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def end_to_end(samples):
    good = [s for s in samples if not s["failed"]]
    if not good:
        return {}
    return {name: dict(unit=unit, **summary([s["metrics"][name] for s in good]))
            for name, unit, _ in END_TO_END}


def median_of(samples, key):
    return statistics.median(s["metrics"][key] for s in samples)


def traced_pass(binary, workload, seed, scale, reference=None):
    """Untraced and traced repeats alternated TRACE_PAIRS times, plus a
    1-worker repeat of the sharded workload; every digest must equal the
    first one's (`reference`'s, when given).  Returns (per-layer metrics,
    samples, spans of the first traced repeat)."""
    samples = []
    for _ in range(TRACE_PAIRS):
        samples.append(run_repeat(binary, workload, seed, scale))
        samples.append(run_repeat(binary, workload, seed, scale, trace=True))
    if workload == SHARDED:
        samples.append(run_repeat(binary, workload, seed, scale, shards=1))
    check_digests([reference] + samples if reference else samples)
    good = [s for s in samples if not s["failed"]]
    traced = [s for s in good if s["kind"] == "traced"]
    untraced = [s for s in good if s["kind"] == "repeat"]
    if not traced or not untraced:
        return {}, samples, []
    layers = {k: statistics.median(s["child"]["layers"][k] for s in traced)
              for k in traced[0]["child"]["layers"]}
    pps = median_of(untraced, "delivered_pps")
    layers["sim.cpu_util"] = statistics.median(s["cpu_util"] for s in untraced)
    one = [s for s in good if s["kind"] == "1-worker"]
    layers["sim.speedup_4v1"] = pps / median_of(one, "delivered_pps") if one else 1.0
    layers["trace.overhead"] = pps / median_of(traced, "delivered_pps") - 1
    return layers, samples, traced[0]["child"]["spans"]


def chrome_trace(runs):
    """Chrome trace-event JSON for [(workload, seed, spans)]; each traced
    repeat is one process (its run id), spans keep their parent index."""
    events = []
    for run_id, (workload, seed, spans) in enumerate(runs, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": run_id,
                       "args": {"name": f"{workload} seed {seed}"}})
        for i, (name, start, end, parent) in enumerate(spans):
            events.append({"name": name, "ph": "X", "pid": run_id, "tid": 1,
                           "ts": start, "dur": end - start,
                           "args": {"id": i, "parent": parent}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def fmt(v):
    return f"{v:.6g}"


def print_table(workload, stats, samples):
    ok = [s for s in samples if "child" in s]
    print(f"\n== {workload}: {len(samples)} repeats, sim_digest "
          f"{ok[0]['child']['digest'] if ok else '-'}")
    if ok:
        print(f"   spec: {ok[0]['child']['spec']}")
    print(f"   {'metric':<16}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'min':>12}{'max':>12}{'n':>4}")
    for name, st in stats.items():
        print(f"   {name:<16}{st['unit']:<10}" + "".join(
            f"{fmt(st[k]):>12}" for k in ("median", "q1", "q3", "min", "max"))
            + f"{st['n']:>4}")
    refs = [s["ref_ms"] for s in samples if s["ref_ms"] is not None]
    if refs:
        print(f"   host.ref_ms median {fmt(statistics.median(refs))} "
              f"(min {fmt(min(refs))}, max {fmt(max(refs))}); "
              f"loadavg before first repeat {samples[0]['loadavg']}")


def print_layers(workload, layers):
    print(f"\n== {workload}: per-layer (traced pass)")
    for name, unit, _ in PER_LAYER:
        if name in layers:
            print(f"   {name:<28}{unit:<12}{fmt(layers[name]):>14}")


def print_failures(samples):
    for s in samples:
        for why in s["failed"]:
            print(f"   FAILED {why}")


def run_workload(binary, args, scale):
    """The benchmark command: one workload for about --seconds."""
    start = time.perf_counter()
    if args.trace:
        layers, samples, spans = traced_pass(binary, args.workload, args.seed,
                                             scale)
        if layers:
            print_layers(args.workload, layers)
            out = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(
                chrome_trace([(args.workload, args.seed, spans)]),
                separators=(",", ":")))
            print(f"   spans written to {out.relative_to(ROOT)}")
        wanted, values = PER_LAYER, layers
    else:
        samples = []
        while len(samples) < MAX_REPEATS:
            n, elapsed = len(samples), time.perf_counter() - start
            if n >= MIN_REPEATS and elapsed * (n + 1) / n > args.seconds:
                break
            samples.append(run_repeat(binary, args.workload, args.seed, scale))
        check_digests(samples)
        stats = end_to_end(samples)
        print_table(args.workload, stats, samples)
        wanted = END_TO_END
        values = {name: st["median"] for name, st in stats.items()}
    print_failures(samples)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in wanted if name in values}
    failed = sum(1 for s in samples if s["failed"])
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_set(binary, args, scale):
    """Every workload, interleaved repeats, then the traced passes."""
    samples = {w: [] for w in WORKLOADS}
    for r in range(args.repeats):
        for w in WORKLOADS:
            s = run_repeat(binary, w, args.seed, scale)
            samples[w].append(s)
            print(f"repeat {r + 1}/{args.repeats} {w}: "
                  + (", ".join(s["failed"]) or
                     f"{fmt(s['metrics']['delivered_pps'])} pkt/s"),
                  file=sys.stderr, flush=True)
    host = {"nproc": len(CPUS), "machine": platform.machine(), "shards": SHARDS}
    result = {"label": args.label, "seed": args.seed, "repeats": args.repeats,
              "scale": scale, "host": host,
              "utc": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
              "workloads": {}}
    traces = []
    failed = 0
    for w in WORKLOADS:
        check_digests(samples[w])
        stats = end_to_end(samples[w])
        layers, extra, spans = traced_pass(binary, w, args.seed, scale,
                                           samples[w][0])
        if spans:
            traces.append((w, args.seed, spans))
        print_table(w, stats, samples[w])
        print_layers(w, layers)
        everything = samples[w] + extra
        print_failures(everything)
        failed += sum(1 for s in everything if s["failed"])
        first = next((s["child"] for s in samples[w] if "child" in s), {})
        host["compiler"] = first.get("compiler")
        host["build_type"] = first.get("build_type")
        result["workloads"][w] = {
            "digest": first.get("digest"),
            "spec": first.get("spec"),
            "end_to_end": stats,
            "per_layer": {name: {"value": layers[name], "unit": unit}
                          for name, unit, _ in PER_LAYER if name in layers},
            "samples": [{"metrics": s.get("metrics"), "ref_ms": s["ref_ms"],
                         "loadavg": s["loadavg"], "failed": s["failed"]}
                        for s in samples[w]],
            "failed": [why for s in everything for why in s["failed"]],
        }
    if args.label:
        out_dir = Path(args.out).resolve()
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{args.label}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        (out_dir / f"{args.label}.trace.json").write_text(
            json.dumps(chrome_trace(traces), separators=(",", ":")) + "\n")
        print(f"\nresults written to {out_dir / (args.label + '.json')}")
    print(f"\n{failed} runs failed" if failed else "\nall checks passed")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--set", action="store_true")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--label")
    p.add_argument("--out", default=str(HERE / "results"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.set == (args.workload is not None):
        p.error("give exactly one of --workload and --set")
    if args.seed < 0 or args.repeats < 1:
        p.error("--seed must be >= 0 and --repeats >= 1")
    if args.smoke:
        args.repeats = 1

    def stop(signum, _frame):
        if _child is not None:
            _child.kill()
            _child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        binary = build()
    except (BuildError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    scale = SMOKE_SCALE if args.smoke else 1.0
    run = run_set if args.set else run_workload
    return run(binary, args, scale)


if __name__ == "__main__":
    sys.exit(main())
