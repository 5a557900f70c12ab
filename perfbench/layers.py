"""Per-layer metrics from the traced binary's span dumps.

A dump (written by span_trace.cc) holds, per span name, the call count,
inclusive and self seconds and p50/p99 durations, plus individual span
records [name, tid, start_ns, end_ns, parent, arg]. Every sim.run_until
record is kept; its arg is the window deadline, which regroups the shard
advances into windows for the lane/barrier/serial breakdown.
"""

import collections
import json

# Spans reported as <name>.calls and <name>.s (self seconds, all threads).
TIMED_SPANS = [
    "cluster.ledger_fold", "cluster.create_pod", "cluster.best_fit",
    "cluster.report_usage", "cluster.health", "cluster.control_send",
    "ps.iteration_law",
    "elastic.heartbeat", "elastic.detect_stragglers", "elastic.next_shard",
    "elastic.report_completed",
    "perfmodel.fit", "perfmodel.predict",
    "brain.plan", "brain.nsga2", "brain.select",
    "runtime.parallel_for",
    "master.policy",
    "dlrm.pull", "dlrm.compute", "dlrm.push", "dlrm.gather", "dlrm.scatter",
    "dlrm.data",
    "harness.fleet_setup", "trace.generate", "harness.collect",
]
# Spans whose per-call latency matters: also <name>.p50_ms and .p99_ms.
LATENCY_SPANS = ["brain.plan", "brain.nsga2"]
# Roots whose self time is the calling thread's time outside every wrapped call.
ROOT_SPANS = ["harness.run_fleet", "dlrm.train"]

# (name, unit, better) of every derived metric, in report order.
DERIVED = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.windows", "count", "lower"),
    ("sim.lane_busy_s", "s", "lower"),
    ("sim.serial_s", "s", "lower"),
    ("sim.wide.lane_busy_s", "s", "lower"),
    ("sim.wide.window_critical_s", "s", "lower"),
    ("sim.wide.barrier_wait_share", "share", "lower"),
    ("sim.wide.serial_s", "s", "lower"),
    ("sim.lane_speedup", "x", "higher"),
    ("sim.amdahl_speedup", "x", "higher"),
    ("cluster.control_delivered_per_sent", "share", "higher"),
    ("cluster.control_retries", "count", "lower"),
    ("elastic.queue_wait_s", "s", "lower"),
    ("brain.plan_yield", "share", "higher"),
    ("brain.nsga2.lane_share", "share", "lower"),
    ("dlrm.commit_wait_s", "s", "lower"),
    ("dlrm.lock_wait_s", "s", "lower"),
    ("dlrm.wide.commit_wait_s", "s", "lower"),
    ("dlrm.wide.lock_wait_s", "s", "lower"),
    ("elastic.wide.queue_wait_s", "s", "lower"),
    ("dlrm.wide.speedup", "x", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def per_layer_catalog():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for span in TIMED_SPANS:
        out.append((span + ".calls", "count", "lower"))
        out.append((span + ".s", "s", "lower"))
        if span in LATENCY_SPANS:
            out.append((span + ".p50_ms", "ms", "lower"))
            out.append((span + ".p99_ms", "ms", "lower"))
    for span in ROOT_SPANS:
        out.append((span + ".s", "s", "lower"))
    return out + DERIVED


def load(path):
    with open(path) as f:
        return json.load(f)


def windows(dump, lanes):
    """Lane busy, critical path, barrier wait and serial time of one run.

    A window is the set of sim.run_until spans sharing a deadline; its wall
    time runs from the first span's start to the last one's end. Lane busy
    is the sum of those spans; the critical path of a window is its busiest
    thread; barrier wait is lanes x window wall minus busy; serial time is
    the sharded engine's wall time outside every window.
    """
    by_window = collections.defaultdict(list)
    sharded_ns = 0
    for name, tid, start, end, _parent, arg in dump["records"]:
        if name == "sim.run_until":
            by_window[arg].append((tid, start, end))
        elif name == "sim.sharded_run_until":
            sharded_ns += end - start
    busy = critical = wall = 0
    for spans in by_window.values():
        per_thread = collections.Counter()
        for tid, start, end in spans:
            per_thread[tid] += end - start
        busy += sum(per_thread.values())
        critical += max(per_thread.values())
        wall += max(e for _, _, e in spans) - min(s for _, s, _ in spans)
    return {
        "windows": len(by_window),
        "busy_s": busy * 1e-9,
        "critical_s": critical * 1e-9,
        "barrier_wait_share": (lanes * wall - busy) / (lanes * wall) if wall else 0.0,
        "serial_s": (sharded_ns - wall) * 1e-9,
        "sharded_s": sharded_ns * 1e-9,
    }


def metrics(dump, lanes, plain, traced, dump_wide, wide_lanes, wide):
    """Every per-layer metric; 0 for a layer the workload does not run.

    `dump` is the traced run at the workload's `lanes`; `dump_wide` and
    `wide` are the span dump and report of the traced run at `wide_lanes`
    (lanes or trainer threads), which give the scaling and contention.
    """
    spans = dump["spans"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0.0)

    m = {}
    for name in TIMED_SPANS:
        m[name + ".calls"] = span(name, "calls")
        m[name + ".s"] = span(name, "self_s")
        if name in LATENCY_SPANS:
            m[name + ".p50_ms"] = span(name, "p50_ms")
            m[name + ".p99_ms"] = span(name, "p99_ms")
    for name in ROOT_SPANS:
        m[name + ".s"] = span(name, "self_s")

    fleet = plain["windows"] > 0
    w = windows(dump, lanes) if fleet else None
    wn = windows(dump_wide, wide_lanes) if fleet else None
    plain_run_s = plain["run_s"][0]
    m["sim.events"] = plain["work"] if fleet else 0.0
    m["sim.events_per_s"] = plain["work"] / plain_run_s if fleet else 0.0
    m["sim.windows"] = plain["windows"]
    m["sim.lane_busy_s"] = w["busy_s"] if w else 0.0
    m["sim.serial_s"] = w["serial_s"] if w else 0.0
    m["sim.wide.lane_busy_s"] = wn["busy_s"] if wn else 0.0
    m["sim.wide.window_critical_s"] = wn["critical_s"] if wn else 0.0
    m["sim.wide.barrier_wait_share"] = wn["barrier_wait_share"] if wn else 0.0
    m["sim.wide.serial_s"] = wn["serial_s"] if wn else 0.0
    if w and wn and w["sharded_s"] > 0 and wn["sharded_s"] > 0:
        parallel = w["busy_s"] / w["sharded_s"]
        m["sim.lane_speedup"] = w["sharded_s"] / wn["sharded_s"]
        m["sim.amdahl_speedup"] = 1.0 / ((1.0 - parallel) + parallel / wide_lanes)
    else:
        m["sim.lane_speedup"] = m["sim.amdahl_speedup"] = 0.0
    sent = plain["control_sent"]
    m["cluster.control_delivered_per_sent"] = (
        plain["control_delivered"] / sent if sent else 0.0)
    m["cluster.control_retries"] = plain["control_retries"]
    m["elastic.queue_wait_s"] = span("elastic.queue_wait", "incl_s")
    plans = span("brain.plan", "calls")
    m["brain.plan_yield"] = span("brain.select", "events") / plans if plans else 0.0
    m["brain.nsga2.lane_share"] = (
        span("brain.nsga2", "incl_s") / w["busy_s"] if w and w["busy_s"] else 0.0)
    m["dlrm.commit_wait_s"] = traced["commit_wait_s"]
    m["dlrm.lock_wait_s"] = traced["lock_wait_s"]
    trainer_wide = None if fleet else wide
    m["dlrm.wide.commit_wait_s"] = trainer_wide["commit_wait_s"] if trainer_wide else 0.0
    m["dlrm.wide.lock_wait_s"] = trainer_wide["lock_wait_s"] if trainer_wide else 0.0
    m["elastic.wide.queue_wait_s"] = (
        dump_wide["spans"].get("elastic.queue_wait", {}).get("incl_s", 0.0)
        if trainer_wide else 0.0)
    m["dlrm.wide.speedup"] = (
        traced["run_s"][0] / trainer_wide["run_s"][0] if trainer_wide else 0.0)
    m["trace.overhead_s"] = traced["run_s"][0] - plain_run_s
    m["trace.overhead_share"] = m["trace.overhead_s"] / plain_run_s
    return m


def span_table(dump, title):
    """Self time, calls and p50/p99 per span name, by self time."""
    spans = dump["spans"]
    total_self = sum(s["self_s"] for s in spans.values()) or 1.0
    rows = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [title,
             f"{'span':28} {'calls':>10} {'incl s':>9} {'self s':>9} "
             f"{'self %':>7} {'p50 ms':>9} {'p99 ms':>9}"]
    for name, s in rows:
        if s["calls"] == 0:
            continue
        lines.append(
            f"{name:28} {s['calls']:>10} {s['incl_s']:>9.4f} {s['self_s']:>9.4f} "
            f"{100 * s['self_s'] / total_self:>6.1f}% {s['p50_ms']:>9.4f} "
            f"{s['p99_ms']:>9.4f}")
    return "\n".join(lines)


def amdahl_lines(dump, lanes, dump_wide, wide_lanes):
    out = []
    for d, n in ((dump, lanes), (dump_wide, wide_lanes)):
        w = windows(d, n)
        out.append(
            f"{n:>2} lane(s): sharded run {w['sharded_s']:.3f} s = lane busy "
            f"{w['busy_s']:.3f} s, critical path {w['critical_s']:.3f} s, "
            f"barrier wait {100 * w['barrier_wait_share']:.1f}%, serial "
            f"{w['serial_s']:.3f} s ({w['windows']} windows)")
    return out


def chrome_trace(dump, path):
    """Writes the span records as Chrome trace-event JSON (about:tracing)."""
    events = []
    for name, tid, start, end, _parent, arg in dump["records"]:
        event = {"name": name, "ph": "X", "pid": 1, "tid": tid,
                 "ts": start / 1000.0, "dur": (end - start) / 1000.0}
        if arg:
            event["args"] = {"arg": arg}
        events.append(event)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
