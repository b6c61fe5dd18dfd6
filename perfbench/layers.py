"""Per-layer metrics of one workload, from outside the program.

R metrics come from an untraced campaign: the `--metrics` registry dump, the
`--trace` round log and the process's own timing. S metrics come from a
second, traced campaign of the same config: the `--chrome-trace` spans,
whose wall stamps and parent ids give each span's self time.

Tracing slows the campaign unevenly, so a traced time is never reported next
to an untraced one: an S time is the layer's traced self time scaled by the
untraced over the traced wall, and the `share.*` metrics are the shares of
the traced lane time, which add up to 100%.
"""

import statistics

from campaign import counter

# Span name -> layer whose self time it is. Spans wrap the calls into each
# layer's public functions; `fuzz.*` stage spans are matched by prefix.
SPAN_LAYER = {
    "round.measure": "sim",            # sim::Host::run_until
    "round.quiesce": "sim",            # grace drain: Host::run_for
    "round.snapshot_before": "observer_snapshot",
    "round.snapshot_after": "observer_snapshot",
    "round": "observer_overhead",      # Observer::run_round minus the above
    "campaign.batch": "fuzzer",
    "campaign.finalize": "finalize",
    "finalize.flag_scan": "finalize",
    "finalize.confirm": "finalize",
    "confirm.single_run": "finalize",
    "minimize": "minimize",
    "oracle.flag": "oracle_flag",
    "finalize.crash_repro": "crash_repro",
}

# Every bucket of the traced run's wall; `share.<bucket>` is its percentage.
BUCKETS = ("setup", "sim", "observer_snapshot", "observer_overhead", "fuzzer",
           "exchange_wait", "finalize", "minimize", "oracle_flag",
           "crash_repro", "persist", "unattributed")


def span_layer(name):
    if name.startswith("fuzz."):
        return "fuzzer"
    return SPAN_LAYER.get(name)


def r_metrics(run):
    """Metrics of the untraced campaign `run` (a campaign.Result)."""
    m = run.metrics
    hist = m.get("histograms", {})

    def hist_sum_s(name):
        return hist.get(name, {}).get("sum", 0) / 1e6

    run_s = hist_sum_s("sim.run_until_wall_us")
    snapshot_s = hist_sum_s("observer.snapshot_wall_us")
    sim_s = sum(s["campaign"]["sim_ns"] for s in run.shards) / 1e9
    segments = counter(m, "sim.segments_finished")
    executions = counter(m, "exec.executions")
    tried = counter(m, "fuzzer.mutations_tried")
    confirmations = counter(m, "campaign.confirmations")
    fuzz_rounds = sum(s["campaign"]["rounds"] for s in run.shards)

    # Fuzzing rounds are the ones logged before their shard's last batch
    # record; the rest are finalize re-runs.
    round_ms = []
    for s in run.shards:
        last_batch = s["batches"][-1]["seq"]
        round_ms += [r["wall_us"] / 1000 for r in s["rounds"]
                     if r["seq"] < last_batch]
    p95 = statistics.quantiles(round_ms, n=20)[18]

    last_batch_end = [s["batches"][-1]["wall_ns"] for s in run.shards]
    finalize_end = max(s["campaign"]["wall_ns"] for s in run.shards)
    return {
        "sim.run_s": (run_s, "s"),
        "sim.sim_s": (sim_s, "s"),
        "sim.sim_s_per_wall_s": (sim_s / run_s if run_s else 0, "1"),
        "sim.segments": (segments, "count"),
        "sim.scheduler_picks": (counter(m, "sim.scheduler_picks"), "count"),
        "sim.wakeups": (counter(m, "sim.wakeups"), "count"),
        "sim.ns_per_segment": (run_s * 1e9 / segments if segments else 0,
                               "ns"),
        "exec.executions": (executions, "count"),
        "exec.ns_per_execution": (
            run_s * 1e9 / executions if executions else 0, "ns"),
        "exec.container_restarts": (counter(m, "exec.container_restarts"),
                                    "count"),
        "exec.fatal_signal_respawns": (
            counter(m, "exec.fatal_signal_respawns"), "count"),
        "observer.rounds": (counter(m, "observer.rounds"), "count"),
        "observer.snapshot_s": (snapshot_s, "s"),
        "observer.overhead_s": (
            hist_sum_s("observer.round_wall_us") - run_s - snapshot_s, "s"),
        "observer.round_ms_p50": (statistics.median(round_ms), "ms"),
        "observer.round_ms_p95": (p95, "ms"),
        "observer.round_samples": (len(round_ms), "count"),
        "core.mutations_tried": (tried, "count"),
        "core.mutation_accept_ratio": (
            counter(m, "fuzzer.mutations_accepted") / tried if tried else 0,
            "1"),
        "core.finalize_s": ((finalize_end - max(last_batch_end)) / 1e9, "s"),
        "core.confirmations": (confirmations, "count"),
        "core.finalize_rounds": (counter(m, "observer.rounds") - fuzz_rounds,
                                 "count"),
        "core.confirm_yield": (
            len(run.report["causes"]) / confirmations if confirmations else 0,
            "1"),
        "core.persist_s": ((run.exit_ns - finalize_end) / 1e9, "s"),
        "core.shard_skew_s": (
            (max(last_batch_end) - min(last_batch_end)) / 1e9, "s"),
        "feedback.hub_published": (counter(m, "hub.published"), "count"),
        "feedback.hub_pulled": (counter(m, "hub.pulled"), "count"),
        "feedback.hub_merged": (counter(m, "hub.merged"), "count"),
    }


def split(traced):
    """Seconds of the traced campaign per bucket; they sum to its lane time.

    A shard's lane is its thread's time from launch to its last span's end;
    persist is the time after the last lane ends. Sequential runs have one
    lane, so the buckets sum to the traced wall. Sums are kept in integer
    ns, so unattributed time is exact.
    """
    buckets = dict.fromkeys(BUCKETS, 0)
    lanes = {}
    for event in traced.spans:
        lanes.setdefault(event["pid"], []).append(event)
    total_ns = 0
    last_end = 0
    for events in lanes.values():
        child_ns = {}
        for e in events:
            a = e["args"]
            parent = a["parent"]
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (
                    a["wall_end_ns"] - a["wall_begin_ns"])
        for e in events:
            a = e["args"]
            layer = span_layer(e["name"])
            if layer:
                self_ns = (a["wall_end_ns"] - a["wall_begin_ns"]
                           - child_ns.get(a["id"], 0))
                buckets[layer] += self_ns
        if len(lanes) > 1:
            # A shard exchanges its corpus after every batch, the last one
            # too: barrier wait and delta fold sit between its batch spans
            # and between its last batch and its finalize.
            marks = sorted(
                (e["args"]["wall_begin_ns"], e["args"]["wall_end_ns"])
                for e in events
                if e["name"] in ("campaign.batch", "campaign.finalize"))
            for (_, end), (begin, _) in zip(marks, marks[1:]):
                buckets["exchange_wait"] += begin - end
        begin = min(e["args"]["wall_begin_ns"] for e in events)
        end = max(e["args"]["wall_end_ns"] for e in events)
        buckets["setup"] += begin - traced.launch_ns
        total_ns += end - traced.launch_ns
        last_end = max(last_end, end)
    buckets["persist"] = traced.exit_ns - last_end
    total_ns += buckets["persist"]
    buckets["unattributed"] = total_ns - sum(buckets.values())
    return {b: ns / 1e9 for b, ns in buckets.items()}, total_ns / 1e9


def s_metrics(traced, untraced_wall_s):
    buckets, total_s = split(traced)
    scale = untraced_wall_s / traced.wall_s
    out = {f"share.{b}": (100 * v / total_s, "%") for b, v in buckets.items()}
    for name, bucket in (("core.fuzzer_s", "fuzzer"),
                         ("core.minimize_s", "minimize"),
                         ("core.crash_repro_s", "crash_repro"),
                         ("oracle.flag_s", "oracle_flag"),
                         ("feedback.exchange_wait_s", "exchange_wait"),
                         ("telemetry.unattributed_s", "unattributed")):
        out[name] = (buckets[bucket] * scale, "s")
    out["telemetry.trace_overhead_pct"] = (
        100 * (traced.wall_s - untraced_wall_s) / untraced_wall_s, "%")
    return out
