"""One `torpedo run` as the benchmark sees it: launch, time, check, count.

Everything here reads only what a user of the CLI can read: the process's
exit status and resource usage, the `--trace` round log, the `--metrics`
registry dump, the `--chrome-trace` spans and the workdir artifacts.
"""

import json
import os
import re
import signal
import subprocess
import time
from dataclasses import dataclass, field


class CampaignError(Exception):
    """A campaign failed one of the benchmark's checks."""


@dataclass
class Result:
    """What one finished campaign left behind, already parsed."""

    wall_s: float
    launch_ns: int  # CLOCK_REALTIME at launch, the clock of the trace stamps
    exit_ns: int
    peak_rss_mb: float
    shards: list  # per shard: {"rounds": [...], "batches": [...], "campaign": {...}}
    metrics: dict
    report: dict  # {"causes": [...], "crashes": [...], "programs": [...]}
    spans: list = field(default_factory=list)

    def fuzz_window_ns(self):
        """First fuzzing round's start to the last batch's end, all shards."""
        start = min(round_start_ns(s["rounds"][0]) for s in self.shards)
        end = max(s["batches"][-1]["wall_ns"] for s in self.shards)
        return start, end

    def counts(self):
        """The deterministic counts: equal on every run of one config."""
        camp = [s["campaign"] for s in self.shards]
        return {
            "executions": sum(c["executions"] for c in camp),
            "rounds": sum(c["rounds"] for c in camp),
            "observer_rounds": counter(self.metrics, "observer.rounds"),
            "sim_ns": sum(c["sim_ns"] for c in camp),
            "segments": counter(self.metrics, "sim.segments_finished"),
            "findings": len(self.report["causes"]),
            "crashes": len(self.report["crashes"]),
        }


def round_start_ns(record):
    # A round record is written when the round ends; wall_us is its length.
    return record["wall_ns"] - record["wall_us"] * 1000


def counter(metrics, name):
    return metrics.get("counters", {}).get(name, 0)


def trace_files(base, shards):
    """`--trace X.jsonl` writes X.shard-K.jsonl per shard when sharded."""
    if shards == 1:
        return [base]
    return [base.with_name(f"{base.stem}.shard-{k}{base.suffix}")
            for k in range(shards)]


@dataclass
class Exit:
    """How one child process ended."""

    launch_ns: int  # CLOCK_REALTIME once Popen returned: the trace's clock
    spawn_s: float  # how long Popen took: the harness's fork, fd closing, exec
    wall_s: float   # launch until reaped
    exit_ns: int
    code: int
    usage: object   # the child's own resource.struct_rusage, from wait4
    timed_out: bool


def spawn(cmd, workdir, timeout, done=lambda: False):
    """Runs `cmd` in `workdir` and reaps it with wait4, polling every 2 ms.

    Launch is when Popen returns, which it does once the exec succeeded, so
    the harness's own spawn cost is kept out of every timing. The child is
    SIGKILLed once `done()` returns true or `timeout` seconds have passed
    since launch, whichever comes first.
    """
    with open(workdir / "stdout.log", "w") as log:
        before = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=log,
                                stderr=subprocess.STDOUT)
        t0 = time.perf_counter()
        launch_ns = time.time_ns()
    spawn_s = t0 - before
    timed_out = killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        now = time.perf_counter()
        if not killed and (now - t0 >= timeout or done()):
            timed_out = now - t0 >= timeout
            os.kill(proc.pid, signal.SIGKILL)
            killed = True
        time.sleep(0.002)
    wall_s = time.perf_counter() - t0
    exit_ns = time.time_ns()
    # Reaped here, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(launch_ns, spawn_s, wall_s, exit_ns, proc.returncode, usage,
                timed_out)


def run(torpedo, args, shards, workdir, timeout, chrome=False):
    """Runs one campaign to completion and returns its parsed Result.

    Raises CampaignError when it times out, exits non-zero or leaves an
    artifact that does not parse.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    trace = workdir / "trace.jsonl"
    metrics = workdir / "metrics.json"
    cmd = [str(torpedo), "run", *args, "--workdir", str(workdir / "wd"),
           "--trace", str(trace), "--metrics", str(metrics)]
    if chrome:
        cmd += ["--chrome-trace", str(workdir / "chrome.json")]
    child = spawn(cmd, workdir, timeout)
    if child.timed_out:
        raise CampaignError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if child.code != 0:
        raise CampaignError(f"exit {child.code}: {' '.join(cmd)}")

    check_json_artifacts(workdir)
    result = Result(
        wall_s=child.wall_s, launch_ns=child.launch_ns, exit_ns=child.exit_ns,
        peak_rss_mb=child.usage.ru_maxrss / 1024.0,
        shards=[parse_trace(f) for f in trace_files(trace, shards)],
        metrics=load_json(metrics),
        report=parse_report(workdir / "wd" / "report.txt"))
    if chrome:
        result.spans = load_json(workdir / "chrome.json")
    return result


def probe_setup(torpedo, args, shards, workdir, timeout):
    """Launches a campaign and kills it once every shard has started its
    first round.

    Returns (set-up seconds, spawn seconds): launch until the last shard's
    first round started, as the round records' own wall stamps date it, and
    how long the harness's Popen took before that launch.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    trace = workdir / "trace.jsonl"
    cmd = [str(torpedo), "run", *args, "--workdir", str(workdir / "wd"),
           "--trace", str(trace)]
    starts = {}

    def all_started():
        for f in trace_files(trace, shards):
            if f not in starts:
                record = first_record(f)
                if record and record.get("event") == "round":
                    starts[f] = round_start_ns(record)
        return len(starts) == shards

    child = spawn(cmd, workdir, timeout, done=all_started)
    if len(starts) < shards:
        raise CampaignError(f"no first round within {timeout:.0f} s "
                            f"(exit {child.code}): {' '.join(cmd)}")
    return (max(starts.values()) - child.launch_ns) / 1e9, child.spawn_s


def first_record(path):
    try:
        with open(path) as f:
            line = f.readline()
    except FileNotFoundError:
        return None
    return json.loads(line) if line.endswith("\n") else None


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise CampaignError(f"{path}: {e}") from e


def check_json_artifacts(workdir):
    """Every .json artifact must parse, and every line of every .jsonl."""
    for path in sorted(workdir.rglob("*.json")):
        load_json(path)
    for path in sorted(workdir.rglob("*.jsonl")):
        with open(path) as f:
            for n, line in enumerate(f, 1):
                try:
                    json.loads(line)
                except ValueError as e:
                    raise CampaignError(f"{path}:{n}: {e}") from e


def parse_trace(path):
    shard = {"rounds": [], "batches": [], "campaign": None}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            event = record["event"]
            if event == "round":
                shard["rounds"].append(record)
            elif event == "batch":
                shard["batches"].append(record)
            elif event == "campaign":
                shard["campaign"] = record
    if not shard["rounds"] or not shard["batches"] or not shard["campaign"]:
        raise CampaignError(f"{path}: no round, batch or campaign record")
    return shard


_CAUSE = re.compile(r"^cause: (.*) \((?:new|reconfirm)\)$")


def parse_report(path):
    """Findings' causes, crash messages and every program in report.txt.

    Each block is a `== finding: ... ==` or `== crash ==` header, `key: value`
    lines, then the serialized program up to a blank line.
    """
    causes, crashes, programs = [], [], []
    try:
        lines = path.read_text().split("\n")
    except OSError as e:
        raise CampaignError(f"{path}: {e}") from e
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("== "):
            continue
        while i < len(lines) and re.match(r"^[a-z]+: ", lines[i]):
            if m := _CAUSE.match(lines[i]):
                causes.append(m.group(1))
            elif lines[i].startswith("message: "):
                crashes.append(lines[i][len("message: "):])
            i += 1
        body = []
        while i < len(lines) and lines[i]:
            body.append(lines[i])
            i += 1
        programs.append("\n".join(body) + "\n")
    return {"causes": causes, "crashes": crashes, "programs": programs}


def check_programs_reparse(torpedo, programs, workdir, timeout):
    """Feeds every finding's program back through the CLI's own parser.

    `torpedo run --seeds-dir D --batches 0` loads D's .prog files, warns on
    each one that does not parse, and exits without fuzzing.
    """
    seeds = workdir / "reparse"
    seeds.mkdir(parents=True, exist_ok=True)
    for n, text in enumerate(programs):
        (seeds / f"finding-{n:04d}.prog").write_text(text)
    proc = subprocess.run(
        [str(torpedo), "run", "--seeds-dir", str(seeds), "--batches", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=timeout)
    loaded = re.search(r"^loaded (\d+) seeds", proc.stdout, re.M)
    if (proc.returncode != 0 or "parse error" in proc.stderr or not loaded
            or int(loaded.group(1)) != len(programs)):
        raise CampaignError(
            f"finding programs do not re-parse: {proc.stdout[:200]!r} "
            f"{proc.stderr[:400]!r}")
