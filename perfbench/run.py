"""symflow benchmark: time to verdict on four verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it needs ``src/symflow``).  All engine
work happens in child interpreters started one at a time (``worker.py``);
this process only generates inputs, knows the answers and keeps time.

With ``--trace 0`` it measures for about ``--seconds`` seconds, closed loop
with one caller, and reports the end-to-end metrics.  With ``--trace 1`` it
runs a fixed set of units three times, once untraced and twice traced in
fresh interpreters, reports the per-layer metrics of the first traced pass
and the tracing overhead, and fails (exit 3) if any exact count differs
between the two traced passes.  Every verdict is checked against a known
answer; the last line of output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

RUN_LIMIT_S = 170.0
# Extra set-up-only interpreters per run; setup_s is the median of these and
# of the set-up of every interpreter that did work.
SETUP_PROBES = {"pipeline": 3, "determining": 3, "candidates": 2, "classification": 4}
# Units of a traced run.  Fixed, so that its exact counts compare across
# commits: one cold unit, one block of the candidate stream, 100 triples.
TRACE_UNITS = {
    "pipeline": [0],
    "determining": [0],
    "candidates": list(range(workloads.CANDIDATE_BLOCK)),
    "classification": list(range(100)),
}
END_TO_END = {"setup_s": "s", "verdict_s": "s", "verdicts_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {**LAYER_METRICS, "cli.attributed_ratio": "ratio", "trace.overhead_s": "s"}


class BenchmarkError(Exception):
    pass


# ---------------------------------------------------------------------------
# child interpreters
# ---------------------------------------------------------------------------


class Child:
    """One worker interpreter; reads its JSON-line events with a deadline."""

    def __init__(self, root: str, job: dict, deadline: float):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Fixed string hashing: set iteration order, and with it the exact
        # counts of a traced run, repeat from one interpreter to the next.
        env["PYTHONHASHSEED"] = "0"
        self.deadline = deadline
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=root, env=env,
        )
        self._buffer = b""

    def events(self):
        """Yield (event, perf_counter at arrival) until the child closes."""
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" not in self._buffer:
                remaining = self.deadline - time.perf_counter()
                if remaining <= 0:
                    raise BenchmarkError("worker exceeded the run's time limit")
                ready, _, _ = select.select([fd], [], [], remaining)
                if not ready:
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return
                self._buffer += chunk
            line, _, self._buffer = self._buffer.partition(b"\n")
            yield json.loads(line), time.perf_counter()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Batch:
    """What the children of one pass reported.

    Times are rescaled to the reference speed (see the speed probe in
    worker.py); the ``raw_`` lists hold the same times as wall clock.
    """

    def __init__(self):
        self.setups: list[float] = []
        self.verdicts: list[float] = []
        self.raw_setups: list[float] = []
        self.raw_verdicts: list[float] = []
        self.attempted = 0
        self.wrong: list[str] = []
        self.peak_rss_mb = 0.0
        self.layers: dict | None = None
        self.attributed_s = 0.0


def run_child(root, workload, seed, job, deadline, batch: Batch):
    """Start one worker, collect its events into ``batch``, wait for it."""
    cold = workload in workloads.COLD
    child = Child(root, {"workload": workload, "seed": seed, **job}, deadline)
    done = False
    try:
        for event, arrived in child.events():
            kind = event["event"]
            # From launching the interpreter to this event, probes taken out.
            since_launch = (arrived - child.launched - event.get("probe_s", 0.0)) * event.get("factor", 1.0)
            if kind == "ready":
                batch.setups.append(since_launch)
                batch.raw_setups.append(arrived - child.launched)
            elif kind == "verdict":
                batch.attempted += 1
                batch.verdicts.append(since_launch if cold else event["s"])
                batch.raw_verdicts.append(arrived - child.launched if cold else event["wall_s"])
                reasons = judge(workload, seed, event)
                if reasons:
                    batch.wrong.append(f"unit {event['index']}: {'; '.join(reasons)}")
                elif workload == "pipeline":
                    checks = event["verdict"]["report"]["checks"]
                    batch.attributed_s += sum(c.get("ms", 0.0) for c in checks) / 1000.0
            elif kind == "done":
                done = True
                batch.peak_rss_mb = max(batch.peak_rss_mb, event["peak_rss_mb"])
                batch.layers = event.get("layers")
    finally:
        child.close()
    if not done:
        # A worker that dies mid-run loses the unit it was working on.
        batch.attempted += 1
        batch.wrong.append(f"worker exited with code {child.proc.returncode} before finishing")


def judge(workload: str, seed: int, event: dict) -> list[str]:
    """Reasons one unit's verdict differs from the known answer."""
    if event.get("error"):
        return [f"crashed: {event['error']}"]
    verdict, index = event["verdict"], event["index"]
    if workload == "pipeline":
        return workloads.judge_pipeline(verdict)
    if workload == "determining":
        return workloads.judge_determining(verdict)
    if workload == "candidates":
        spec = workloads.candidate_spec(seed, index)
        want = workloads.expected_candidate(spec)
        return [] if verdict is want else [f"{spec['family']} kick {spec['kick']}: got {verdict}, want {want}"]
    want = workloads.encode(workloads.expected_class(workloads.classification_triple(seed, index)))
    return [] if verdict == want else [f"got {verdict}, want {want}"]


# ---------------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------------


def timed_run(root, workload, seed, seconds, deadline) -> Batch:
    batch = Batch()
    for _ in range(SETUP_PROBES[workload]):
        run_child(root, workload, seed, {"setup_only": True}, deadline, batch)
    if workload not in workloads.COLD:
        run_child(root, workload, seed, {"seconds": seconds}, deadline, batch)
        return batch
    start = time.perf_counter()
    index = 0
    while True:
        run_child(root, workload, seed, {"units": [index]}, deadline, batch)
        index += 1
        elapsed = time.perf_counter() - start
        # Start another unit only if it is expected to end within the window.
        if elapsed + elapsed / index > seconds:
            return batch


def traced_run(root, workload, seed, deadline):
    job = {"units": TRACE_UNITS[workload]}
    plain, first, second = Batch(), Batch(), Batch()
    run_child(root, workload, seed, job, deadline, plain)
    spans = os.path.join(HERE, "out", f"spans-{workload}-%s.json")
    run_child(root, workload, seed, {**job, "trace": True, "spans": spans % "a"}, deadline, first)
    run_child(root, workload, seed, {**job, "trace": True, "spans": spans % "b"}, deadline, second)
    if first.layers is None or second.layers is None:
        raise BenchmarkError("a traced worker reported no layer metrics")
    differing = [
        f"{name}: {first.layers[name]} then {second.layers[name]}"
        for name, unit in LAYER_METRICS.items()
        if unit == "count" and first.layers[name] != second.layers[name]
    ]
    if differing:
        raise BenchmarkError("exact counts differ between two traced runs: " + ", ".join(differing))
    return plain, first, second


def result_line(batches, metrics: dict, units: dict) -> dict:
    attempted = sum(b.attempted for b in batches)
    failed = sum(len(b.wrong) for b in batches)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def tail(values: list[float]):
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten samples beyond it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100 * (n - 10) // n


def summarize(workload, seed, batches, metrics, units, notes):
    for batch in batches:
        for reason in batch.wrong:
            print(f"WRONG {workload}: {reason}")
    attempted = sum(b.attempted for b in batches)
    failed = sum(len(b.wrong) for b in batches)
    print(f"workload {workload} seed {seed}: {attempted} units, {failed} wrong or crashed")
    print(f"  wrong_verdict_ratio {failed / attempted if attempted else 1.0:.6g} ratio")
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}")
    for note in notes:
        print(f"  {note}")


def timed_metrics(batch: Batch):
    if not batch.verdicts:
        raise BenchmarkError("no unit completed")
    metrics = {
        "setup_s": statistics.median(batch.setups),
        "verdict_s": statistics.median(batch.verdicts),
        "verdicts_per_s": len(batch.verdicts) / sum(batch.verdicts),
        "peak_rss_mb": batch.peak_rss_mb,
    }
    notes = [
        f"samples: {len(batch.setups)} set-ups, {len(batch.verdicts)} verdicts",
        f"wall clock: setup_s {statistics.median(batch.raw_setups):.6g} s, "
        f"verdict_s {statistics.median(batch.raw_verdicts):.6g} s",
    ]
    high = tail(batch.verdicts)
    notes.append(
        f"verdict_s_tail {high[0]:.6g} s (p{high[1]} of {len(batch.verdicts)})" if high
        else f"verdict_s_tail not reported: {len(batch.verdicts)} samples, 11 needed"
    )
    return metrics, notes


def traced_metrics(workload, plain: Batch, first: Batch):
    metrics = dict(first.layers)
    metrics["cli.attributed_ratio"] = (
        plain.attributed_s / plain.raw_verdicts[0] if workload == "pipeline" else 0.0
    )
    traced, untraced = statistics.median(first.verdicts), statistics.median(plain.verdicts)
    metrics["trace.overhead_s"] = traced - untraced
    notes = [f"verdict_s traced {traced:.6g} s, untraced {untraced:.6g} s, "
             f"{len(plain.verdicts)} units per pass"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "symflow", "__init__.py")):
        print("perfbench: no src/symflow here; run from the root of a symflow checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            batches = traced_run(root, args.workload, args.seed, deadline)
            metrics, notes = traced_metrics(args.workload, batches[0], batches[1])
        else:
            batches = (timed_run(root, args.workload, args.seed, args.seconds, deadline),)
            metrics, notes = timed_metrics(batches[0])
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    units = PER_LAYER if args.trace else END_TO_END
    summarize(args.workload, args.seed, batches, metrics, units, notes)
    print(json.dumps(result_line(batches, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
