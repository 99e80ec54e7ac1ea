"""One workload run in a fresh process; started by run.py.

    python3 heatbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR [--setup-only]

Every time is process CPU time (``time.process_time``): the load is one
thread, so it is the time the program computes, without the time another
process holds the processor.  Each time is then taken to the reference
speed of speed.py, from probes run after set-up and between ops, so that
most of a shared host's speed drift cancels.  Set-up time is measured
from before the package is imported, so it covers the import, building
the workload's models and presets, and one warm-up op of each kind.  The
timed phase then runs whole passes of the deck, and stops before a pass
that would end after --seconds of wall time, once MIN_SAMPLES ops have
succeeded.  The worker prints one JSON object as its last line; run.py
turns it into the benchmark's result.
"""

from __future__ import annotations

import time

CLOCK = time.process_time
T_START = CLOCK()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

#: succeeded ops a run needs, so that 10 latencies lie beyond op_p90_ms
MIN_SAMPLES = 100
#: passes go on past --seconds until MIN_SAMPLES, but not past this many
#: times --seconds; run.py refuses a run that ends short of MIN_SAMPLES
MAX_OVERRUN = 2.0


def execute(workload, op, op_id, ctx, rec):
    """Run one op; any exception is a failed op, never a crashed run."""
    import workloads  # imported by main() after the set-up clock started

    t = CLOCK()
    try:
        with rec.op(op_id, op.kind):
            ok, digits, why = workloads.run(workload, op, ctx, rec)
    except Exception as exc:  # the op failed; the run goes on
        ok, digits, why = False, None, f"{type(exc).__name__}: {exc}"
    return ok, digits, why, CLOCK() - t


class Tally:
    """Outcomes of the ops of one run.

    Oracle digits are kept only for ops outside ``known`` (the baseline
    failures), so that a known defect's fixed error does not mask a
    precision loss elsewhere.
    """

    def __init__(self, known):
        self.known = known
        self.attempted = 0
        self.samples = 0  # succeeded ops
        #: one entry per op: (name if it succeeded else None, wall time, CPU seconds)
        self.timings: list[tuple[str | None, float, float]] = []
        self.failures: Counter = Counter()
        self.reasons: dict[str, str] = {}
        self.digits_min = math.inf

    def add(self, op, ok, digits, why, dt, at=0.0):
        self.attempted += 1
        if digits is not None and op.name not in self.known:
            self.digits_min = min(self.digits_min, digits)
        self.timings.append((op.name if ok else None, at, dt))
        if ok:
            self.samples += 1
        else:
            self.failures[op.name] += 1
            self.reasons.setdefault(op.name, why)

    @property
    def failed(self):
        return sum(self.failures.values())

    def normalised(self, speed):
        """Every time at the reference speed: the latencies of succeeded ops
        by name, and the time of all ops."""
        latencies: dict[str, list[float]] = {}
        total = 0.0
        for name, at, dt in self.timings:
            x = dt * speed.scale(at)
            total += x
            if name is not None:
                latencies.setdefault(name, []).append(x)
        return latencies, total


def latency_quantiles(latencies, per_pass):
    """(p50, p90) in ms over the ops of a pass, each op at the median
    latency of its name over the run.

    Weighting each name by its slots per pass keeps the deck's mix; taking
    the name's median first keeps the quantile from jumping between two
    clusters of op costs when a few samples move, so a quantile moves only
    as far as the op costs next to it do.
    """
    typical = sorted(
        1e3 * statistics.median(v) for name, v in latencies.items() for _ in range(per_pass[name])
    )
    return statistics.median(typical), statistics.quantiles(typical, n=10)[8]


def timed_phase(workload, seed, seconds, ctx, log, recorder=None):
    """Whole passes until the next one would end after ``seconds`` of wall
    time and MIN_SAMPLES ops have succeeded, or would end after MAX_OVERRUN
    times ``seconds``.  The reference probe runs between ops into the
    SpeedLog ``log``.  Returns the tally, the wall time, the pass count and
    the tracing overhead.

    With a recorder, each op runs twice, untraced and traced, in alternating
    order; the traced runs feed the spans and the pair gives the overhead.
    """
    import workloads
    from spans import NullRecorder

    null = NullRecorder()
    tally = Tally(workloads.KNOWN_FAILURES[workload])
    wall = traced_time = untraced_time = 0.0
    pass_index = op_id = 0
    while True:
        ops = workloads.deck(workload, seed, pass_index)
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            order = [null] if recorder is None else (null, recorder) if i % 2 == 0 else (recorder, null)
            for rec in order:
                log.maybe_probe()
                t = time.perf_counter()
                ok, digits, why, dt = execute(workload, op, op_id, ctx, rec)
                tally.add(op, ok, digits, why, dt, 0.5 * (t + time.perf_counter()))
                if rec is recorder:
                    traced_time += dt
                else:
                    untraced_time += dt
            op_id += 1
        last = time.perf_counter() - t_pass
        wall += last
        pass_index += 1
        enough = tally.samples >= MIN_SAMPLES
        if wall + last > (seconds if enough else MAX_OVERRUN * seconds):
            break
    log.probe_now()
    overhead = traced_time / untraced_time - 1.0 if recorder else None
    return tally, wall, pass_index, overhead


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads
    from spans import NullRecorder, Recorder

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    ctx = workloads.setup(args.workload, NullRecorder())
    setup_cpu = CLOCK() - T_START
    import speed  # after the set-up clock stopped

    speed.probe()  # the first call also warms the probe
    log = speed.SpeedLog()
    for _ in range(2 * speed.WINDOW):
        log.probe_now()
    setup_s = setup_cpu * log.scale(time.perf_counter())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = Recorder() if args.trace else None
    tally, wall, passes, overhead = timed_phase(args.workload, args.seed, args.seconds, ctx, log, recorder)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    if children.ru_utime + children.ru_stime > 0.0:
        raise SystemExit("the workload started child processes, whose work process CPU time does not count")
    known = workloads.KNOWN_FAILURES[args.workload]
    latencies, op_time = tally.normalised(log)
    p50, p90 = latency_quantiles(latencies, workloads.slot_counts(args.workload))
    out = {
        "setup_s": setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": sorted(set(tally.failures) - known),
        "failures": dict(sorted(tally.failures.items())),
        "reasons": tally.reasons,
        "passes": passes,
        "wall_s": wall,
        "samples": tally.samples,
        "ops_per_s": tally.samples / op_time,
        "probes": len(log.times),
        "probe_median_s": statistics.median(log.durations),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "oracle_digits_min": min(tally.digits_min, 12.0),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        import layers

        out["layers"] = layers.layer_metrics(recorder, overhead)
        out["layers"].update(layers.baseline_table())
        path = args.out / f"spans-{args.workload}-{args.seed}.jsonl"
        with path.open("w") as fh:
            for s in recorder.spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
