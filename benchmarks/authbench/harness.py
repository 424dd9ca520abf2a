"""One benchmark run: set-up, measurement, metrics and the oracle.

``run.py`` is the command line; it makes the ``repro`` package
importable and then hands over to :func:`run_workload` and
:func:`report` here.  ``README.md`` documents every metric.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from drive import (
    closed_loop,
    fingerprint,
    open_loop,
    percentile,
    summarize_passes,
    trace_batches,
)
from spans import LAYERS, Tracer, instrument
from workloads import SERVING_TENANT, WORKLOADS

from repro.experiments.runner import run_experiment

SPAN_DIR = Path(__file__).resolve().parents[2] / ".authbench"

#: End-to-end metrics (``--trace 0``): name, unit.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("authorize_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("delivered_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)

#: Offered rates of the serving workload and the p99 latency limit,
#: fixed from a calibration run (README.md, "Serving calibration").
SERVE_LOW_RPS = 100.0
SERVE_HIGH_RPS = 400.0
SERVE_LIMIT_MS = 50.0
#: Share of the serving time spent at the low rate (the rest is high).
SERVE_LOW_SHARE = 0.25

#: Set-ups per run: as many as take ``SETUP_SHARE`` of ``--seconds``
#: at the first set-up's time, within these limits.  All but the first
#: are interleaved with the passes of the closed loop.
SETUP_SAMPLES = (5, 50)
SETUP_SHARE = 0.2

#: Experiments whose paper checks gate the ``paper`` workload:
#: Figure 1, Figure 2 and Examples 1-3.
GATE_EXPERIMENTS = ("E1", "E2", "E3", "E4", "E5")


def per_layer_catalog() -> Tuple[Tuple[str, str, str], ...]:
    """Per-layer metrics (``--trace 1``): name, unit, better."""
    timed = []
    for layer in LAYERS:
        timed.append((f"{layer}.ms", "ms", "lower"))
        timed.append((f"{layer}.calls", "count", "lower"))
    return (
        *timed,
        ("serving.batch.ms", "ms", "lower"),
        ("core.engine.self_ms", "ms", "lower"),
        ("metaalgebra.degraded", "count", "lower"),
        ("core.cache.hit_rate", "ratio", "higher"),
        ("core.cache.misses", "count", "lower"),
        ("core.cache.evictions", "count", "lower"),
        ("core.cache.invalidations", "count", "lower"),
        ("backends.rows_out", "rows", "lower"),
        ("resilience.failovers", "count", "lower"),
        ("core.apply_mask.rows_per_s", "rows/s", "higher"),
        ("core.stream.chunks", "count", "lower"),
        ("serving.queue_wait.p99_ms", "ms", "lower"),
        ("serving.batch.mean", "count", "higher"),
        ("serving.batch.distinct_plans_ratio", "ratio", "lower"),
        ("serving.sheds.soft", "count", "lower"),
        ("serving.sheds.hard", "count", "lower"),
        ("serving.backlog.max", "count", "lower"),
        ("loadgen.late.max_ms", "ms", "lower"),
        ("authorize_p99_ms", "ms", "lower"),
        ("grant_p99_ms", "ms", "lower"),
        ("failed_frac", "ratio", "lower"),
        ("serve_p50_ms.low", "ms", "lower"),
        ("serve_p99_ms.low", "ms", "lower"),
        ("serve_p50_ms.high", "ms", "lower"),
        ("serve_p99_ms.high", "ms", "lower"),
        ("sustained_rps", "1/s", "higher"),
        ("trace.throughput_ratio", "ratio", "higher"),
        ("trace.untraced_rps", "1/s", "higher"),
    )


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


class Run:
    """State of one benchmark run: metrics, counts and problems."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []
        #: First delivery of every distinct request, by op key.
        self.captured: Dict[Tuple, Any] = {}
        self.stack: Any = None
        #: Every op issued (the oracle answers their distinct requests).
        self.ops: List[Any] = []
        #: Untraced figures the traced half is compared against.
        self.base: Dict[str, float] = {}
        self.setup_times: List[float] = []
        self.setup_target = 1

    # -- set-up ---------------------------------------------------------

    def gate_experiments(self) -> None:
        for exp_id in GATE_EXPERIMENTS:
            result = run_experiment(exp_id)
            if not result.passed:
                self.problems.append(f"experiment {exp_id} failed its "
                                     f"paper checks")

    def setup(self) -> None:
        """Build and warm the stack, timed; it becomes the stack the
        run measures (the previous one is closed first).

        The set-up's objects are then frozen (``gc.freeze``), as a
        long-running server does with its start-up heap, so the
        collector's full passes do not walk the stack's data.  Unfrozen,
        such a pass walks every row of ``scan``'s database, costs tens
        of milliseconds, and lands on whichever op crosses the
        allocation threshold, so op times followed the op order more
        than the ops' own work."""
        gc.unfreeze()
        if self.stack is not None:
            self.stack.close()
            self.stack = None
        gc.collect()
        start = time.perf_counter()
        stack = self.workload.build(self.seed)
        self.workload.warm(stack, self.seed)
        self.setup_times.append(time.perf_counter() - start)
        self.stack = stack
        gc.collect()
        gc.freeze()

    def setup_between(self, seconds: float) -> Callable[[float], None]:
        """A hook for the closed loop that re-times the set-up between
        passes, evenly over ``seconds`` of measurement, so the samples
        see the same slow and fast periods as the passes."""
        samples = min(SETUP_SAMPLES[1], max(
            SETUP_SAMPLES[0],
            int(SETUP_SHARE * seconds / self.setup_times[0])))
        self.setup_target = samples

        def between(measured: float) -> None:
            while len(self.setup_times) < 1 + (samples - 1) \
                    * min(1.0, measured / seconds):
                self.setup()

        return between

    def finish_setup(self) -> None:
        """Take the set-ups the measurement ended before, then report
        the fastest, as the op times are (see ``summarize_passes``)."""
        while len(self.setup_times) < self.setup_target:
            self.setup()
        self.metrics["setup_s"] = min(self.setup_times)
        self.notes.append(f"{len(self.setup_times)} set-ups")

    # -- closed loop ------------------------------------------------------

    def closed(self, seconds: float, traced: bool) -> Any:
        ops = self.workload.script(self.seed)
        tracer = Tracer() if traced else None
        between = None if traced else self.setup_between(seconds)
        passes = closed_loop(self.workload, lambda: self.stack, ops,
                             seconds, self.captured, tracer, between)
        for result in passes:
            self.attempted += result.attempted
            self.failed += result.failed
            for error in result.errors:
                self.notes.append(f"failed op: {error}")
        if any(p.deterministic != passes[0].deterministic
               for p in passes):
            self.problems.append(
                "deterministic counters differ between passes: "
                + ", ".join(str(p.deterministic) for p in passes))
        self.ops = list(ops)
        return passes, tracer

    def closed_end_to_end(self, seconds: float) -> None:
        passes, _ = self.closed(seconds, traced=False)
        self.finish_setup()
        summary = summarize_passes(passes)
        for name in ("authorize_p50_ms", "throughput_rps",
                     "delivered_rows_per_s"):
            self.metrics[name] = summary[name]
        self.base = summary
        self.notes.append(
            f"{len(passes)} passes of {len(passes[0].latencies)} query "
            f"ops (+{len(passes[0].grant_latencies)} grant ops) each")

    def closed_traced(self, seconds: float) -> None:
        passes, tracer = self.closed(seconds, traced=True)
        requests = sum(len(p.latencies) for p in passes)
        traced = summarize_passes(passes)
        first = passes[0]
        hits, misses, invalidations, evictions = first.cache
        self.layer_metrics(tracer, requests, busy=sum(
            p.seconds for p in passes))
        self.metrics.update({
            "metaalgebra.degraded": first.degraded,
            "core.cache.hit_rate": hits / (hits + misses)
            if hits + misses else 1.0,
            "core.cache.misses": misses,
            "core.cache.evictions": evictions,
            "core.cache.invalidations": invalidations,
            "resilience.failovers": first.failovers,
            "core.stream.chunks": first.chunks / len(first.latencies),
            "trace.throughput_ratio": traced["throughput_rps"]
            / self.base["throughput_rps"],
            "trace.untraced_rps": self.base["throughput_rps"],
            "authorize_p99_ms": self.base["authorize_p99_ms"],
            "grant_p99_ms": self.base["grant_p99_ms"],
        })

    # -- open loop --------------------------------------------------------

    def serve(self, seconds: float, traced: bool) -> Dict[str, Any]:
        server = self.stack.server
        engine = server.tenants.get(SERVING_TENANT).engine
        tracer = Tracer() if traced else None
        phases: Dict[str, Any] = {}
        starts: Dict[int, float] = {}
        batches: List[Tuple[int, int]] = []
        before = server.telemetry()
        for label, rate, share in (
                ("low", SERVE_LOW_RPS, SERVE_LOW_SHARE),
                ("high", SERVE_HIGH_RPS, 1.0 - SERVE_LOW_SHARE)):
            schedule = self.workload.arrivals(self.seed, rate,
                                              seconds * share)
            removers = []
            if tracer is not None:
                removers.append(instrument(tracer, engine, server).remove)
                removers.append(
                    trace_batches(server, tracer, starts, batches))
            try:
                phase = open_loop(server, rate, schedule, self.captured,
                                  tracer,
                                  starts if tracer is not None else None)
            finally:
                for remove in reversed(removers):
                    remove()
            phases[label] = phase
            self.attempted += phase.attempted
            self.failed += phase.failed
            self.notes.extend(f"failed request: {e}"
                              for e in phase.errors)
            self.ops.extend(op for _, op in schedule)
        after = server.telemetry()
        return {"phases": phases, "tracer": tracer, "batches": batches,
                "before": before, "after": after}

    def serve_open(self, seconds: float) -> None:
        """Untraced open-loop phases: the ``serve_*`` figures, the
        sustained rate and the scheduling-dependent server counters."""
        result = self.serve(seconds, traced=False)
        phases = result["phases"]
        before, after = result["before"], result["after"]
        sustained = 0.0
        for label, phase in phases.items():
            p50 = percentile(phase.latencies, 0.5) * 1e3
            p99 = percentile(phase.latencies, 0.99) * 1e3
            self.metrics[f"serve_p50_ms.{label}"] = p50
            self.metrics[f"serve_p99_ms.{label}"] = p99
            if p99 <= SERVE_LIMIT_MS and phase.failed == 0 \
                    and not phase.backlog_growing:
                sustained = max(sustained, phase.rate)
            self.notes.append(
                f"{label} {phase.rate:g} rps: {phase.attempted} requests, "
                f"p50 {p50:.2f} ms, p99 {p99:.2f} ms, late max "
                f"{max(phase.late) * 1e3:.1f} ms, backlog samples "
                f"{min(phase.backlog)}..{max(phase.backlog)}")
        high = phases["high"]
        self.base = {"throughput_rps": high.attempted / high.seconds}
        self.metrics.update({
            "sustained_rps": sustained,
            "serving.batch.mean": (after.batched_requests
                                   - before.batched_requests)
            / max(1, after.batches - before.batches),
            "serving.sheds.soft": sum(after.admission.soft_sheds)
            - sum(before.admission.soft_sheds),
            "serving.sheds.hard": after.admission.hard_sheds
            - before.admission.hard_sheds,
            "serving.backlog.max": after.admission.max_backlog,
            "loadgen.late.max_ms": max(
                max(p.late) for p in phases.values()) * 1e3,
        })

    def serve_traced(self, seconds: float) -> None:
        """Traced open-loop phases: per-layer times, queue waits and
        batch composition."""
        result = self.serve(seconds, traced=True)
        phases = result["phases"]
        tracer = result["tracer"]
        requests = sum(p.attempted for p in phases.values())
        self.layer_metrics(tracer, requests,
                           tracer.busy("serving.submit", "serving.batch"))
        before, after = result["before"], result["after"]
        delta = {
            field: sum(getattr(s, field) for s in after.cache_stats.values())
            - sum(getattr(s, field) for s in before.cache_stats.values())
            for field in ("hits", "misses", "evictions", "invalidations")
        }
        lookups = delta["hits"] + delta["misses"]
        batches = result["batches"]
        waits = [w for p in phases.values() for w in p.queue_waits]
        high = phases["high"]
        self.metrics.update({
            "metaalgebra.degraded": sum(
                p.degraded for p in phases.values()),
            "core.cache.hit_rate": delta["hits"] / lookups
            if lookups else 1.0,
            "core.cache.misses": delta["misses"],
            "core.cache.evictions": delta["evictions"],
            "core.cache.invalidations": delta["invalidations"],
            "resilience.failovers": sum(
                p.failovers for p in phases.values()),
            "serving.queue_wait.p99_ms": percentile(waits, 0.99) * 1e3
            if waits else 0.0,
            "serving.batch.distinct_plans_ratio": sum(
                d for _, d in batches) / max(1, sum(s for s, _ in batches)),
            "trace.throughput_ratio": (high.attempted / high.seconds)
            / self.base["throughput_rps"],
            "trace.untraced_rps": self.base["throughput_rps"],
        })

    # -- per-layer --------------------------------------------------------

    def layer_metrics(self, tracer: Any, requests: int,
                      busy: float) -> None:
        """Self ms and calls per request of every layer, and each
        layer's share of the busy time (printed, not a metric)."""
        seconds, calls = tracer.self_times()
        per = 1.0 / max(1, requests)
        for layer in LAYERS:
            self.metrics[f"{layer}.ms"] = seconds.get(layer, 0.0) * 1e3 * per
            self.metrics[f"{layer}.calls"] = calls.get(layer, 0) * per
        self.metrics["serving.batch.ms"] = \
            seconds.get("serving.batch", 0.0) * 1e3 * per
        self.metrics["core.engine.self_ms"] = \
            seconds.get("core.engine", 0.0) * 1e3 * per
        rows = tracer.counts
        self.metrics["backends.rows_out"] = \
            rows.get("backends.rows_out", 0) * per
        apply_seconds = seconds.get("core.apply_mask", 0.0)
        self.metrics["core.apply_mask.rows_per_s"] = (
            rows.get("core.apply_mask.rows", 0) / apply_seconds
            if apply_seconds else 0.0)
        shares = sorted(
            ((value / busy, name) for name, value in seconds.items()
             if busy > 0), reverse=True)
        self.notes.append("self-time shares: " + ", ".join(
            f"{name} {share:.1%}" for share, name in shares
            if share >= 0.005))
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(str(SPAN_DIR / f"spans-{self.name}.jsonl"))

    # -- verification -----------------------------------------------------

    def verify(self) -> None:
        """Compare every captured delivery with each oracle's (row
        multisets: the sqlite backend may order rows differently)."""
        for oracle, config in self.workload.oracles:
            expected = self.workload.reference(self.seed, self.ops, config)
            for key, delivered in self.captured.items():
                rows = expected.get(key, ())
                if delivered != fingerprint(rows):
                    kind, user, text, _ = key
                    self.problems.append(
                        f"{kind} by {user} delivered "
                        f"{sum(delivered.values())} rows, {oracle} "
                        f"{len(rows)}: {text[:60]!r}")
            self.notes.append(
                f"verified {len(self.captured)} distinct requests "
                f"against the {oracle}")


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Run:
    run = Run(name, seed)
    # One CPU for the whole process: the load comes from one thread, and
    # the interpreter lock lets one thread run Python at a time, so a
    # second CPU buys nothing.  On a virtual machine, though, a process
    # moved between CPUs, or a hand-off to a server worker on another
    # CPU, meets that CPU's neighbours and its wake-up latency.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if name == "paper":
        run.gate_experiments()
    run.setup()
    try:
        if trace and name == "serving":
            run.finish_setup()
            run.serve_open(seconds / 2)
            run.serve_traced(seconds / 2)
        elif trace:
            run.closed_end_to_end(seconds / 2)
            run.closed_traced(seconds / 2)
        else:
            run.closed_end_to_end(seconds)
        run.metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        run.stack.close()
        gc.unfreeze()
    run.metrics["failed_frac"] = run.failed / max(1, run.attempted)
    run.verify()
    return run


def report(run: Run, trace: bool) -> Dict[str, Any]:
    if trace:
        catalog = [(name, unit) for name, unit, _ in per_layer_catalog()]
    else:
        catalog = list(END_TO_END)
    metrics = {
        name: {"value": run.metrics.get(name, 0.0), "unit": unit}
        for name, unit in catalog
    }
    print(f"workload {run.name}, seed {run.seed}, "
          f"{'traced' if trace else 'untraced'}")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems:
        print(f"  MISMATCH: {problem}")
    for name, entry in metrics.items():
        print(f"  {name:<38} {entry['value']:>14.6g} {entry['unit']}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
