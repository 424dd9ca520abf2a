"""Load drivers: closed-loop passes and open-loop Poisson phases.

Closed loop (every workload's end-to-end figures): one client thread
replays the workload's fixed-length op script in *passes* until the
run's time is up.  Every pass starts from the same warm state (``churn``
restores its grants by the end of each pass), so each pass has the same
sample count and the same deterministic counters, and the k-th op of
every pass does the same work.

Open loop (``serving``'s traced runs): the main thread is the load
generator.  It submits each request at its scheduled (due) time
whatever the server is doing, and every latency is measured from that
due time, so a stalled server or a late generator shows up in the
numbers.
"""

from __future__ import annotations

import gc
import math
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spans import Tracer, instrument
from workloads import SERVING_TENANT, Op

perf = time.perf_counter


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class PassResult:
    """One replay of the op script."""

    seconds: float
    latencies: List[float] = field(default_factory=list)
    grant_latencies: List[float] = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    degraded: int = 0
    failovers: int = 0
    chunks: int = 0
    #: Cache hits, misses, invalidations and evictions during the pass.
    cache: Tuple[int, int, int, int] = (0, 0, 0, 0)
    errors: List[str] = field(default_factory=list)

    @property
    def deterministic(self) -> Tuple[int, ...]:
        """Counters that must repeat exactly from pass to pass."""
        return (*self.cache, self.rows, self.chunks, self.failed,
                self.degraded, self.failovers, len(self.latencies),
                len(self.grant_latencies))


def _cache_counters(engine: Any) -> Tuple[int, int, int, int]:
    stats = engine.stats()
    return (stats.hits, stats.misses, stats.invalidations,
            stats.evictions)


def fingerprint(rows: Any) -> Counter:
    """Order-free identity of a delivery: the multiset of row hashes
    (small, and free of references the collector would have to walk)."""
    return Counter(map(hash, rows))


def _issue(engine: Any, op: Op, collect: bool, result: PassResult,
           tracer: Optional[Tracer]) -> Optional[Counter]:
    """Run one query or stream op and account for its answer; return
    its fingerprint when ``collect`` is set."""
    captured: Optional[Counter] = None
    if op.kind == "query":
        outcome = engine.authorize(op.user, op.text)
        result.rows += len(outcome.delivered)
        if collect:
            captured = fingerprint(outcome.delivered)
    else:
        outcome = engine.authorize_stream(op.user, op.text)
        span = tracer.open("core.stream") if tracer is not None else None
        if collect:
            captured = Counter()
        for chunk in outcome:
            result.rows += len(chunk)
            result.chunks += 1
            if captured is not None:
                captured.update(map(hash, chunk))
        if span is not None:
            tracer.close(span)
            tracer.count("backends.rows_out", outcome.stats().total_rows)
    if outcome.failed_over:
        result.failovers += 1
    if outcome.degradation_level > 0:
        result.degraded += 1
    if outcome.error is not None or outcome.degradation_level > 0:
        result.failed += 1
        if len(result.errors) < 3:
            result.errors.append(
                f"{op.kind} {op.user}: level "
                f"{outcome.degradation_level}, {outcome.error}")
        return None
    return captured


def run_pass(engine: Any, ops: Sequence[Op],
             captured: Dict[Tuple, Counter],
             tracer: Optional[Tracer] = None) -> PassResult:
    """Replay ``ops`` once against ``engine`` (closed loop).  The first
    full-fidelity delivery of each distinct request is fingerprinted
    into ``captured`` for the oracle."""
    result = PassResult(seconds=0.0)
    before = _cache_counters(engine)
    start = perf()
    for op in ops:
        result.attempted += 1
        if tracer is not None:
            tracer.begin_request()
            root = tracer.open("request")
        began = perf()
        try:
            if op.kind in ("permit", "revoke"):
                grant = engine.permit if op.kind == "permit" \
                    else engine.revoke
                grant(op.view, op.user)
                result.grant_latencies.append(perf() - began)
            else:
                delivery = _issue(engine, op, op.key not in captured,
                                  result, tracer)
                result.latencies.append(perf() - began)
                if delivery is not None:
                    captured[op.key] = delivery
        except Exception as error:  # an exception is a failed op
            result.failed += 1
            if len(result.errors) < 3:
                result.errors.append(
                    f"{op.kind} {op.user}: "
                    f"{type(error).__name__}: {error}")
        if tracer is not None:
            tracer.close(root)
    result.seconds = perf() - start
    hits, misses, invalidations, evictions = _cache_counters(engine)
    result.cache = (hits - before[0], misses - before[1],
                    invalidations - before[2], evictions - before[3])
    return result


def closed_loop(workload: Any, stack_of: Callable[[], Any],
                ops: Sequence[Op], seconds: float,
                captured: Dict[Tuple, Counter],
                tracer: Optional[Tracer] = None,
                between: Optional[Callable[[float], None]] = None
                ) -> List[PassResult]:
    """Replay ``ops`` in passes until ``seconds`` have been measured
    (at least one pass); with a ``tracer``, every pass runs with span
    wrappers installed around its engine.  ``stack_of`` gives the
    current stack before each pass, and ``between`` is called between
    passes with the time measured so far (the harness re-times its
    set-up there)."""
    passes: List[PassResult] = []
    measured = 0.0
    while not passes or measured < seconds:
        if between is not None and passes:
            between(measured)
        passes.append(_engine_pass(workload.pass_engine(stack_of()), ops,
                                   captured, tracer))
        measured += passes[-1].seconds
    return passes


def _engine_pass(engine: Any, ops: Sequence[Op],
                 captured: Dict[Tuple, Counter],
                 tracer: Optional[Tracer]) -> PassResult:
    """One pass; the engine is referenced only here, so a stack the
    harness replaces between passes can be freed."""
    installed = instrument(tracer, engine) if tracer is not None else None
    gc.collect()
    try:
        return run_pass(engine, ops, captured, tracer)
    finally:
        if installed is not None:
            installed.remove()


def op_times(passes: Sequence[PassResult],
             field_name: str = "latencies") -> List[float]:
    """The time of each op of the script: its fastest time over the
    passes (the passes replay the same ops from the same state)."""
    return [min(samples)
            for samples in zip(*(getattr(p, field_name) for p in passes))]


def summarize_passes(passes: Sequence[PassResult]) -> Dict[str, float]:
    """The run's figures, from the per-op times of :func:`op_times`.

    Every pass replays the same ops from the same state, so the k-th op
    of every pass does the same work, and every op is timed once per
    pass, spread over the whole run.  Its fastest time keeps that work
    and drops what the host's slow periods add: on a shared virtual
    machine the median op slows by 30-60% for tens of seconds at a
    time, the fastest by much less.  The percentiles are over the
    per-op times; the rates divide by their sum, the time one pass
    takes at those times."""
    queries = op_times(passes)
    grants = op_times(passes, "grant_latencies")
    op_seconds = sum(queries) + sum(grants)
    return {
        "authorize_p50_ms": percentile(queries, 0.50) * 1e3,
        "authorize_p99_ms": percentile(queries, 0.99) * 1e3,
        "throughput_rps": len(queries) / op_seconds,
        "delivered_rows_per_s": passes[0].rows / op_seconds,
        "grant_p99_ms": percentile(grants, 0.99) * 1e3 if grants else 0.0,
    }


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------


@dataclass
class PhaseResult:
    """One fixed-rate open-loop phase."""

    rate: float
    latencies: List[float]
    late: List[float]
    seconds: float
    attempted: int
    backlog: List[int]
    rows: int = 0
    failed: int = 0
    degraded: int = 0
    failovers: int = 0
    errors: List[str] = field(default_factory=list)
    #: Submit-to-batch-start waits (traced phases only).
    queue_waits: List[float] = field(default_factory=list)

    @property
    def backlog_growing(self) -> bool:
        """Outstanding requests in the last quarter of the phase well
        above those in the first quarter."""
        quarter = max(1, len(self.backlog) // 4)
        first = statistics.mean(self.backlog[:quarter])
        last = statistics.mean(self.backlog[-quarter:])
        return last > 2 * first + 4


def open_loop(server: Any, rate: float,
              schedule: Sequence[Tuple[float, Op]],
              captured: Dict[Tuple, Counter],
              tracer: Optional[Tracer] = None,
              batch_starts: Optional[Dict[int, float]] = None
              ) -> PhaseResult:
    """Submit ``schedule`` (offset seconds, op) at its due times.

    Each answer is accounted for by its future's completion callback
    and then dropped, so the harness holds no answers while the server
    runs (they would lengthen the collector's pauses).  A full-fidelity
    answer to a request not seen before is kept in ``captured``.
    """
    count = len(schedule)
    done = [0.0] * count
    late = [0.0] * count
    submitted = [0.0] * count
    waits: List[float] = []
    backlog: List[int] = []
    result = PhaseResult(rate, [], late, 0.0, count, backlog)
    finished = threading.Condition()
    completed = [0]

    def finisher(index: int, op: Op) -> Any:
        def mark(future: Any) -> None:
            done[index] = perf()
            if batch_starts is not None:
                start = batch_starts.pop(id(future), None)
                if start is not None:
                    waits.append(start - submitted[index])
            try:
                answer = future.result()
            except Exception as error:  # an exception is a failed op
                result.failed += 1
                result.errors.append(f"{type(error).__name__}: {error}")
            else:
                result.rows += len(answer.delivered)
                result.failovers += answer.failed_over
                result.degraded += answer.degradation_level > 0
                if answer.error is not None \
                        or answer.degradation_level > 0:
                    result.failed += 1
                    if len(result.errors) < 3:
                        result.errors.append(
                            f"level {answer.degradation_level}, "
                            f"{answer.error}")
                elif op.key not in captured:
                    captured[op.key] = fingerprint(answer.delivered)
            with finished:
                completed[0] += 1
                finished.notify()
        return mark

    gc.collect()
    origin = perf() + 0.01
    for index, (offset, op) in enumerate(schedule):
        due = origin + offset
        wait = due - perf()
        if wait > 0:
            time.sleep(wait)
        now = perf()
        late[index] = now - due
        submitted[index] = now
        if tracer is not None:
            tracer.begin_request()
        future = server.submit(SERVING_TENANT, op.user, op.text)
        future.add_done_callback(finisher(index, op))
        if index % 25 == 0:
            backlog.append(index + 1 - completed[0])
    with finished:
        if not finished.wait_for(lambda: completed[0] == count,
                                 timeout=60):
            raise RuntimeError(f"{count - completed[0]} requests "
                               f"never completed")
    result.latencies = [
        done[i] - (origin + schedule[i][0]) for i in range(count)
    ]
    result.seconds = max(done) - origin
    result.backlog = backlog or [0]
    result.queue_waits = waits
    return result


def trace_batches(server: Any, tracer: Tracer,
                  batch_starts: Dict[int, float],
                  batches: List[Tuple[int, int]]) -> Callable[[], None]:
    """Wrap the server's batch drain: a ``serving.batch`` root span per
    batch (its own request id), the start time of every request in it,
    and (batch size, distinct statements).  Returns the remover."""
    original = server._process

    def process(key: Any, batch: List[Any]) -> None:
        start = perf()
        for pending in batch:
            batch_starts[id(pending.future)] = start
        batches.append((len(batch), len({p.query for p in batch})))
        tracer.begin_request()
        span = tracer.open("serving.batch")
        try:
            original(key, batch)
        finally:
            tracer.close(span)

    server._process = process

    def remove() -> None:
        del server._process

    return remove
