"""The benchmark's four workloads: stacks, op scripts and oracles.

Each workload builds a *stack* (database, catalog, engine or server —
the timed set-up), expands ``--seed`` into a fixed-length *op script*,
and answers, outside any timed region, what a reference engine
delivers for a request.  See ``README.md`` for why each was chosen.

The seed drives only the requests (order, users, statements, grant
toggles, arrival times) and, for ``scan``, the data values.  Stack
shapes are constants: a seeded stack shape would make the benchmark
measure a different catalog on every seed, and the run-to-run spread
would then say more about the seed than about the code.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.algebra.database import Database, build_database
from repro.algebra.schema import make_schema
from repro.algebra.types import INTEGER, STRING
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.core.audit import AuditLog
from repro.core.engine import AuthorizationEngine
from repro.meta.catalog import PermissionCatalog
from repro.serving.server import AuthorizationServer, ServerConfig
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.paperdb import (
    EXAMPLE_1_QUERY,
    EXAMPLE_2_QUERY,
    EXAMPLE_3_QUERY,
    build_paper_catalog,
    build_paper_database,
)

#: The reference engine every delivered answer is checked against: the
#: interpreted mask, the materializing product, the row-at-a-time
#: kernel and the in-process evaluator, with no derivation cache.
REFERENCE_CONFIG = DEFAULT_CONFIG.but(
    compiled_masks=False,
    streaming_product=False,
    columnar_masks=False,
    backend="python",
    derivation_cache_size=0,
)

#: Audit-trail capacity of the closed-loop engines (ring buffer).
AUDIT_CAPACITY = 4096

Views = FrozenSet[str]


@dataclass(frozen=True)
class Op:
    """One scripted request.

    ``kind`` is ``"query"`` (``authorize``), ``"stream"``
    (``authorize_stream``), ``"permit"`` or ``"revoke"``.  ``grants``
    is the issuing user's view set when a query or stream op runs —
    with ``user`` and ``text`` it identifies the request for the
    oracle.
    """

    kind: str
    user: str
    text: str = ""
    view: str = ""
    grants: Views = frozenset()

    @property
    def key(self) -> Tuple[str, str, str, Views]:
        return (self.kind, self.user, self.text, self.grants)


@dataclass
class Stack:
    """What a workload's set-up builds."""

    database: Database
    catalog: PermissionCatalog
    engine: Optional[AuthorizationEngine] = None
    server: Optional[AuthorizationServer] = None
    #: Statement pool and user population of generated stacks.
    texts: Tuple[str, ...] = ()
    users: Tuple[str, ...] = ()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def stratified(weights: Sequence[float], total: int) -> List[int]:
    """Integer counts proportional to ``weights`` summing to ``total``
    (largest-remainder rounding), so every seed issues the same mix."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)),
                   key=lambda i: (counts[i] - exact[i], i))
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_weights(count: int, skew: float) -> List[float]:
    return [1.0 / (rank + 1) ** skew for rank in range(count)]


def set_grants(catalog: PermissionCatalog, user: str,
               views: Views) -> None:
    """Make ``user``'s grants exactly ``views``."""
    current = set(catalog.views_of(user))
    for view in sorted(current - views):
        catalog.revoke(view, user)
    for view in sorted(views - current):
        catalog.permit(view, user)


def server_workers() -> int:
    """``nproc - 1`` serving workers, at least one."""
    return max(1, (os.cpu_count() or 2) - 1)


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    #: The oracles every captured delivery must match: a name and the
    #: engine configuration that answers for it.
    oracles: Tuple[Tuple[str, EngineConfig], ...] = (
        ("reference engine", REFERENCE_CONFIG),
    )

    def build(self, seed: int) -> Stack:
        raise NotImplementedError

    def warm(self, stack: Stack, seed: int) -> None:
        """Warm-up counted in ``setup_s`` (caches, lazy imports)."""

    def script(self, seed: int) -> List[Op]:
        raise NotImplementedError

    def pass_engine(self, stack: Stack) -> AuthorizationEngine:
        raise NotImplementedError

    def reference(self, seed: int, ops: Sequence[Op],
                  config: EngineConfig) -> Dict[Tuple, Tuple[Tuple, ...]]:
        """Deliveries of a fresh single-threaded engine with ``config``
        for the distinct requests in ``ops``, answered serially."""
        stack = self.build(seed)
        engine = AuthorizationEngine(stack.database, stack.catalog, config)
        answers: Dict[Tuple, Tuple[Tuple, ...]] = {}
        for op in ops:
            if op.kind in ("query", "stream") and op.key not in answers:
                set_grants(stack.catalog, op.user, op.grants)
                answers[op.key] = engine.authorize(
                    op.user, op.text).delivered
        return answers


# ----------------------------------------------------------------------
# paper: Figure 1, Examples 1-3 as text, audit on, all cache hits
# ----------------------------------------------------------------------

#: The six requests, hottest first; they are issued with Zipf (skew 1)
#: frequencies.  The order puts the hottest request in the middle of
#: the latency range (three requests are faster, two slower), so the
#: median latency falls inside one request's cluster: with six equal
#: shares it would sit on the boundary between two clusters and jump
#: from one to the other with small speed changes.
PAPER_REQUESTS = (
    ("Klein", EXAMPLE_3_QUERY),
    ("Brown", EXAMPLE_2_QUERY),
    ("Brown", EXAMPLE_1_QUERY),
    ("Klein", EXAMPLE_2_QUERY),
    ("Brown", EXAMPLE_3_QUERY),
    ("Klein", EXAMPLE_1_QUERY),
)
PAPER_OPS = 1200


class Paper(Workload):
    name = "paper"

    def build(self, seed: int) -> Stack:
        database = build_paper_database()
        catalog = build_paper_catalog(database)
        engine = AuthorizationEngine(database, catalog, DEFAULT_CONFIG,
                                     audit=AuditLog(AUDIT_CAPACITY))
        return Stack(database, catalog, engine)

    def warm(self, stack: Stack, seed: int) -> None:
        assert stack.engine is not None
        for user, text in PAPER_REQUESTS:
            stack.engine.authorize(user, text)

    def script(self, seed: int) -> List[Op]:
        rng = random.Random(seed)
        catalog = build_paper_catalog(build_paper_database())
        counts = stratified(zipf_weights(len(PAPER_REQUESTS), 1.0),
                            PAPER_OPS)
        ops = [
            Op("query", user, text,
               grants=frozenset(catalog.views_of(user)))
            for (user, text), count in zip(PAPER_REQUESTS, counts,
                                           strict=True)
            for _ in range(count)
        ]
        rng.shuffle(ops)
        return ops

    def pass_engine(self, stack: Stack) -> AuthorizationEngine:
        assert stack.engine is not None
        return stack.engine


# ----------------------------------------------------------------------
# churn: generated join-heavy stack, grant toggles beside reads
# ----------------------------------------------------------------------

#: Fixed stack shape (within 4 relations of 24-48 rows, 12-16 views
#: of up to 3 relations, 32 users) and the seed of its generator.
CHURN_SPEC = WorkloadSpec(relations=4, rows_per_relation=36, views=14,
                          users=32, max_view_relations=3, seed=0)
CHURN_STATEMENTS = 24
#: Ops per pass; every ``CHURN_TOGGLE_EVERY``-th is a grant toggle.
CHURN_OPS = 500
CHURN_TOGGLE_EVERY = 5
CHURN_USER_SKEW = 0.8
CHURN_STATEMENT_SKEW = 1.1


class Churn(Workload):
    """The passes share one engine.  The second half of a pass's
    toggles repeats the first half's, so every pass ends with the grants
    it started with; set-up replays the script once, after which every
    pass starts from the same grants and the same warm cache."""

    name = "churn"

    def build(self, seed: int) -> Stack:
        generator = WorkloadGenerator(CHURN_SPEC.seed)
        workload = generator.workload(CHURN_SPEC)
        texts = tuple(
            str(generator.query(CHURN_SPEC, workload.database.schema))
            for _ in range(CHURN_STATEMENTS)
        )
        engine = AuthorizationEngine(workload.database, workload.catalog,
                                     DEFAULT_CONFIG)
        return Stack(workload.database, workload.catalog, engine,
                     texts=texts, users=workload.users)

    def warm(self, stack: Stack, seed: int) -> None:
        engine = stack.engine
        assert engine is not None
        for op in self.script(seed):
            if op.kind == "permit":
                engine.permit(op.view, op.user)
            elif op.kind == "revoke":
                engine.revoke(op.view, op.user)
            else:
                engine.authorize(op.user, op.text)

    def script(self, seed: int) -> List[Op]:
        stack = self.build(seed)
        texts, users = stack.texts, stack.users
        views = sorted(stack.catalog.view_names())
        rng = random.Random(seed)

        toggles = CHURN_OPS // CHURN_TOGGLE_EVERY
        queries = CHURN_OPS - toggles
        user_w = zipf_weights(len(users), CHURN_USER_SKEW)
        text_w = zipf_weights(len(texts), CHURN_STATEMENT_SKEW)
        pairs = [(u, t) for u in range(len(users))
                 for t in range(len(texts))]
        counts = stratified([user_w[u] * text_w[t] for u, t in pairs],
                            queries)
        draws = [pair for pair, count in zip(pairs, counts, strict=True)
                 for _ in range(count)]
        rng.shuffle(draws)
        flips = [(users[i % len(users)], rng.choice(views))
                 for i in range(toggles // 2)]
        flips += flips

        granted = {user: frozenset(stack.catalog.views_of(user))
                   for user in users}
        ops: List[Op] = []
        pending, flipping = iter(draws), iter(flips)
        for step in range(CHURN_OPS):
            if (step + 1) % CHURN_TOGGLE_EVERY == 0:
                user, view = next(flipping)
                if view in granted[user]:
                    granted[user] = granted[user] - {view}
                    ops.append(Op("revoke", user, view=view))
                else:
                    granted[user] = granted[user] | {view}
                    ops.append(Op("permit", user, view=view))
            else:
                u, t = next(pending)
                user = users[u]
                ops.append(Op("query", user, texts[t],
                              grants=granted[user]))
        return ops

    def pass_engine(self, stack: Stack) -> AuthorizationEngine:
        assert stack.engine is not None
        return stack.engine


# ----------------------------------------------------------------------
# scan: 2x10^5-row FACT joined to DIM on sqlite, half the requests
# streamed
# ----------------------------------------------------------------------

SCAN_FACT_ROWS = 100_000
SCAN_DIM_ROWS = 1_000
SCAN_VIEWS = (
    "view LOWV (FACT.K, FACT.D, FACT.V) where FACT.V < 3000",
    "view C1 (FACT.K, FACT.V, FACT.C) where FACT.C = c1",
    "view EAST (FACT.K, FACT.V, DIM.D, DIM.R) "
    "where FACT.D = DIM.D and DIM.R = r0",
)
SCAN_GRANTS = (("ana", "LOWV"), ("ana", "C1"),
               ("bo", "EAST"), ("bo", "C1"))
SCAN_STATEMENTS = (
    "retrieve (FACT.K, FACT.V, FACT.C) where FACT.V < 1500",
    "retrieve (FACT.K, FACT.D, FACT.V) where FACT.C = c1",
    "retrieve (FACT.K, FACT.V, DIM.R) where FACT.D = DIM.D "
    "and DIM.R = r0 and FACT.V >= 5000",
    "retrieve (FACT.K, FACT.V) where FACT.V >= 2000 and FACT.V < 4000",
)
SCAN_USERS = ("ana", "bo")
#: Requests per pass for each statement (per user and delivery mode).
#: The last statement, the second most costly of the four, is issued
#: twice, so the median latency falls inside its cluster instead of on
#: the boundary between two statements' clusters.
SCAN_WEIGHTS = (1, 1, 1, 2)


def scan_database(seed: int) -> Database:
    """FACT (unique key, 10^3 dimension keys, 10^4 values, 8 classes)
    and DIM (4 regions); values drawn from ``seed``."""
    rng = random.Random(seed)
    fact = make_schema(
        "FACT",
        [("K", INTEGER), ("D", INTEGER), ("V", INTEGER), ("C", STRING)],
        key=["K"],
    )
    dim = make_schema(
        "DIM", [("D", INTEGER), ("R", STRING), ("W", INTEGER)], key=["D"],
    )
    classes = [f"c{i}" for i in range(8)]
    regions = [f"r{i}" for i in range(4)]
    fact_rows = [
        (k, rng.randrange(SCAN_DIM_ROWS), rng.randrange(10_000),
         rng.choice(classes))
        for k in range(SCAN_FACT_ROWS)
    ]
    dim_rows = [(d, rng.choice(regions), rng.randrange(100))
                for d in range(SCAN_DIM_ROWS)]
    return build_database([fact, dim],
                          {"FACT": fact_rows, "DIM": dim_rows})


def scan_catalog(database: Database) -> PermissionCatalog:
    catalog = PermissionCatalog(database.schema)
    for statement in SCAN_VIEWS:
        catalog.define_view(statement)
    for user, view in SCAN_GRANTS:
        catalog.permit(view, user)
    return catalog


class Scan(Workload):
    name = "scan"

    def build(self, seed: int) -> Stack:
        database = scan_database(seed)
        catalog = scan_catalog(database)
        engine = AuthorizationEngine(
            database, catalog, DEFAULT_CONFIG.but(backend="sqlite"),
            audit=AuditLog(AUDIT_CAPACITY),
        )
        return Stack(database, catalog, engine)

    def warm(self, stack: Stack, seed: int) -> None:
        # Derive (and compile) every mask once; the answers themselves
        # are evaluated fresh on every request anyway.
        assert stack.engine is not None
        for text in SCAN_STATEMENTS:
            for user in SCAN_USERS:
                stack.engine.derive(user, text)

    def script(self, seed: int) -> List[Op]:
        rng = random.Random(seed)
        pairs = [(user, text)
                 for text, weight in zip(SCAN_STATEMENTS, SCAN_WEIGHTS,
                                         strict=True)
                 for user in SCAN_USERS for _ in range(weight)]
        direct, streamed = list(pairs), list(pairs)
        rng.shuffle(direct)
        rng.shuffle(streamed)
        ops: List[Op] = []
        for (u1, t1), (u2, t2) in zip(direct, streamed, strict=True):
            ops.append(Op("query", u1, t1))
            ops.append(Op("stream", u2, t2))
        return ops

    def pass_engine(self, stack: Stack) -> AuthorizationEngine:
        assert stack.engine is not None
        return stack.engine

    def reference(self, seed: int, ops: Sequence[Op],
                  config: EngineConfig) -> Dict[Tuple, Tuple[Tuple, ...]]:
        # Grants never change here, so one reference answer per
        # (user, statement) serves both delivery modes.
        database = scan_database(seed)
        engine = AuthorizationEngine(database, scan_catalog(database),
                                     config)
        by_request: Dict[Tuple[str, str], Tuple[Tuple, ...]] = {}
        answers: Dict[Tuple, Tuple[Tuple, ...]] = {}
        for op in ops:
            request = (op.user, op.text)
            if request not in by_request:
                by_request[request] = engine.authorize(
                    op.user, op.text).delivered
            answers[op.key] = by_request[request]
        return answers


# ----------------------------------------------------------------------
# serving: open-loop Poisson arrivals into an AuthorizationServer
# ----------------------------------------------------------------------

#: Fixed read-only stack whose working set (16 users x 16 statements)
#: fits the tenant's 1 024-entry derivation cache.
SERVING_SPEC = WorkloadSpec(relations=3, rows_per_relation=16, views=8,
                            users=16, max_view_relations=2, seed=0)
SERVING_STATEMENTS = 16
SERVING_TENANT = "bench"
#: Requests per pass of the closed-loop script.
SERVING_CLOSED_OPS = 1000


class ServerClient:
    """One closed-loop client of the server: submit a request, wait for
    its answer, then send the next.  Quacks like the engine for the
    closed-loop driver."""

    def __init__(self, server: AuthorizationServer) -> None:
        self.server = server
        self.engine = server.tenants.get(SERVING_TENANT).engine

    def authorize(self, user: str, text: str) -> object:
        return self.server.authorize(SERVING_TENANT, user, text)

    def stats(self) -> object:
        return self.engine.stats()


class Serving(Workload):
    """Like every workload, serving runs its process on one CPU.  On
    a virtual machine every hand-off between the client thread and a
    worker on another CPU waits for a cross-CPU wake-up, whose cost
    (0.1-1 ms) varies with the host's load and swamped the server's
    own costs in calibration runs."""

    name = "serving"
    #: Besides the reference engine, the ``repro.workloads.traffic``
    #: parity oracle: the default engine replaying the requests
    #: serially, which a server answer must match under any
    #: interleaving.
    oracles = (
        ("reference engine", REFERENCE_CONFIG),
        ("serial replay", DEFAULT_CONFIG),
    )

    def build(self, seed: int) -> Stack:
        generator = WorkloadGenerator(SERVING_SPEC.seed)
        workload = generator.workload(SERVING_SPEC)
        texts = tuple(
            str(generator.query(SERVING_SPEC, workload.database.schema))
            for _ in range(SERVING_STATEMENTS)
        )
        return Stack(workload.database, workload.catalog,
                     texts=texts, users=workload.users)

    def warm(self, stack: Stack, seed: int) -> None:
        # Starting the server (its worker threads) is part of set-up.
        server = AuthorizationServer(ServerConfig(workers=server_workers()))
        server.add_tenant(SERVING_TENANT, stack.database, stack.catalog)
        stack.server = server
        for user in stack.users:
            for text in stack.texts:
                server.authorize(SERVING_TENANT, user, text)

    def script(self, seed: int) -> List[Op]:
        """The closed-loop script: uniformly drawn requests."""
        stack = self.build(seed)
        rng = random.Random(seed)
        return [self._request(stack, rng)
                for _ in range(SERVING_CLOSED_OPS)]

    @staticmethod
    def _request(stack: Stack, rng: random.Random) -> Op:
        user = rng.choice(stack.users)
        return Op("query", user, rng.choice(stack.texts),
                  grants=frozenset(stack.catalog.views_of(user)))

    def pass_engine(self, stack: Stack) -> "ServerClient":
        assert stack.server is not None
        return ServerClient(stack.server)

    def arrivals(self, seed: int, rate: float, seconds: float
                 ) -> List[Tuple[float, Op]]:
        """``rate * seconds`` Poisson arrivals (due offsets in seconds,
        uniform order statistics: a Poisson process conditioned on its
        count, so every seed offers the same load) with uniformly
        drawn requests."""
        stack = self.build(seed)
        rng = random.Random(f"{seed}:{rate}")
        count = round(rate * seconds)
        offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        return [(due, self._request(stack, rng)) for due in offsets]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Paper(), Churn(), Scan(), Serving())
}
