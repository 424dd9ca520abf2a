"""Concurrency differential suite for the serving layer.

The load-bearing assertion: traffic pushed through the concurrent
multi-tenant server is *byte-identical* to a serial replay of each
client's ops through a fresh single-threaded engine.  Around it:
tenant isolation, the revoke-vs-lookup barrier stress (no post-revoke
derivation is ever served), admission-control shedding (degraded
answers stay inside the full-fidelity mask), bounded overload, and
fault injection at the serving sites (one request fails closed, the
shared caches stay clean for everyone else).
"""

from __future__ import annotations

import threading

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.engine import AuthorizationEngine
from repro.core.mask import MASKED
from repro.errors import FaultInjected, ServingError, UnknownTenantError
from repro.metaalgebra.ladder import EMPTY_LEVEL
from repro.resilience.breaker import OPEN
from repro.serving import (
    AdmissionPolicy,
    AuthorizationServer,
    ServerConfig,
)
from repro.testing import faults
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.paperdb import EXAMPLE_1_QUERY, build_paper_engine
from repro.workloads.scenarios import hospital_scenario
from repro.workloads.traffic import (
    TrafficSpec,
    build_traffic,
    delivery_signature,
    drive_server,
    fresh_stack,
    replay_serial,
)


def observable(answer):
    return (
        answer.labels,
        answer.delivered,
        tuple(str(p) for p in answer.permits),
    )


def visible_cells(answer):
    return {
        (i, j, cell)
        for i, row in enumerate(answer.delivered)
        for j, cell in enumerate(row)
        if cell is not MASKED
    }


def small_workload(seed=5):
    generator = WorkloadGenerator(seed)
    spec = WorkloadSpec(seed=seed, relations=3, views=4, users=2,
                        rows_per_relation=8)
    workload = generator.workload(spec)
    queries = [
        generator.query(spec, workload.database.schema)
        for _ in range(4)
    ]
    return workload, queries


# ----------------------------------------------------------------------
# oracle parity
# ----------------------------------------------------------------------

class TestOracleParity:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_concurrent_equals_serial_replay(self, workers):
        spec = TrafficSpec(clients=6, ops_per_client=25, seed=21,
                           distinct_queries=8)
        script = build_traffic(spec)
        workload = fresh_stack(spec)
        with AuthorizationServer(ServerConfig(workers=workers)) \
                as server:
            server.add_tenant("acme", workload.database,
                              workload.catalog)
            concurrent = drive_server(script, server, "acme")
        serial = replay_serial(script)
        for client, (hot, cold) in enumerate(zip(concurrent, serial)):
            assert delivery_signature(hot) == \
                delivery_signature(cold), f"client {client} diverged"

    @pytest.mark.parametrize("workers", [2, 8])
    def test_parity_survives_grant_churn(self, workers):
        """Permit/revoke churn mid-traffic: still byte-identical."""
        spec = TrafficSpec(clients=5, ops_per_client=30, seed=33,
                           churn_every=4, distinct_queries=6)
        script = build_traffic(spec)
        assert any(
            op.kind != "query"
            for ops in script.clients for op in ops
        ), "spec produced no churn — the test would prove nothing"
        workload = fresh_stack(spec)
        with AuthorizationServer(ServerConfig(workers=workers)) \
                as server:
            server.add_tenant("acme", workload.database,
                              workload.catalog)
            concurrent = drive_server(script, server, "acme")
        serial = replay_serial(script)
        for client, (hot, cold) in enumerate(zip(concurrent, serial)):
            assert delivery_signature(hot) == \
                delivery_signature(cold), f"client {client} diverged"

    def test_traffic_scripts_are_deterministic(self):
        spec = TrafficSpec(clients=4, ops_per_client=20, seed=9,
                           churn_every=3)
        assert build_traffic(spec).clients == \
            build_traffic(spec).clients

    def test_batching_actually_happens(self):
        """The throughput story rests on batch formation; prove the
        server forms multi-request batches under a backed-up queue."""
        workload, queries = small_workload()
        server = AuthorizationServer(ServerConfig(workers=1))
        server.add_tenant("t", workload.database, workload.catalog)
        user = workload.users[0]
        futures = [
            server.submit("t", user, queries[i % len(queries)])
            for i in range(40)
        ]
        for future in futures:
            future.result()
        server.close()
        telemetry = server.telemetry()
        assert telemetry.served == 40
        assert telemetry.largest_batch > 1


# ----------------------------------------------------------------------
# tenant isolation
# ----------------------------------------------------------------------

class TestTenantIsolation:
    def test_grants_do_not_cross_tenants(self):
        """Same database, same users, different tenants: a grant in
        one tenant is invisible in the other."""
        workload, queries = small_workload()
        other = small_workload()[0]  # independent catalog, same spec
        user, query = workload.users[0], queries[0]
        with AuthorizationServer() as server:
            server.add_tenant("a", workload.database, workload.catalog)
            server.add_tenant("b", other.database, other.catalog)
            before_b = server.authorize("b", user, query)
            # Mutate tenant a only: revoke everything from the user.
            engine_a = server.tenants.get("a").engine
            for view in list(engine_a.catalog.views_of(user)):
                engine_a.revoke(view, user)
            after_a = server.authorize("a", user, query)
            after_b = server.authorize("b", user, query)
        assert visible_cells(after_a) == set()
        assert observable(after_b) == observable(before_b)

    def test_caches_are_per_tenant(self):
        workload, queries = small_workload()
        other = small_workload()[0]
        user, query = workload.users[0], queries[0]
        with AuthorizationServer() as server:
            server.add_tenant("a", workload.database, workload.catalog)
            server.add_tenant("b", other.database, other.catalog)
            server.authorize("a", user, query)
            telemetry = server.telemetry()
        assert telemetry.cache_stats["a"].lookups > 0
        assert telemetry.cache_stats["b"].lookups == 0

    def test_telemetry_cache_stats_are_snapshots(self):
        """A telemetry reading must not move with later traffic, for an
        adopted engine and for one the server built: subtracting a
        before reading from an after reading counts the traffic in
        between."""
        workload, queries = small_workload()
        with AuthorizationServer() as server:
            server.adopt_tenant("adopted", build_paper_engine())
            server.add_tenant("added", workload.database,
                              workload.catalog)
            requests = {
                "adopted": ("Brown", EXAMPLE_1_QUERY),
                "added": (workload.users[0], queries[0]),
            }
            before = server.telemetry()
            for tenant, (user, query) in requests.items():
                for _ in range(3):
                    server.authorize(tenant, user, query)
            after = server.telemetry()
        for tenant in requests:
            old, new = before.cache_stats[tenant], after.cache_stats[tenant]
            assert new is not old
            assert (old.hits, old.misses) == (0, 0)
            assert (new.hits - old.hits, new.misses - old.misses) == (2, 1)

    def test_unknown_tenant_is_refused_synchronously(self):
        with AuthorizationServer() as server:
            with pytest.raises(UnknownTenantError):
                server.submit("ghost", "user", "retrieve (R.A)")

    def test_duplicate_tenant_is_refused(self):
        workload, _ = small_workload()
        with AuthorizationServer() as server:
            server.add_tenant("a", workload.database, workload.catalog)
            with pytest.raises(ServingError):
                server.add_tenant("a", workload.database,
                                  workload.catalog)

    def test_submit_after_close_is_refused(self):
        workload, queries = small_workload()
        server = AuthorizationServer()
        server.add_tenant("a", workload.database, workload.catalog)
        server.close()
        with pytest.raises(ServingError):
            server.submit("a", workload.users[0], queries[0])


# ----------------------------------------------------------------------
# revoke-vs-lookup stress
# ----------------------------------------------------------------------

class TestRevokeVersusLookup:
    def test_no_post_revoke_derivation_is_served(self):
        """Hammer one hot (user, query) from many threads while the
        grant behind it is revoked.  Every answer must match one of
        the two legal states (pre- or post-revoke), and every answer
        issued after the revoke returns must match the post state —
        a cached pre-revoke mask surviving is a security hole."""
        scenario = hospital_scenario()
        engine = scenario.engine
        user = "nurse"
        query = "retrieve (PATIENT.NAME, PATIENT.WARD)"
        view = engine.catalog.views_of(user)[0]

        oracle = AuthorizationEngine(
            engine.database, engine.catalog,
            DEFAULT_CONFIG.but(derivation_cache_size=0),
        )
        pre = observable(oracle.authorize(user, query))

        server = AuthorizationServer(ServerConfig(workers=4))
        server.adopt_tenant("hospital", engine)
        server.authorize("hospital", user, query)  # warm the cache

        threads = 6
        barrier = threading.Barrier(threads + 1)
        revoked = threading.Event()
        in_flight = []
        post_revoke = []

        def hammer():
            barrier.wait()
            while not revoked.is_set():
                in_flight.append(
                    observable(server.authorize("hospital", user,
                                                query))
                )
            # Issued strictly after revoke() returned:
            post_revoke.append(
                observable(server.authorize("hospital", user, query))
            )

        workers = [threading.Thread(target=hammer, daemon=True)
                   for _ in range(threads)]
        for worker in workers:
            worker.start()
        barrier.wait()
        engine.revoke(view, user)
        revoked.set()
        for worker in workers:
            worker.join()
        server.close()

        post = observable(oracle.authorize(user, query))
        assert post != pre, "revoke did not change the answer — vacuous"
        for answer in in_flight:
            assert answer in (pre, post), \
                "answer matches neither legal grant state"
        for answer in post_revoke:
            assert answer == post, \
                "stale pre-revoke derivation served after revoke"


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------

def flood(server, tenant, user, queries, count):
    """Open-loop submits (no waiting), so backlog actually builds."""
    return [
        server.submit(tenant, user, queries[i % len(queries)])
        for i in range(count)
    ]


class TestAdmissionControl:
    def test_degraded_answers_stay_inside_the_full_mask(self):
        workload, queries = small_workload(seed=13)
        user = workload.users[0]
        oracle = AuthorizationEngine(workload.database,
                                     workload.catalog)
        full = {
            str(query): visible_cells(oracle.authorize(user, query))
            for query in queries
        }
        policy = AdmissionPolicy(shed_thresholds=(2, 4, 6, 8))
        # max_batch=2 keeps a backed-up queue *behind* each drained
        # batch, so the mid rungs actually fire (the floor excludes
        # the batch in hand).
        server = AuthorizationServer(
            ServerConfig(workers=1, max_batch=2, admission=policy)
        )
        server.add_tenant("t", workload.database, workload.catalog)
        futures = flood(server, "t", user, queries, 60)
        answers = [future.result() for future in futures]
        server.close()
        levels = {answer.degradation_level for answer in answers}
        assert levels - {0}, "flood never shed — the test is vacuous"
        for answer in answers:
            assert visible_cells(answer) <= full[str(answer.query)], (
                f"degraded answer (rung {answer.degradation_level}) "
                f"delivered cells outside the full-fidelity mask"
            )

    def test_backlog_is_bounded_by_the_hard_limit(self):
        workload, queries = small_workload(seed=17)
        policy = AdmissionPolicy(shed_thresholds=(1, 2, 3, 4))
        server = AuthorizationServer(
            ServerConfig(workers=1, admission=policy)
        )
        server.add_tenant("t", workload.database, workload.catalog)
        futures = flood(server, "t", workload.users[0], queries, 50)
        answers = [future.result() for future in futures]
        server.close()
        telemetry = server.telemetry()
        assert telemetry.admission.max_backlog <= policy.hard_limit
        assert telemetry.admission.hard_sheds > 0
        shed = [a for a in answers
                if a.degradation_level == EMPTY_LEVEL]
        assert shed, "hard limit never produced an EMPTY answer"
        for answer in shed:
            assert answer.delivered == ()
            assert answer.error is not None

    def test_recovery_after_overload(self):
        """Once the flood drains, fresh requests run full fidelity."""
        workload, queries = small_workload(seed=19)
        policy = AdmissionPolicy(shed_thresholds=(1, 2, 3, 4))
        server = AuthorizationServer(
            ServerConfig(workers=2, admission=policy)
        )
        server.add_tenant("t", workload.database, workload.catalog)
        user = workload.users[0]
        for future in flood(server, "t", user, queries, 30):
            future.result()
        calm = server.authorize("t", user, queries[0])
        server.close()
        assert calm.degradation_level == 0
        assert calm.error is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_thresholds=())
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_thresholds=(4, 2))
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_thresholds=(0, 1))
        with pytest.raises(ValueError):
            AdmissionPolicy(breaker_floor=5)


# ----------------------------------------------------------------------
# per-request deadlines and breaker-fed admission
# ----------------------------------------------------------------------

class TestRequestDeadlines:
    def test_expired_requests_degrade_instead_of_stalling(self):
        workload, queries = small_workload(seed=23)
        user = workload.users[0]
        # A 100ns budget expires before any worker can drain, so
        # every request takes the deadline path deterministically.
        server = AuthorizationServer(ServerConfig(
            workers=1, max_batch=4, cache_capacity=0,
            request_deadline_ms=1e-4,
        ))
        server.add_tenant("t", workload.database, workload.catalog)
        futures = flood(server, "t", user, queries, 20)
        answers = [future.result() for future in futures]
        server.close()
        telemetry = server.telemetry()
        assert telemetry.admission.deadline_sheds == len(answers)
        for answer in answers:
            # Default deadline floor is the EMPTY rung: answered
            # immediately, nothing delivered, fail-closed error set.
            assert answer.degradation_level == EMPTY_LEVEL
            assert answer.delivered == ()
            assert "deadline" in (answer.error or "")

    def test_mid_rung_deadline_floor_still_answers(self):
        workload, queries = small_workload(seed=23)
        user = workload.users[0]
        oracle = AuthorizationEngine(workload.database,
                                     workload.catalog)
        full = {
            str(query): visible_cells(oracle.authorize(user, query))
            for query in queries
        }
        server = AuthorizationServer(ServerConfig(
            workers=1, max_batch=4, cache_capacity=0,
            request_deadline_ms=1e-4, deadline_floor=1,
        ))
        server.add_tenant("t", workload.database, workload.catalog)
        futures = flood(server, "t", user, queries, 12)
        answers = [future.result() for future in futures]
        server.close()
        assert server.telemetry().admission.deadline_sheds \
            == len(answers)
        for answer in answers:
            assert answer.degradation_level >= 1
            # Deadline shedding narrows delivery, never widens it.
            assert visible_cells(answer) <= full[str(answer.query)]

    def test_deadline_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(request_deadline_ms=-1.0)
        with pytest.raises(ValueError):
            ServerConfig(deadline_floor=0)
        with pytest.raises(ValueError):
            ServerConfig(deadline_floor=5)


class TestBreakerAdmission:
    def test_open_breaker_raises_only_that_tenants_floor(self):
        workload, queries = small_workload(seed=29)
        user = workload.users[0]
        server = AuthorizationServer(ServerConfig(
            workers=1, cache_capacity=0,
            engine=DEFAULT_CONFIG.but(
                backend="sqlite",
                breaker_recovery_ms=3.6e6,  # stays open for the test
            ),
        ))
        server.add_tenant("a", workload.database, workload.catalog)
        server.add_tenant("b", workload.database, workload.catalog)
        breaker = server.tenants.get("a").engine.executor.breaker
        for _ in range(DEFAULT_CONFIG.breaker_failure_threshold):
            breaker.record_failure()
        assert breaker.state == OPEN

        degraded = server.authorize("a", user, queries[0])
        healthy = server.authorize("b", user, queries[0])
        snapshot = server.telemetry().admission
        # Tenant a runs on oracle failover under the breaker floor;
        # tenant b is untouched — breaker state is per tenant.
        assert degraded.degradation_level \
            == server.config.admission.breaker_floor
        assert degraded.error is None
        assert degraded.backend_used == "python"
        assert healthy.degradation_level == 0
        assert healthy.backend_used == "sqlite"
        assert ("a", server.config.admission.breaker_floor) \
            in snapshot.tenant_floors
        assert all(name != "b" for name, _ in snapshot.tenant_floors)

        # The floor lifts on the first drain after the breaker closes.
        breaker.record_success()
        recovered = server.authorize("a", user, queries[1])
        server.close()
        assert recovered.degradation_level == 0
        assert recovered.backend_used == "sqlite"
        assert server.telemetry().admission.tenant_floors == ()


# ----------------------------------------------------------------------
# fault injection at the serving sites
# ----------------------------------------------------------------------

class TestServingFaults:
    def test_batch_fault_fails_closed_for_that_batch_only(self):
        workload, queries = small_workload(seed=23)
        user, query = workload.users[0], queries[0]
        server = AuthorizationServer(ServerConfig(workers=1))
        server.add_tenant("t", workload.database, workload.catalog)
        clean = server.authorize("t", user, query)
        assert clean.error is None

        with faults.inject(
            {"serving.batch": faults.Fault("raise", times=1)}
        ) as plan:
            denied = server.authorize("t", user, query)
            after = server.authorize("t", user, query)
        server.close()
        assert plan.trips["serving.batch"] == 1
        assert denied.error is not None
        assert denied.delivered == ()
        assert denied.degradation_level == EMPTY_LEVEL
        # The failure denied one request; it did not poison the
        # shared cache or the engine for the next request.
        assert observable(after) == observable(clean)

    def test_batch_fault_does_not_leak_across_tenants(self):
        workload, queries = small_workload(seed=29)
        other = small_workload(seed=29)[0]
        user, query = workload.users[0], queries[0]
        server = AuthorizationServer(ServerConfig(workers=1))
        server.add_tenant("a", workload.database, workload.catalog)
        server.add_tenant("b", other.database, other.catalog)
        baseline = server.authorize("b", user, query)
        with faults.inject(
            {"serving.batch": faults.Fault("raise", times=1)}
        ):
            denied = server.authorize("a", user, query)
            fine = server.authorize("b", user, query)
        server.close()
        assert denied.error is not None
        assert observable(fine) == observable(baseline)

    def test_submit_fault_rejects_before_admission(self):
        workload, queries = small_workload(seed=31)
        server = AuthorizationServer()
        server.add_tenant("t", workload.database, workload.catalog)
        with faults.inject(
            {"serving.submit": faults.Fault("raise", times=1)}
        ):
            with pytest.raises(FaultInjected):
                server.submit("t", workload.users[0], queries[0])
        # The refused request consumed no admission slot.
        assert server.telemetry().admission.backlog == 0
        answer = server.authorize("t", workload.users[0], queries[0])
        server.close()
        assert answer.error is None


# ----------------------------------------------------------------------
# audit under concurrency
# ----------------------------------------------------------------------

class TestConcurrentAudit:
    def test_audit_trail_is_gapless_under_concurrency(self):
        spec = TrafficSpec(clients=6, ops_per_client=20, seed=41,
                           distinct_queries=5)
        script = build_traffic(spec)
        workload = fresh_stack(spec)
        with AuthorizationServer(ServerConfig(workers=8)) as server:
            server.add_tenant("t", workload.database, workload.catalog)
            drive_server(script, server, "t")
            audit = server.tenants.get("t").audit
            records = audit.records()
        assert len(records) == script.total_queries
        sequences = [record.sequence for record in records]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        assert sequences[0] == 1 and sequences[-1] == len(sequences)
