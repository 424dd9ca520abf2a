"""Property tests: the derivation cache under concurrent use.

The serving layer shares one :class:`DerivationCache` per tenant
between all worker threads.  Thread hammers check what that sharing
must preserve: a lookup never returns an entry stored under a
different token (the transparency invariant that makes revocation
safe), statistics account for every lookup with no lost increments,
and user invalidation never touches a bystander's entries.  A
Hypothesis test checks that LRU eviction keeps occupancy within the
configured capacity.

Payloads are plain tagged strings: the cache stores and serves
derivations opaquely (the engine revalidates types on the way out), so
the properties here are purely about bookkeeping under interleaving.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cache import DerivationCache

pytestmark = pytest.mark.slow

MAX_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES", "30"))

SLOW = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

USERS = ["ann", "bob", "cay"]
KEYS = [f"plan{i}" for i in range(6)]


class TestConcurrentHammer:
    def test_lookups_never_cross_token_generations(self):
        """The transparency invariant under real interleavings: a get
        with token T only ever returns a value stored under exactly T
        — so a revoked user's old derivations are unservable the
        instant the catalog bumps their token, no matter how many
        threads are racing the bump."""
        cache = DerivationCache(256)
        current = {"version": 0}
        violations = []
        stop = threading.Event()

        def hammer(user):
            while not stop.is_set():
                version = current["version"]
                token = (0, version)
                for key in KEYS:
                    cache.put(user, key, token, f"{user}@{version}")
                probe_version = current["version"]
                probe = (0, probe_version)
                for key in KEYS:
                    value = cache.get(user, key, probe)
                    if value is not None and \
                            value != f"{user}@{probe_version}":
                        violations.append((user, value, probe))

        def revoker():
            for _ in range(200):
                current["version"] += 1

        threads = [
            threading.Thread(target=hammer, args=(user,), daemon=True)
            for user in USERS for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        bumper = threading.Thread(target=revoker, daemon=True)
        bumper.start()
        bumper.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert violations == []

    def test_statistics_lose_no_increments(self):
        """hits + misses must equal the exact number of lookups even
        when every counter is contended — a lost increment means the
        stats lock is broken."""
        cache = DerivationCache(256)
        token = (0, 0)
        lookups_per_thread = 500
        threads = 6

        def worker(index):
            user = USERS[index % len(USERS)]
            for i in range(lookups_per_thread):
                key = KEYS[i % len(KEYS)]
                if i % 3 == 0:
                    cache.put(user, key, token, f"{user}/{key}")
                cache.get(user, key, token)

        pool = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        stats = cache.stats
        assert stats.lookups == threads * lookups_per_thread
        assert stats.evictions == 0
        assert stats.invalidations == 0

    def test_invalidation_never_touches_bystanders(self):
        """Concurrent invalidate_user('ann') storms must leave bob's
        live entries exactly as stored."""
        cache = DerivationCache(256)
        token = (0, 0)
        stop = threading.Event()

        def ann_writer():
            while not stop.is_set():
                for key in KEYS:
                    cache.put("ann", key, token, f"ann/{key}")

        def invalidator():
            for _ in range(300):
                cache.invalidate_user("ann")

        for key in KEYS:
            cache.put("bob", key, token, f"bob/{key}")

        writer = threading.Thread(target=ann_writer, daemon=True)
        storm = threading.Thread(target=invalidator, daemon=True)
        writer.start()
        storm.start()
        storm.join()
        stop.set()
        writer.join()
        for key in KEYS:
            assert cache.get("bob", key, token) == f"bob/{key}"


class TestEvictionBound:
    @SLOW
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=120),
    )
    def test_occupancy_never_exceeds_the_rounded_capacity(
            self, capacity, puts):
        """LRU eviction bounds occupancy by exactly the configured
        capacity, and every put past it evicts one entry."""
        cache = DerivationCache(capacity)
        token = (0, 0)
        for i in range(puts):
            cache.put("ann", f"plan{i}", token, f"d{i}")
        assert len(cache) <= capacity
        assert len(cache) == min(puts, capacity)
        assert cache.stats.evictions == puts - len(cache)

    def test_disabled_cache_stores_nothing(self):
        cache = DerivationCache(0)
        assert not cache.enabled
        cache.put("ann", "plan0", (0, 0), "d")
        assert cache.get("ann", "plan0", (0, 0)) is None
        assert len(cache) == 0
        assert cache.stats.lookups == 0
