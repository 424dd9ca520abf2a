"""The mask-derivation cache.

Section 5's cost model says authorization is dominated by running the
query plan over the meta-relations, and recommends storing derived
artifacts "with the original view definitions, until these definitions
are modified".  :class:`DerivationCache` extends that advice from
self-join closures to whole :class:`~repro.metaalgebra.plan.MaskDerivation`
results: an LRU map keyed by ``(user, canonical plan key)`` whose
entries carry the catalog *token* they were derived under.

**Transparency invariant.** A cached mask may be served only while the
catalog state it was derived from is current *for that user*.  Tokens
come from :meth:`repro.meta.catalog.PermissionCatalog.cache_token`:
``(definitions_version, grants_version(user))``.  Any ``view`` /
``drop`` bumps the definitions version (global invalidation); a
``permit`` / ``revoke`` bumps only the affected user's grants version,
so one user's mutation never flushes another's entries.  A stale entry
is discarded on lookup and counted as an invalidation — a cache that
survives a revoke would be a security hole, not a performance bug
(cf. Guarnieri et al., "Strong and Provably Secure Database Access
Control").  The differential and property suites in
``tests/test_derivation_cache.py`` and
``tests/property/test_cache_invalidation.py`` enforce the invariant.

**Thread safety.**  Every public method takes the cache's internal
lock, so lookups, stores, stats increments and LRU eviction are atomic
with respect to each other — the serving layer
(:mod:`repro.serving`) gives each tenant one cache shared by all of
its worker threads.  One lock is enough: every critical section is a
few dict operations, and under the GIL two of them could not run at
the same time anyway.  The invariant survives concurrent mutation
because tokens are captured *before* a derivation starts: a revoke
that lands mid-derivation bumps the live token, so the entry stored
afterwards (under the stale token) can never be served.
``tests/property/test_concurrent_cache.py`` exercises exactly these
interleavings.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.metaalgebra.canonical import PlanKey
from repro.metaalgebra.plan import MaskDerivation
from repro.testing.faults import maybe_corrupt, maybe_fault

#: Catalog state a cache entry was derived under:
#: ``(definitions_version, grants_version(user))``.
CacheToken = Tuple[int, int]


@dataclass
class CacheStats:
    """Running counters of one cache's behaviour.

    Attributes:
        hits: lookups served from a live entry.
        misses: lookups that found no entry (stale lookups count as
            both an invalidation and a miss).
        invalidations: entries discarded because their catalog token
            went stale.
        evictions: live entries dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (1.0 when nothing was looked up)."""
        if self.lookups == 0:
            return 1.0
        return self.hits / self.lookups

    def render(self) -> str:
        return (
            f"derivation cache: {self.hits} hits, {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), "
            f"{self.invalidations} invalidations, "
            f"{self.evictions} evictions"
        )

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class _Entry:
    token: CacheToken
    derivation: MaskDerivation
    #: Compiled mask-application kernel for the derivation's mask
    #: (``repro.core.compiled_mask``), attached lazily by the engine on
    #: first delivery.  It lives and dies with the entry: the same
    #: token guards it, so a grant or definition change that would
    #: invalidate the derivation invalidates the compiled matcher too.
    compiled: Optional[object] = None


class DerivationCache:
    """LRU cache of mask derivations with version invalidation.

    Capacity 0 (or negative) disables the cache entirely: lookups
    return ``None`` without touching the statistics, stores are
    dropped.

    All public methods are atomic under one internal lock: statistics
    increments, the stale-entry discard inside :meth:`get`, and the
    store-plus-eviction inside :meth:`put` each happen as a unit, so
    the cache may be shared between threads (the serving layer does).
    :attr:`stats` is a snapshot copied under the same lock, so a
    caller can subtract a before copy from an after copy.
    Derivations themselves are computed outside the cache and never
    mutated after a store, so served references are safe to read
    without the lock.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, PlanKey], _Entry]" = \
            OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters (never the live ones)."""
        with self._lock:
            return replace(self._stats)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------

    def get(self, user: str, plan_key: PlanKey,
            token: CacheToken) -> Optional[MaskDerivation]:
        """The cached derivation, or ``None`` on miss/stale entry."""
        if not self.enabled:
            return None
        maybe_fault("cache.get")
        key = (user, plan_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return None
            if entry.token != token:
                del self._entries[key]
                self._stats.invalidations += 1
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
        # The engine revalidates what comes back (see
        # AuthorizationEngine._valid_cached): a corrupted entry is
        # treated as a miss, never served.
        return maybe_corrupt("cache.entry", entry.derivation)

    def put(self, user: str, plan_key: PlanKey, token: CacheToken,
            derivation: MaskDerivation) -> None:
        """Store ``derivation``, evicting least-recently-used entries."""
        if not self.enabled:
            return
        maybe_fault("cache.put")
        key = (user, plan_key)
        with self._lock:
            self._entries[key] = _Entry(token, derivation)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    # ------------------------------------------------------------------
    # compiled mask kernels (stored alongside the derivation)
    # ------------------------------------------------------------------

    def get_compiled(self, user: str, plan_key: PlanKey,
                     token: CacheToken) -> Optional[object]:
        """The compiled mask attached to a live entry, else ``None``.

        Deliberately side-effect free: no statistics, no LRU bump, no
        stale-entry eviction — the derivation lookup that precedes it
        already did all three.  The engine revalidates the type of what
        comes back before using it.
        """
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get((user, plan_key))
            if entry is None or entry.token != token:
                return None
            return entry.compiled

    def put_compiled(self, user: str, plan_key: PlanKey,
                     token: CacheToken, compiled: object) -> None:
        """Attach a compiled mask to the matching live entry.

        A no-op when the entry is missing or its token went stale — a
        compiled mask must never outlive the derivation it was built
        from.
        """
        if not self.enabled:
            return
        key = (user, plan_key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.token != token:
                return
            self._entries[key] = replace(entry, compiled=compiled)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def invalidate_user(self, user: str) -> None:
        """Eagerly drop every entry of ``user`` (token comparison makes
        this optional; provided for explicit flushes)."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == user]
            for key in stale:
                del self._entries[key]
            self._stats.invalidations += len(stale)

    def clear(self) -> None:
        """Drop every entry (counters survive)."""
        with self._lock:
            self._stats.invalidations += len(self._entries)
            self._entries.clear()

    def users(self) -> Tuple[str, ...]:
        """Distinct users with live entries (diagnostics)."""
        with self._lock:
            seen: Dict[str, None] = {}
            for user, _ in self._entries:
                seen.setdefault(user)
            return tuple(seen)
