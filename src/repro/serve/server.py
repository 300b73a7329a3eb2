"""Event-driven serving loop: open-loop tenants against a shard fleet.

This is a discrete-event simulation layered on the same virtual clocks
the rest of the reproduction uses.  Tenants emit arrivals on their own
schedule (open loop — nothing waits for completions); each arrival is
rate-limit checked, routed by consistent hash, and either queued at its
shard or shed.  Shards are serial servers whose *service time* is the
full simulated cost of the cache operation — CPU charges, device
queueing, GC interference — so serving-level queueing delay composes
with NAND-level latency instead of replacing it.

Determinism: every event carries a (virtual time, insertion seq) key,
all randomness sits behind seeded RNGs, no wall clock anywhere.  The
same configs produce byte-identical reports.

Two interchangeable executions of the same simulation live here:

* the **fast path** (default) pre-generates each tenant's arrival
  timestamps and operations as arrays, replaces the binary heap with
  the run-list idiom of :class:`~repro.sim.sched.EventScheduler`, and
  inlines the QoS/routing bookkeeping — roughly an order of magnitude
  more simulated ops/sec;
* the **legacy path** (``fast_path=False``, or automatically whenever a
  shard's I/O tracer has subscribers) is the original one-event-per-
  arrival heap loop, kept as the executable reference the fast path is
  regression-tested against.

Both produce bit-identical reports; ``tests/test_engine_speed.py``
holds the equivalence tests.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.engine import HybridCache
from repro.errors import ConfigError
from repro.serve.cluster import CacheCluster, Shard
from repro.serve.replication import (
    HEALTH_DOWN,
    HEALTH_RESYNCING,
    HEALTH_SUSPECT,
    HEALTH_UP,
    PHASE_RECOVERED,
    PHASE_STEADY,
    PHASE_STORM,
    FailoverPlan,
    FleetStats,
    ShardKill,
)
from repro.serve.invalidation import InvalidationPlan, InvalidationStats
from repro.serve.tenant import Tenant, TenantConfig
from repro.sim.sched import EventScheduler
from repro.units import SEC
from repro.workloads.cachebench import KIND_DELETE, KIND_GET, KIND_NAMES, KIND_SET

_ARRIVAL = 0
_DONE = 1
# Replicated-loop-only event kinds (never pushed by the fast/legacy
# loops, so their event streams are untouched).
_KILL = 2
_RECOVER = 3
_PROBE = 4
# Scheduled namespace bump (legacy + replicated loops; never pushed
# unless an InvalidationPlan is armed).
_INVALIDATE = 5

# Queue item tags for the replicated loop (first tuple element).
_ITEM_FG = 0
_ITEM_REPL = 1
_ITEM_HINT = 2

# Hint-journal entry kind for a namespace bump owed to a DOWN shard
# (key = tenant id bytes, value = ASCII generation).  Outside the
# cachebench KIND_* range on purpose.
_KIND_NSBUMP = 3

_KIND_INT = {"get": KIND_GET, "set": KIND_SET, "delete": KIND_DELETE}


@dataclass(frozen=True)
class ServerConfig:
    """Fleet-level serving knobs."""

    # Bounded per-shard service queue: the load-shedding backstop.  An
    # arrival finding the queue full is rejected, so queue delay — and
    # therefore p99 — stays bounded while shed rate absorbs the overload.
    max_queue_depth: int = 64
    # Pre-generated array-driven event loop (see module docstring).
    # Runs only while tracing is off; traced runs take the legacy loop
    # so span/event sequences stay exactly as they always were.
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


@dataclass
class ServingReport:
    """Everything one serving run measured."""

    tenant_rows: List[Dict[str, object]]
    shard_rows: List[Dict[str, object]]
    sim_seconds: float
    offered: int
    completed: int
    shed: int
    # Fleet-level replication/failover summary; None unless the
    # replicated loop ran (replicas > 1 or a FailoverPlan was armed).
    fleet_row: Optional[Dict[str, object]] = field(default=None)
    # Invalidation-storm summary; None unless an InvalidationPlan ran.
    inval_row: Optional[Dict[str, object]] = field(default=None)

    @property
    def shed_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered


class Server:
    """Runs tenants' open-loop streams to completion over a cluster."""

    def __init__(
        self,
        cluster: CacheCluster,
        tenants: Sequence[TenantConfig],
        config: ServerConfig = ServerConfig(),
        failover: Optional[FailoverPlan] = None,
        invalidations: Optional[InvalidationPlan] = None,
    ) -> None:
        if not tenants:
            raise ConfigError("server needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"tenant names must be unique, got {names}")
        self.cluster = cluster
        self.config = config
        self.failover = failover
        self.invalidations = invalidations
        self.inval_stats: Optional[InvalidationStats] = None
        if invalidations is not None and invalidations:
            by_name = {t.name: t for t in tenants}
            for bump in invalidations.bumps:
                target = by_name.get(bump.tenant)
                if target is None:
                    raise ConfigError(
                        f"invalidation targets unknown tenant {bump.tenant!r}"
                    )
                if not target.versioned_keys:
                    raise ConfigError(
                        f"invalidation targets tenant {bump.tenant!r} "
                        "without versioned_keys"
                    )
            self.inval_stats = InvalidationStats()
        if failover is not None:
            for kill in failover.kills:
                if kill.shard >= cluster.num_shards:
                    raise ConfigError(
                        f"kill targets shard {kill.shard}, "
                        f"cluster has {cluster.num_shards}"
                    )
        if self._replication_armed() and cluster.routing.policy == "gc_aware":
            raise ConfigError(
                "the replicated serving loop requires ring-faithful "
                "(static) routing; gc_aware is not supported with a "
                "failover plan"
            )
        self.tenants = [Tenant(t) for t in tenants]
        # Diversion-journal reads (RoutingConfig.diversion_journal):
        # active only under gc_aware routing, where writes can divert.
        self._diversion_active = (
            cluster.routing.diversion_journal
            and cluster.routing.policy == "gc_aware"
        )
        # Per-shard pacer to feed tenant-observed e2e latency into
        # (AdaptivePacingConfig signal="e2e_p99"); resolved at run()
        # time so enable_adaptive_pacing() after construction counts.
        self._e2e_feed: List[Optional[object]] = []
        self._heap: List[Tuple[int, int, int, int]] = []
        self._seq = 0
        self._end_ns = 0
        self._last_arrival_ns = 0
        self._fleet: Optional[FleetStats] = None
        self._kills_fired = 0
        self._probe_armed = False
        # Oracle for the crash-consistency tests: every acknowledged,
        # replicated write's (time, value) history per key.
        self.write_ledger: Optional[
            Dict[bytes, List[Tuple[int, Optional[bytes]]]]
        ] = ({} if cluster.replication.track_writes else None)

    def _replication_armed(self) -> bool:
        return self.failover is not None or self.cluster.replication.replicas > 1

    # --- event plumbing -----------------------------------------------------

    def _push(self, time_ns: int, kind: int, index: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_ns, self._seq, kind, index))

    # --- main loop ----------------------------------------------------------

    def _resolve_e2e_feed(self) -> None:
        """Pick out, per shard, the reclaim pacer that wants the
        tenant-observed e2e latency signal (``signal="e2e_p99"``).
        Shards with no reclamation layer, no adaptive controller, or the
        device-side stall signal get ``None`` — zero per-completion cost
        for every pre-existing configuration."""
        self._e2e_feed = []
        for shard in self.cluster.shards:
            _, engine = shard.stack.reclaim_engine()
            pacer = engine.pacer if engine is not None else None
            if (
                pacer is not None
                and pacer.adaptive is not None
                and pacer.adaptive.signal == "e2e_p99"
            ):
                self._e2e_feed.append(pacer)
            else:
                self._e2e_feed.append(None)

    def run(self) -> ServingReport:
        self._resolve_e2e_feed()
        if self._replication_armed():
            return self._run_replicated()
        if self.inval_stats is not None:
            # Namespace bumps change a tenant's key prefix mid-run; the
            # fast path pre-generates fully-prefixed key bytes, so an
            # armed plan takes the legacy loop.
            return self._run_legacy()
        if self.config.fast_path and not any(
            shard.stack.cache.store.tracer.enabled
            for shard in self.cluster.shards
        ):
            return self._run_fast()
        return self._run_legacy()

    def _run_legacy(self) -> ServingReport:
        """Reference loop: one heap event per arrival, ops drawn lazily."""
        for index, tenant in enumerate(self.tenants):
            if tenant.budget > 0:
                self._push(tenant.arrivals.next_arrival_ns(0), _ARRIVAL, index)
        if self.inval_stats is not None:
            for bump_index, bump in enumerate(self.invalidations.bumps):
                self._push(bump.at_ns, _INVALIDATE, bump_index)
        while self._heap:
            time_ns, _seq, kind, index = heapq.heappop(self._heap)
            if kind == _ARRIVAL:
                self._on_arrival(time_ns, index)
            elif kind == _INVALIDATE:
                self._on_invalidate(time_ns, index)
            else:
                self._on_done(time_ns, self.cluster.shards[index])
        return self._report()

    def _run_fast(self) -> ServingReport:
        """Array-driven loop; bit-identical to :meth:`_run_legacy`.

        Every RNG draw the legacy loop makes per event is pre-drawn here
        in bulk per stream (streams are independent generators, so
        draining one early cannot perturb another), and the event heap
        becomes a descending run-list: with one pending arrival per
        tenant plus one completion per busy shard in flight, ``insort``
        into a handful of tuples beats heap sifting.  Event ``seq``
        numbers are assigned at the same points in the same order as the
        legacy loop, so ties dequeue identically.
        """
        tenants = self.tenants
        cluster = self.cluster
        shards = cluster.shards
        max_depth = self.config.max_queue_depth
        gc_aware = cluster.routing.policy == "gc_aware"
        diversion_active = self._diversion_active
        e2e_feed = self._e2e_feed
        route_from_home = cluster.route_from_home
        shard_for = cluster.shard_for

        # Per-tenant pre-generated streams: arrival times, op kinds, op
        # key indices, and fully-prefixed key bytes (memoized — Zipf
        # reuse means most arrivals hit the same few hundred keys).
        arrival_times: List[List[int]] = []
        op_kinds: List[List[int]] = []
        op_key_indices: List[List[int]] = []
        op_keys: List[List[bytes]] = []
        for tenant in tenants:
            budget = tenant.budget
            arrival_times.append(
                tenant.arrivals.pregenerate(budget) if budget > 0 else []
            )
            kinds, key_indices = tenant.driver.next_ops(budget)
            op_kinds.append(kinds)
            op_key_indices.append(key_indices)
            prefix = tenant.key_prefix
            key_bytes = tenant.driver.key_bytes
            key_cache: Dict[int, bytes] = {}
            keys: List[bytes] = []
            for key_index in key_indices:
                key = key_cache.get(key_index)
                if key is None:
                    key = prefix + key_bytes(key_index)
                    key_cache[key_index] = key
                keys.append(key)
            op_keys.append(keys)

        scheduler = EventScheduler()
        events = scheduler.events
        seq = 0
        for index, tenant in enumerate(tenants):
            if tenant.budget > 0:
                seq += 1
                events.append((-arrival_times[index][0], -seq, _ARRIVAL, index))
        events.sort()
        cursors = [0] * len(tenants)
        end_ns = 0
        last_arrival_ns = 0

        while events:
            neg_time, _neg_seq, ev_kind, index = events.pop()
            now_ns = -neg_time
            serve_shard = None
            if ev_kind == _ARRIVAL:
                tenant = tenants[index]
                last_arrival_ns = now_ns
                cursor = cursors[index]
                cursors[index] = cursor + 1
                tenant.issued = cursor + 1
                next_cursor = cursor + 1
                if next_cursor < tenant.budget:
                    seq += 1
                    insort(
                        events,
                        (-arrival_times[index][next_cursor], -seq, _ARRIVAL, index),
                    )
                slo = tenant.slo
                slo.offered += 1
                key = op_keys[index][cursor]
                kind = op_kinds[index][cursor]
                bucket = tenant.bucket
                if bucket is not None:
                    # Inlined TokenBucket.try_take (same float order).
                    if now_ns > bucket._last_ns:
                        refill = (
                            (now_ns - bucket._last_ns) / SEC * bucket.rate_per_sec
                        )
                        tokens = bucket._tokens + refill
                        burst = bucket.burst
                        bucket._tokens = burst if tokens > burst else tokens
                        bucket._last_ns = now_ns
                    if bucket._tokens >= 1.0:
                        bucket._tokens -= 1.0
                        bucket.accepted += 1
                    else:
                        bucket.rejected += 1
                        slo.shed_rate_limited += 1
                        continue
                if gc_aware and kind != KIND_GET:
                    shard, rerouted_from = route_from_home(key, shard_for(key))
                    if rerouted_from is not None:
                        slo.rerouted += 1
                else:
                    shard = shard_for(key)
                queue = shard.queue
                if len(queue) >= max_depth:
                    slo.shed_queue_full += 1
                    shard.shed_queue_full += 1
                    continue
                queue.append((now_ns, index, cursor))
                if not shard.busy:
                    serve_shard = shard
            else:
                shard = shards[index]
                shard.busy = False
                if shard.queue:
                    serve_shard = shard
            if serve_shard is not None:
                shard = serve_shard
                arrival_ns, tenant_index, cursor = shard.queue.popleft()
                tenant = tenants[tenant_index]
                shard.busy = True
                clock = shard.stack.clock
                local_ns = shard.epoch_ns + now_ns
                if local_ns > clock.now:
                    clock.now = local_ns
                start_ns = clock.now
                kind = op_kinds[tenant_index][cursor]
                if diversion_active and kind == KIND_GET:
                    hit = self._apply_get_with_diversion(
                        shard,
                        tenant,
                        op_key_indices[tenant_index][cursor],
                        op_keys[tenant_index][cursor],
                    )
                else:
                    hit = tenant.driver.apply_kind(
                        shard.stack.cache,
                        kind,
                        op_key_indices[tenant_index][cursor],
                        op_keys[tenant_index][cursor],
                    )
                shard.served += 1
                shard.busy_ns += clock.now - start_ns
                done_ns = clock.now - shard.epoch_ns
                slo = tenant.slo
                slo.completed += 1
                latency = done_ns - arrival_ns
                recorder = slo.latency
                recorder._samples.append(latency)
                recorder._sorted = None
                pacer = e2e_feed[shard.index]
                if pacer is not None:
                    pacer.external.record(latency)
                if latency <= slo.slo_latency_ns:
                    slo.within_slo += 1
                if kind == KIND_GET:
                    slo.gets += 1
                    if hit:
                        slo.get_hits += 1
                if done_ns > end_ns:
                    end_ns = done_ns
                seq += 1
                insort(events, (-done_ns, -seq, _DONE, shard.index))

        scheduler.seq = seq
        self._end_ns = end_ns
        self._last_arrival_ns = last_arrival_ns
        return self._report()

    def _on_arrival(self, now_ns: int, tenant_index: int) -> None:
        tenant = self.tenants[tenant_index]
        self._last_arrival_ns = now_ns
        op = tenant.next_op()
        if tenant.issued < tenant.budget:
            self._push(
                tenant.arrivals.next_arrival_ns(now_ns), _ARRIVAL, tenant_index
            )
        tenant.slo.record_offered()
        key = tenant.key_for(op)
        shard = self.cluster.shard_for(key)
        tracer = shard.stack.cache.store.tracer
        if tenant.bucket is not None and not tenant.bucket.try_take(now_ns):
            tenant.slo.record_shed("rate_limited")
            tracer.emit_event("serve.qos", "shed_rate_limit", offset=shard.index)
            return
        # Rate-limit-admitted requests may be steered around reclamation
        # pressure (writes only; reads always follow the ring).
        shard, rerouted_from = self.cluster.route_for(key, op.kind != "get")
        if rerouted_from is not None:
            tenant.slo.record_rerouted()
            tracer = shard.stack.cache.store.tracer
            tracer.emit_event(
                "serve.route",
                "reroute",
                offset=shard.index,
                zone=rerouted_from.index,
            )
        if len(shard.queue) >= self.config.max_queue_depth:
            tenant.slo.record_shed("queue_full")
            shard.shed_queue_full += 1
            tracer.emit_event("serve.qos", "shed_queue_full", offset=shard.index)
            return
        shard.queue.append((now_ns, tenant_index, op))
        if not shard.busy:
            self._start_service(now_ns, shard)

    def _start_service(self, now_ns: int, shard: Shard) -> None:
        arrival_ns, tenant_index, op = shard.queue.popleft()
        tenant = self.tenants[tenant_index]
        shard.busy = True
        # The shard's device clock catches up to the fleet's event time
        # (translated onto the shard's own epoch — stack construction cost
        # is not serving time): idle gaps between arrivals really are idle,
        # then the op runs at full simulated cost.
        shard.clock.advance_to(shard.to_local(now_ns))
        start_ns = shard.clock.now
        tracer = shard.stack.cache.store.tracer
        with tracer.span("serve", op.kind, offset=shard.index):
            if self._diversion_active and op.kind == "get":
                hit = self._apply_get_with_diversion(
                    shard,
                    tenant,
                    op.key_index,
                    tenant.key_prefix + tenant.driver.key_bytes(op.key_index),
                )
            else:
                hit = tenant.driver.apply_op(
                    shard.stack.cache, op, key_prefix=tenant.key_prefix
                )
        shard.served += 1
        shard.busy_ns += shard.clock.now - start_ns
        done_ns = shard.to_fleet(shard.clock.now)
        tenant.slo.record_completion(
            done_ns - arrival_ns, is_get=(op.kind == "get"), hit=hit
        )
        pacer = self._e2e_feed[shard.index]
        if pacer is not None:
            pacer.external.record(done_ns - arrival_ns)
        if self.inval_stats is not None and op.kind == "get":
            self.inval_stats.note_lookup(done_ns, hit, done_ns - arrival_ns)
        self._end_ns = max(self._end_ns, done_ns)
        self._push(done_ns, _DONE, shard.index)

    def _on_done(self, now_ns: int, shard: Shard) -> None:
        shard.busy = False
        if shard.queue:
            self._start_service(now_ns, shard)

    # --- diversion journal ---------------------------------------------------

    def _apply_get_with_diversion(
        self, home: Shard, tenant: Tenant, key_index: int, key: bytes
    ) -> bool:
        """A get that consults the diversion journal before declaring a
        miss: a home miss falls through to the journaled diverted shard,
        and a recovered value is read-repaired into the home shard (the
        entry expires either way).  Draw-for-draw identical to
        ``apply_kind`` when the journal has no entry for the key."""
        cache = home.stack.cache
        value = cache.get(key)
        if value is not None:
            return True
        repaired = self._consult_diversion(home, key)
        if repaired is not None:
            cache.set(key, repaired)  # read-repair into the home shard
            cache.store.tracer.emit_event(
                "serve.divert", "recover", offset=home.index
            )
            return True
        tenant.driver.fill_on_miss(cache, key_index, key)
        return False

    def _consult_diversion(self, home: Shard, key: bytes) -> Optional[bytes]:
        """Fetch a home-missed key from its journaled diverted shard.

        The entry is consumed: on a hit the caller read-repairs the
        value home (so the journal is no longer needed), on a miss the
        diverted copy was evicted and the entry is stale.
        """
        cluster = self.cluster
        diverted = cluster.diversions.pop(key, None)
        if diverted is None or diverted is home:
            return None
        value = diverted.stack.cache.get(key)
        if value is None:
            cluster.diversions_stale += 1
            return None
        cluster.diversions_recovered += 1
        return value

    # --- invalidation -------------------------------------------------------

    def _on_invalidate(self, now_ns: int, bump_index: int) -> None:
        """Fire one scheduled namespace bump across the fleet.

        The tenant's generation advances (subsequent requests carry the
        new prefix) and every shard's cache learns the new generation so
        old-generation reads are refused wherever the index still holds
        them.  A bump is control-plane metadata, not a data write: for
        shards that cannot take it now (declared DOWN, or dead with the
        failure not yet declared) it is journaled as a hint and replayed
        on recovery, so no shard ever resurrects a pre-bump generation.
        """
        bump = self.invalidations.bumps[bump_index]
        tenant = next(
            t for t in self.tenants if t.config.name == bump.tenant
        )
        generation = tenant.invalidate()
        self.inval_stats.note_bump(now_ns)
        replicated = self._fleet is not None
        for shard in self.cluster.shards:
            if replicated and (shard.health == HEALTH_DOWN or not shard.alive):
                shard.hint_journal.append(
                    _KIND_NSBUMP, tenant.namespace_id, b"%d" % generation
                )
                continue
            cache = shard.stack.cache
            cache.invalidate_namespace(tenant.namespace_id, generation)
            cache.store.tracer.emit_event(
                "serve.invalidate", "bump", offset=shard.index, zone=generation
            )

    # --- replicated loop ----------------------------------------------------

    def _run_replicated(self) -> ServingReport:
        """Failover-aware loop: R-way writes, fallback reads, hinted handoff.

        Derived from :meth:`_run_legacy` (one heap event per arrival, ops
        drawn lazily) plus three new event kinds: scripted shard kills,
        power-restore recoveries, and fixed-interval health probes.  The
        fast/legacy loops never enter here, so every pre-existing golden
        stays bit-identical; with R=1 and an empty plan this loop itself
        reproduces the legacy report (see tests/test_replication.py).
        """
        cluster = self.cluster
        plan = self.failover if self.failover is not None else FailoverPlan()
        for shard in cluster.shards:
            shard.replication_active = True
        first_kill = plan.first_kill_ns()
        # Steady-phase hit accounting skips the first half of the lead-in
        # so cold-start misses don't flatter the recovery comparison.
        self._fleet = FleetStats(warmup_ns=(first_kill // 2) if first_kill else 0)
        for index, tenant in enumerate(self.tenants):
            if tenant.budget > 0:
                self._push(tenant.arrivals.next_arrival_ns(0), _ARRIVAL, index)
        for kill_index, kill in enumerate(plan.kills):
            self._push(kill.at_ns, _KILL, kill_index)
        if self.inval_stats is not None:
            for bump_index, bump in enumerate(self.invalidations.bumps):
                self._push(bump.at_ns, _INVALIDATE, bump_index)
        shards = cluster.shards
        while self._heap:
            time_ns, _seq, kind, index = heapq.heappop(self._heap)
            if kind == _ARRIVAL:
                self._on_arrival_repl(time_ns, index)
            elif kind == _DONE:
                self._on_done_repl(time_ns, shards[index])
            elif kind == _KILL:
                self._on_kill(time_ns, plan.kills[index])
            elif kind == _RECOVER:
                self._on_recover(time_ns, shards[index])
            elif kind == _INVALIDATE:
                self._on_invalidate(time_ns, index)
            else:
                self._on_probe(time_ns)
        return self._report()

    def _phase(self) -> str:
        fleet = self._fleet
        if fleet.first_kill_ns is None:
            return PHASE_STEADY
        for shard in self.cluster.shards:
            if not shard.alive or shard.health != HEALTH_UP:
                return PHASE_STORM
        return PHASE_RECOVERED

    def _set_health(self, shard: Shard, state: str, now_ns: int) -> None:
        if shard.health == state:
            return
        shard.health = state
        shard.health_log.append((now_ns, state))
        shard.stack.cache.store.tracer.emit_event(
            "serve.health", state, offset=shard.index
        )
        if state == HEALTH_UP and self._fleet.first_kill_ns is not None:
            if all(
                s.alive and s.health == HEALTH_UP for s in self.cluster.shards
            ):
                self._fleet.note_all_up(now_ns)

    def _register_failure(self, shard: Shard, now_ns: int) -> None:
        repl = self.cluster.replication
        shard.failures += 1
        if (
            shard.health in (HEALTH_UP, HEALTH_RESYNCING)
            and shard.failures >= repl.suspect_after_failures
        ):
            self._set_health(shard, HEALTH_SUSPECT, now_ns)
        if (
            shard.health == HEALTH_SUSPECT
            and shard.failures >= repl.down_after_failures
        ):
            self._set_health(shard, HEALTH_DOWN, now_ns)

    def _fail_request(self, tenant: Tenant, shard: Shard, reason: str) -> None:
        tenant.slo.record_failed()
        self._fleet.note_failed(self._phase())
        shard.stack.cache.store.tracer.emit_event(
            "serve.qos", "failed_" + reason, offset=shard.index
        )

    def _pick_target(
        self, replicas: Tuple[Shard, ...], is_get: bool
    ) -> Optional[Shard]:
        """Declared-serviceable shard for a request, by *health* not truth.

        Reads stay on the primary while it is not declared DOWN, then
        fall back along the successor list; a RESYNCING shard is a last
        resort for reads (its hint replay may not have caught up).
        Writes prefer the primary (RESYNCING included — replayed hints
        queue FIFO ahead of new writes, so ordering holds) and fall back
        to the first successor not declared DOWN.
        """
        primary = replicas[0]
        if not is_get:
            if primary.health != HEALTH_DOWN:
                return primary
            for shard in replicas[1:]:
                if shard.health in (HEALTH_UP, HEALTH_SUSPECT):
                    return shard
            return None
        for shard in replicas:
            if shard.health in (HEALTH_UP, HEALTH_SUSPECT):
                return shard
        for shard in replicas:
            if shard.health == HEALTH_RESYNCING:
                return shard
        return None

    def _on_arrival_repl(self, now_ns: int, tenant_index: int) -> None:
        tenant = self.tenants[tenant_index]
        self._last_arrival_ns = now_ns
        op = tenant.next_op()
        if tenant.issued < tenant.budget:
            self._push(
                tenant.arrivals.next_arrival_ns(now_ns), _ARRIVAL, tenant_index
            )
        slo = tenant.slo
        slo.record_offered()
        key = tenant.key_for(op)
        replicas = self.cluster.replica_set(key)
        primary = replicas[0]
        tracer = primary.stack.cache.store.tracer
        if tenant.bucket is not None and not tenant.bucket.try_take(now_ns):
            slo.record_shed("rate_limited")
            tracer.emit_event("serve.qos", "shed_rate_limit", offset=primary.index)
            return
        kind_int = _KIND_INT[op.kind]
        target = self._pick_target(replicas, kind_int == KIND_GET)
        if target is None:
            self._fail_request(tenant, primary, "no_replica")
            return
        if not target.alive:
            # Routed to a shard whose death is not yet declared: the
            # request times out.  This window *is* detection latency.
            self._register_failure(target, now_ns)
            self._fail_request(tenant, target, "timeout")
            return
        if len(target.queue) >= self.config.max_queue_depth:
            slo.record_shed("queue_full")
            target.shed_queue_full += 1
            target.stack.cache.store.tracer.emit_event(
                "serve.qos", "shed_queue_full", offset=target.index
            )
            return
        target.queue.append(
            (_ITEM_FG, now_ns, tenant_index, kind_int, op.key_index, key)
        )
        if not target.busy:
            self._serve_next(now_ns, target)

    def _serve_next(self, now_ns: int, shard: Shard) -> None:
        """Put the shard's next queued item (foreground request, replica
        write, or hint replay) into service at full simulated cost."""
        item = shard.queue.popleft()
        shard.busy = True
        clock = shard.clock
        clock.advance_to(shard.to_local(now_ns))
        start_ns = clock.now
        cache = shard.stack.cache
        tracer = cache.store.tracer
        item_kind = item[0]
        if item_kind == _ITEM_FG:
            _, arrival_ns, tenant_index, kind_int, key_index, key = item
            tenant = self.tenants[tenant_index]
            with tracer.span("serve", KIND_NAMES[kind_int], offset=shard.index):
                hit, value = tenant.driver.apply_kind_value(
                    cache, kind_int, key_index, key
                )
            shard.served += 1
            done_ns = shard.to_fleet(clock.now)
            is_get = kind_int == KIND_GET
            tenant.slo.record_completion(
                done_ns - arrival_ns, is_get=is_get, hit=hit
            )
            pacer = self._e2e_feed[shard.index]
            if pacer is not None:
                pacer.external.record(done_ns - arrival_ns)
            self._fleet.note_completion(
                self._phase(), done_ns - arrival_ns, is_get, hit, done_ns
            )
            if self.inval_stats is not None and is_get:
                self.inval_stats.note_lookup(done_ns, hit, done_ns - arrival_ns)
            if is_get and shard is not self.cluster.replica_set(key)[0]:
                shard.fallback_served += 1
                self._fleet.fallback_reads += 1
            # Replication fan-out happens when the completion event
            # fires (at done_ns), so it cannot jump ahead of arrivals
            # landing between now and then.
            shard._done_action = ("fg", kind_int, key, hit, value)
        else:
            _, _arrival_ns, kind_int, key, value = item
            nbytes = len(value) if value is not None else 0
            op_name = "replicate" if item_kind == _ITEM_REPL else "handoff"
            with tracer.span("serve", op_name, offset=shard.index, length=nbytes):
                if kind_int == _KIND_NSBUMP:
                    # Replayed namespace bump: key is the tenant id,
                    # value the ASCII generation journaled at bump time.
                    cache.invalidate_namespace(key, int(value))
                    tracer.emit_event(
                        "serve.invalidate", "bump", offset=shard.index,
                        zone=int(value),
                    )
                elif kind_int == KIND_DELETE:
                    cache.delete(key)
                else:
                    cache.set(key, value)
            if item_kind == _ITEM_REPL:
                shard.repl_served += 1
                shard.repl_bytes += nbytes
                shard._done_action = None
            else:
                shard.handoff_served += 1
                shard.handoff_bytes += nbytes
                shard._done_action = ("hint",)
            done_ns = shard.to_fleet(clock.now)
        shard.busy_ns += clock.now - start_ns
        if done_ns > self._end_ns:
            self._end_ns = done_ns
        self._push(done_ns, _DONE, shard.index)

    def _on_done_repl(self, now_ns: int, shard: Shard) -> None:
        action = shard._done_action
        shard._done_action = None
        shard.busy = False
        if action is not None:
            if action[0] == "fg":
                if shard.alive:
                    self._fan_out(now_ns, shard, action[1], action[2], action[3], action[4])
            else:  # hint replay completed
                shard.hints_outstanding -= 1
                if (
                    shard.hints_outstanding <= 0
                    and shard.health == HEALTH_RESYNCING
                ):
                    self._set_health(shard, HEALTH_UP, now_ns)
        if not shard.alive:
            return
        if shard.queue and not shard.busy:
            self._serve_next(now_ns, shard)

    def _fan_out(
        self,
        now_ns: int,
        shard: Shard,
        kind_int: int,
        key: bytes,
        hit: bool,
        value: Optional[bytes],
    ) -> None:
        """Propagate a completed foreground op to the other replicas.

        Writes (sets, deletes, and set-on-miss fills — fills keep
        replicas warm, since healthy reads never leave the primary) fan
        out to every other replica-set member: queued as ``replicate``
        work on live ones, journaled as hints for DOWN ones.  A read
        served off a fallback replica repairs the DOWN primary via a
        (weaker) repair hint.
        """
        cluster = self.cluster
        replicas = cluster.replica_set(key)
        primary = replicas[0]
        fleet = self._fleet
        if kind_int == KIND_GET:
            if hit:
                if shard is not primary and primary.health == HEALTH_DOWN:
                    if primary.hint_journal.append_repair(KIND_SET, key, value):
                        fleet.read_repairs += 1
                return
            if value is None:
                return  # bare miss: nothing written anywhere
            write_kind = KIND_SET  # set-on-miss fill
        elif kind_int == KIND_SET:
            write_kind = KIND_SET
        else:
            write_kind = KIND_DELETE
            value = None
        if self.write_ledger is not None:
            self.write_ledger.setdefault(key, []).append((now_ns, value))
        max_depth = self.config.max_queue_depth
        for member in replicas:
            if member is shard:
                continue
            if member.health == HEALTH_DOWN:
                member.hint_journal.append(write_kind, key, value)
                continue
            if not member.alive:
                member.repl_dropped += 1
                self._register_failure(member, now_ns)
                continue
            if len(member.queue) >= max_depth:
                member.repl_dropped += 1
                continue
            member.queue.append((_ITEM_REPL, now_ns, write_kind, key, value))
            if not member.busy:
                self._serve_next(now_ns, member)

    def _on_kill(self, now_ns: int, kill: ShardKill) -> None:
        shard = self.cluster.shards[kill.shard]
        if not shard.alive:
            return  # overlapping kill on an already-dead shard
        self._kills_fired += 1
        self._fleet.note_kill(now_ns)
        shard.stack.cache.store.tracer.emit_event(
            "serve.fault", "power_cut", offset=shard.index
        )
        shard.alive = False
        # Queued work dies with the DRAM: foreground requests fail,
        # replica writes are lost (counted), buffered hint replays go
        # back to the journal for the next recovery.
        requeue = []
        for item in shard.queue:
            if item[0] == _ITEM_FG:
                self._fail_request(self.tenants[item[2]], shard, "power_cut")
            elif item[0] == _ITEM_REPL:
                shard.repl_dropped += 1
            else:
                requeue.append(item)
        shard.queue.clear()
        shard.hints_outstanding = 0
        shard._done_action = None  # in-flight op's fan-out dies too
        for item in requeue:
            shard.hint_journal.append(item[2], item[3], item[4])
        self._push(now_ns + kill.outage_ns, _RECOVER, shard.index)
        repl = self.cluster.replication
        if not self._probe_armed and repl.probe_interval_ns > 0:
            self._probe_armed = True
            self._push(now_ns + repl.probe_interval_ns, _PROBE, 0)

    def _on_recover(self, now_ns: int, shard: Shard) -> None:
        """Power back: run crash recovery (charged in simulated time),
        then replay hinted writes through the normal write path."""
        if shard.alive:
            return
        shard.alive = True
        shard.failures = 0
        clock = shard.clock
        clock.advance_to(shard.to_local(now_ns))
        cache = shard.stack.cache
        tracer = cache.store.tracer
        start_ns = clock.now
        with tracer.span("serve", "recover", offset=shard.index):
            recovered = HybridCache.crash_recover(
                clock,
                cache.store,
                cache.config,
                list(cache.seal_journal),
                admission=cache.admission,
            )
        shard.stack.cache = recovered
        shard.resync_ns += clock.now - start_ns
        recover_done = shard.to_fleet(clock.now)
        if recover_done > self._end_ns:
            self._end_ns = recover_done
        self._set_health(shard, HEALTH_RESYNCING, now_ns)
        hints = shard.hint_journal.drain()
        shard.hints_outstanding = len(hints)
        for kind_int, key, value in hints:
            shard.queue.append((_ITEM_HINT, now_ns, kind_int, key, value))
        if shard.hints_outstanding == 0:
            self._set_health(shard, HEALTH_UP, now_ns)
        elif not shard.busy:
            self._serve_next(now_ns, shard)

    def _on_probe(self, now_ns: int) -> None:
        """Fixed-interval health probe: notices dead shards that tenant
        traffic alone would leave undetected."""
        repl = self.cluster.replication
        for shard in self.cluster.shards:
            if not shard.alive and shard.health != HEALTH_DOWN:
                self._register_failure(shard, now_ns)
        if self._probes_needed():
            self._push(now_ns + repl.probe_interval_ns, _PROBE, 0)
        else:
            self._probe_armed = False

    def _probes_needed(self) -> bool:
        for tenant in self.tenants:
            if tenant.issued < tenant.budget:
                return True
        for shard in self.cluster.shards:
            if not shard.alive or shard.health != HEALTH_UP:
                return True
        return False

    def _fleet_row(self) -> Dict[str, object]:
        """Fleet-level failover summary (the ``fleet_*`` bench columns)."""
        fleet = self._fleet
        shards = self.cluster.shards
        offered = sum(t.slo.offered for t in self.tenants)
        rate_shed = sum(t.slo.shed_rate_limited for t in self.tenants)
        completed = sum(t.slo.completed for t in self.tenants)
        failed = sum(t.slo.failed_unavailable for t in self.tenants)
        # Availability over requests the fleet owed an answer: everything
        # offered minus rate-limit sheds (the client exceeded its
        # contract).  Queue-full sheds and failures count against it.
        eligible = offered - rate_shed
        availability = completed / eligible if eligible > 0 else 1.0
        journals = [s.hint_journal for s in shards if s.hint_journal is not None]
        return {
            "replicas": self.cluster.replication.replicas,
            "availability": availability,
            "failed": failed,
            "kills": self._kills_fired,
            "storm_p99_us": fleet.storm_latency.p99() / 1000,
            "hit_steady": fleet.hit_ratio(PHASE_STEADY),
            "hit_storm": fleet.hit_ratio(PHASE_STORM),
            "hit_recovered": fleet.hit_ratio(PHASE_RECOVERED),
            "recovery_ms": fleet.recovery_ms(),
            "repl_writes": sum(s.repl_served for s in shards),
            "repl_bytes": sum(s.repl_bytes for s in shards),
            "repl_dropped": sum(s.repl_dropped for s in shards),
            "handoff_writes": sum(s.handoff_served for s in shards),
            "handoff_bytes": sum(s.handoff_bytes for s in shards),
            "hints_buffered": sum(j.appended for j in journals),
            "hint_drops": sum(j.dropped for j in journals),
            "fallback_reads": fleet.fallback_reads,
            "read_repairs": fleet.read_repairs,
        }

    def _inval_row(self) -> Dict[str, object]:
        """Invalidation-storm summary (the ``inval_*``/``tenant_*`` bench
        columns).  The dead-byte counters read straight from each
        shard's liveness ledger, so they reconcile exactly with the
        ``serve.invalidate`` events and the reclaim tracer spans."""
        row: Dict[str, object] = dict(self.inval_stats.row())
        ledgers = [s.stack.cache.regions.ledger for s in self.cluster.shards]
        row["inval_dead_bytes"] = sum(
            ledger.dead_bytes.get("invalidated", 0) for ledger in ledgers
        )
        row["inval_dead_items"] = sum(
            ledger.dead_items.get("invalidated", 0) for ledger in ledgers
        )
        row["inval_dropped_regions"] = sum(
            ledger.dead_generation_regions for ledger in ledgers
        )
        row["inval_dead_first_evictions"] = sum(
            ledger.dead_first_evictions for ledger in ledgers
        )
        row["tenant_generations"] = sum(t.generation for t in self.tenants)
        row["tenant_versioned"] = sum(
            1 for t in self.tenants if t.config.versioned_keys
        )
        return row

    # --- reporting ----------------------------------------------------------

    def _report(self) -> ServingReport:
        # The measurement window must cover the last *arrival* too: a
        # tenant whose tail is entirely shed stops producing completions
        # while offered load keeps flowing, and normalizing goodput by
        # the last completion alone would inflate it.
        elapsed_s = max(self._end_ns, self._last_arrival_ns) / SEC
        tenant_rows = []
        for tenant in self.tenants:
            row = tenant.slo.row(elapsed_s)
            row["arrival"] = tenant.config.arrival
            row["offered_kops"] = tenant.config.rate_ops_per_sec / 1000
            tenant_rows.append(row)
        offered = sum(t.slo.offered for t in self.tenants)
        completed = sum(t.slo.completed for t in self.tenants)
        shed = sum(t.slo.shed for t in self.tenants)
        return ServingReport(
            tenant_rows=tenant_rows,
            shard_rows=self.cluster.rows(),
            sim_seconds=elapsed_s,
            offered=offered,
            completed=completed,
            shed=shed,
            fleet_row=self._fleet_row() if self._fleet is not None else None,
            inval_row=self._inval_row() if self.inval_stats is not None else None,
        )
