"""One serving cell as data: the :class:`Scenario` spec and its runner.

Every serving sweep in :mod:`repro.bench.experiments` is a named grid
over :class:`Scenario`: it lists ``(labels, spec)`` cells and
:func:`run_grid` runs each through :func:`run_scenario`, projecting the
result onto the columns the sweep reports (:func:`scenario_columns`).
The spec holds only the values the sweeps vary or hard-code
differently; everything they share is a constant here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bench.schemes import SchemeScale, SchemeStack
from repro.workloads.cachebench import CacheBenchConfig

if TYPE_CHECKING:  # repro.serve imports repro.bench; resolve lazily
    from repro.reclaim import AdaptivePacingConfig
    from repro.serve import (
        CacheCluster,
        ReplicationConfig,
        RoutingConfig,
        ServingReport,
        ShardSpec,
    )

# Flash regions are reclaimed FIFO from navy's clean-region pool (see
# run_fig2_overall).  Zone-Cache reclaims one whole zone at a time, so it
# takes only the policy.
NAVY_OVERRIDES = (("eviction_policy", "fifo"), ("reclaim_window", 128))
ZONE_CACHE_OVERRIDES = (("eviction_policy", "fifo"),)


def _serving_scale() -> SchemeScale:
    """Reduced hardware for serving runs: small zones/regions so a few
    thousand requests reach eviction/GC steady state on every scheme
    (at full scale Zone-Cache's 4 MiB region buffer would absorb the
    whole run in RAM and never touch the device)."""
    from repro.units import KIB

    return SchemeScale(
        zone_size=256 * KIB,
        region_size=16 * KIB,
        pages_per_block=16,
        ram_bytes=32 * KIB,
    )


@dataclass(frozen=True)
class Scenario:
    """One serving cell: a fleet, a tenant mix, an offered load and an
    optional fault or invalidation script.

    The fleet is ``num_shards`` identical ``scheme`` shards provisioned
    from the zone budgets, unless ``fleet`` lists mixed shards outright.
    Budgets follow each scheme's OP model (§4.1): Zone-Cache caches its
    whole device (no OP at all); with ``block_cache_whole_media``
    Block-Cache fills its exposed LBA space (its OP is *internal*,
    behind the FTL — the only headroom its GC gets); the host-side
    schemes reserve host-visible spare zones the ZTL/F2FS reclaim into,
    and File-Cache formats ``file_zones_per_shard`` zones when given.

    Scripts are placed as fractions of the web tenant's open-loop
    horizon (:attr:`horizon_ns`), so they land mid-run at any load.
    ``kill_shard`` arms a power cut; ``bump_at_frac`` arms the two
    namespace bumps and switches to the storm tenant mix, whose flash
    crowd and purge storm start at the bumps.
    """

    scheme: str = "Region-Cache"
    num_shards: int = 1
    fleet: Tuple["ShardSpec", ...] = ()
    scale: Optional[SchemeScale] = None
    zones_per_shard: int = 10
    cache_zones_per_shard: int = 8
    file_zones_per_shard: Optional[int] = None
    block_cache_whole_media: bool = False
    # Merged over the navy defaults and sorted, then the per-scheme
    # reclaim configs are appended.
    cache_overrides: Tuple[Tuple[str, object], ...] = ()
    reclaim_overrides: Tuple[Tuple[str, object], ...] = ()
    routing: Optional["RoutingConfig"] = None
    replication: Optional["ReplicationConfig"] = None
    adaptive_pacing: Optional["AdaptivePacingConfig"] = None
    offered_kops: float = 12.0
    requests_per_tenant: int = 4_000
    num_keys: Optional[int] = None
    max_queue_depth: int = 48
    web_arrival: str = "poisson"
    seed: int = 7
    kill_shard: Optional[int] = None
    kill_at_frac: float = 0.35
    outage_frac: float = 0.25
    bump_at_frac: Optional[float] = None
    purge_bump_frac: float = 0.55
    storm_duration_frac: float = 0.10
    # gc-sweep's reclaim attribution: capture every device command.
    trace_devices: bool = False
    # hint-sweep's reconciliation: stream reclaim drop spans to a counter.
    count_drop_spans: bool = False

    @property
    def horizon_ns(self) -> int:
        """Open-loop duration estimate: the web tenant (70% of the load)
        offers ``requests_per_tenant`` ops at 0.7 x the offered rate."""
        return int(
            self.requests_per_tenant / (0.7 * self.offered_kops * 1000) * 1e9
        )

    def at_ns(self, frac: float) -> int:
        return int(frac * self.horizon_ns)


class ScenarioRun(NamedTuple):
    report: "ServingReport"
    cluster: "CacheCluster"
    drop_spans: int


def _serving_tenants(
    total_rate: float,
    requests_per_tenant: int,
    num_keys: int,
    seed: int,
    web_arrival: str = "poisson",
    storm: Optional[Tuple[float, float, float]] = None,
) -> "List[object]":
    """The serving sweeps' tenant mixes, both splitting the offered load
    70/30 between an interactive ``web`` tenant and a second tenant.

    The two-tenant mix pairs a steady web tenant (``web_arrival``: the
    failover sweep kills shards mid-*diurnal* load) with a bursty batch
    tenant.  The batch tenant carries a token bucket at 1.5x its mean
    rate, so its 4x bursts are clipped by rate limiting *before* they
    reach the shard queues — per-tenant QoS isolating the interactive
    tenant.

    ``storm = (bump_at_s, storm_at_s, storm_duration_s)`` selects the
    storm mix instead: a versioned web tenant whose bump triggers a
    flash crowd of refill traffic, and a versioned purge tenant that
    tears its keyspace down in a delete storm.
    """
    from repro.serve import TenantConfig

    web_rate = 0.7 * total_rate
    other_rate = 0.3 * total_rate
    if storm is None:
        web_arrival_args: Dict[str, object] = {"arrival": web_arrival}
        other, ratios = "batch", (0.30, 0.60, 0.10)
        other_args: Dict[str, object] = dict(
            arrival="burst",
            burst_factor=4.0,
            rate_limit_ops_per_sec=1.5 * other_rate,
            rate_limit_burst=32.0,
        )
    else:
        bump_at_s, storm_at_s, storm_duration_s = storm
        duration_s = max(storm_duration_s, 0.001)
        web_arrival_args = dict(
            arrival="flash_crowd",
            flash_crowd_factor=3.0,
            flash_crowd_at_s=bump_at_s,
            flash_crowd_decay_s=duration_s,
            versioned_keys=True,
        )
        other, ratios = "purge", (0.20, 0.40, 0.40)
        other_args = dict(
            arrival="storm",
            storm_factor=4.0,
            storm_at_s=storm_at_s,
            storm_duration_s=duration_s,
            versioned_keys=True,
        )
    get_ratio, set_ratio, delete_ratio = ratios
    return [
        TenantConfig(
            "web",
            rate_ops_per_sec=web_rate,
            workload=CacheBenchConfig(
                num_ops=requests_per_tenant,
                num_keys=num_keys,
                zipf_theta=1.0,
                set_on_miss=True,
                seed=seed,
            ),
            slo_p99_ms=2.0,
            seed=seed + 100,
            **web_arrival_args,
        ),
        TenantConfig(
            other,
            rate_ops_per_sec=other_rate,
            workload=CacheBenchConfig(
                num_ops=requests_per_tenant,
                num_keys=max(1, num_keys // 2),
                get_ratio=get_ratio,
                set_ratio=set_ratio,
                delete_ratio=delete_ratio,
                seed=seed + 1,
            ),
            slo_p99_ms=10.0,
            seed=seed + 200,
            **other_args,
        ),
    ]


def _shard_specs(spec: Scenario, scale: SchemeScale) -> "List[ShardSpec]":
    from repro.serve import ShardSpec

    if spec.fleet:
        return list(spec.fleet)
    name = spec.scheme
    media = spec.zones_per_shard * scale.zone_size
    if name == "Zone-Cache":
        cache_bytes = None
        base = dict(ZONE_CACHE_OVERRIDES)
    else:
        cache_bytes = (
            media
            if name == "Block-Cache" and spec.block_cache_whole_media
            else spec.cache_zones_per_shard * scale.zone_size
        )
        base = dict(NAVY_OVERRIDES)
    file_media = None
    if name == "File-Cache" and spec.file_zones_per_shard is not None:
        file_media = spec.file_zones_per_shard * scale.zone_size
    base.update(spec.cache_overrides)
    shard = ShardSpec(
        name,
        media_bytes=media,
        cache_bytes=cache_bytes,
        file_media_bytes=file_media,
        cache_overrides=tuple(sorted(base.items())) + spec.reclaim_overrides,
    )
    return [shard] * spec.num_shards


def run_scenario(spec: Scenario) -> ScenarioRun:
    """Build the spec's cluster and tenant mix, serve them, and return
    the report with the cluster it ran on."""
    from repro.serve import (
        CacheCluster,
        FailoverPlan,
        InvalidationPlan,
        Server,
        ServerConfig,
        ShardKill,
        TenantInvalidate,
    )

    scale = spec.scale or _serving_scale()
    cluster = CacheCluster(
        _shard_specs(spec, scale),
        scale=scale,
        routing=spec.routing,
        # Sweeps rebuild identical shards per cell; clone a template.
        cache_stacks=not spec.fleet,
        replication=spec.replication,
    )
    if spec.adaptive_pacing is not None:
        for shard in cluster.shards:
            shard.stack.enable_adaptive_pacing(spec.adaptive_pacing)
    if spec.trace_devices:
        for shard in cluster.shards:
            shard.stack.substrate["device"].tracer.enable()
    drop_spans = [0]
    if spec.count_drop_spans:
        # Subscribing streams records through the callback without
        # capturing them, so the reconciliation costs no memory.
        def count_drop(record):
            if record.op == "drop" and record.layer.startswith("reclaim."):
                drop_spans[0] += 1

        for shard in cluster.shards:
            _, engine = shard.stack.reclaim_engine()
            if engine is None:
                continue
            # The FTL's engine is born on the shared NULL_TRACER (and
            # deep-copied stacks carry a private copy of it); the ZTL and
            # F2FS engines already point here.  Either way the drop spans
            # must join the device stream the counter subscribes to.
            device = shard.stack.substrate["device"]
            engine.tracer = device.tracer
            device.tracer.subscribe(count_drop)

    num_keys = spec.num_keys
    if num_keys is None:
        # Working set just above the fleet's capacity, as Fig 2 does.
        media = spec.zones_per_shard * scale.zone_size
        num_keys = int(1.05 * spec.num_shards * media / 1568)
    storm = invalidations = failover = None
    if spec.bump_at_frac is not None:
        bump_at_ns = spec.at_ns(spec.bump_at_frac)
        purge_at_ns = spec.at_ns(spec.purge_bump_frac)
        storm = (
            bump_at_ns / 1e9,
            purge_at_ns / 1e9,
            spec.storm_duration_frac * spec.horizon_ns / 1e9,
        )
        invalidations = InvalidationPlan(
            (
                TenantInvalidate(bump_at_ns, "web"),
                TenantInvalidate(purge_at_ns, "purge"),
            )
        )
    tenants = _serving_tenants(
        spec.offered_kops * 1000, spec.requests_per_tenant, num_keys,
        spec.seed, web_arrival=spec.web_arrival, storm=storm,
    )
    if spec.kill_shard is not None:
        failover = FailoverPlan(
            (
                ShardKill(
                    spec.at_ns(spec.kill_at_frac),
                    spec.kill_shard,
                    spec.at_ns(spec.outage_frac),
                ),
            )
        )
    report = Server(
        cluster,
        tenants,
        ServerConfig(max_queue_depth=spec.max_queue_depth),
        failover=failover,
        invalidations=invalidations,
    ).run()
    return ScenarioRun(report, cluster, drop_spans[0])


# --------------------------------------------------------------------------
# Column projections
# --------------------------------------------------------------------------

def _zone_mgmt_columns(devices) -> Dict[str, object]:
    """Zone-management service-time columns — the ``zns_*`` family.

    Summed over every device that exposes a
    :class:`~repro.flash.zone.ZoneMgmtStats` (conventional SSDs have no
    zones and contribute zeros), so the same helper serves single-stack
    rows and fleet rows.  The ``*_us`` columns are the service time the
    zone commands were charged through the I/O pipeline, which is why
    they reconcile exactly with the tracer's OPEN/CLOSE/FINISH/RESET
    span attribution (asserted in ``tests/test_zone_lifecycle.py``).
    """
    open_ns = close_ns = finish_ns = reset_ns = forced = 0
    for device in devices:
        mgmt = getattr(device, "zone_mgmt", None)
        if mgmt is None:
            continue
        open_ns += mgmt.open_ns
        close_ns += mgmt.close_ns
        finish_ns += mgmt.finish_ns
        reset_ns += mgmt.reset_ns
        forced += mgmt.forced_closes
    return {
        "zns_open_us": open_ns / 1000,
        "zns_close_us": close_ns / 1000,
        "zns_finish_us": finish_ns / 1000,
        "zns_reset_us": reset_ns / 1000,
        "zns_forced_close": forced,
    }


def _gc_columns(stack: SchemeStack) -> Dict[str, object]:
    """Uniform reclamation columns — the ``gc_*`` family (EXPERIMENTS.md).

    Read off the scheme's :class:`~repro.reclaim.ReclaimEngine` whichever
    layer owns it, plus the cache's own region-eviction stats.  Always
    present so mixed-scheme tables stay rectangular.
    """
    layer_name, engine = stack.reclaim_engine()
    stats = engine.stats if engine is not None else None
    pacer = engine.pacer if engine is not None else None
    cache_stats = stack.cache.regions.reclaim_stats
    return {
        "gc_layer": layer_name,
        "gc_policy": engine.policy.name if engine is not None else "none",
        "gc_victims": stats.victims_reclaimed if stats is not None else 0,
        "gc_migrated_units": stats.units_migrated if stats is not None else 0,
        "gc_dropped_units": stats.units_dropped if stats is not None else 0,
        "gc_hint_dropped_units": (
            stats.hint_dropped_units if stats is not None else 0
        ),
        "gc_copied_bytes": stats.copied_bytes if stats is not None else 0,
        "gc_triggers": stats.triggers if stats is not None else 0,
        "gc_stall_us_p99": stats.stall_us_p99 if stats is not None else 0.0,
        "gc_cache_evictions": cache_stats.victims_reclaimed,
        "gc_cache_dropped_keys": cache_stats.units_dropped,
        # Copy-budget and adaptive-pacing telemetry (zeros when static).
        "gc_throttled_steps": pacer.throttled_steps if pacer is not None else 0,
        "gc_copy_throttle_events": (
            pacer.copy_throttle_events if pacer is not None else 0
        ),
        "gc_pace_adjustments": pacer.pace_adjustments if pacer is not None else 0,
        "gc_pace_clamps": pacer.pace_clamps if pacer is not None else 0,
        "gc_pace_units_end": pacer.pace_units if pacer is not None else 0,
    }


def _fleet_reclaim(cluster: "CacheCluster") -> Dict[str, object]:
    """The ``gc_*`` family summed over the fleet's shards (stall p99 and
    final pace take the worst shard; the layer is the first shard's)."""
    per_shard = [_gc_columns(shard.stack) for shard in cluster.shards]
    out: Dict[str, object] = {}
    for key, first in per_shard[0].items():
        if key in ("gc_layer", "gc_policy"):
            out[key] = first
        elif key in ("gc_stall_us_p99", "gc_pace_units_end"):
            out[key] = max(cols[key] for cols in per_shard)
        else:
            out[key] = sum(cols[key] for cols in per_shard)
    return out


def _traced_reclaim(tracer) -> Dict[str, int]:
    """Count reclaim spans and the device bytes they attribute.

    ``reclaim_traced_bytes`` sums device-level transfer records whose
    ancestry passes through a ``reclaim.*`` span — the check that every
    migrated byte is tracer-attributed to the GC engine that moved it.
    """
    by_id = {record.record_id: record for record in tracer.records}
    spans = 0
    traced = 0
    for record in tracer.records:
        if record.layer.startswith("reclaim."):
            spans += 1
            continue
        if record.op not in ("write", "append", "gc"):
            continue
        cursor = record
        while cursor is not None:
            if cursor.layer.startswith("reclaim."):
                traced += record.length
                break
            cursor = (
                by_id.get(cursor.parent_id)
                if cursor.parent_id is not None
                else None
            )
    return {"reclaim_spans": spans, "reclaim_traced_bytes": traced}


def scenario_columns(spec: Scenario, run: ScenarioRun) -> Dict[str, object]:
    """Every column a serving row can report, by name.

    Entries ending in ``*`` are whole families (``fleet_*``, the
    replicated loop's fleet row; ``inval_*``, the invalidation row),
    which rows take in full.
    """
    report, cluster = run.report, run.cluster
    shard_rows = report.shard_rows
    waf_app_max = max(r["waf_app"] for r in shard_rows)
    waf_device_max = max(r["waf_device"] for r in shard_rows)
    cols: Dict[str, object] = {
        "num_shards": spec.num_shards,
        "offered_total_kops": spec.offered_kops,
        "cluster_shed_rate": report.shed_rate,
        "cluster_util_max": max(r["util"] for r in shard_rows),
        "cluster_served": sum(r["served"] for r in shard_rows),
        "cluster_waf_app_max": waf_app_max,
        "cluster_waf_device_max": waf_device_max,
        "waf_app_max": waf_app_max,
        "waf_device_max": waf_device_max,
        "rerouted_writes": sum(r["rerouted_out"] for r in shard_rows),
        "gc_hint_drop_spans": run.drop_spans,
        "fleet_*": {f"fleet_{k}": v for k, v in (report.fleet_row or {}).items()},
        "inval_*": report.inval_row or {},
    }
    if spec.kill_shard is not None:
        cols["kill_at_ms"] = spec.at_ns(spec.kill_at_frac) / 1e6
        cols["outage_ms"] = spec.at_ns(spec.outage_frac) / 1e6
    if spec.bump_at_frac is not None:
        cols["bump_at_ms"] = spec.at_ns(spec.bump_at_frac) / 1e6
        cols["purge_bump_at_ms"] = spec.at_ns(spec.purge_bump_frac) / 1e6
    for tenant in report.tenant_rows:
        name = tenant["tenant"]
        for field in ("p99_us", "goodput_kops", "slo_attainment", "hit_ratio"):
            cols[f"{name}_{field}"] = tenant[field]
        cols[f"rerouted_{name}"] = tenant["rerouted"]
    cols.update(_fleet_reclaim(cluster))
    cols.update(_zone_mgmt_columns(
        shard.stack.substrate.get("device") for shard in cluster.shards
    ))
    if spec.trace_devices:
        traced = {"reclaim_spans": 0, "reclaim_traced_bytes": 0}
        for shard in cluster.shards:
            shard_traced = _traced_reclaim(shard.stack.substrate["device"].tracer)
            for key in traced:
                traced[key] += shard_traced[key]
        cols.update(traced)
    return cols


def run_grid(
    cells: Sequence[Tuple[Dict[str, object], Scenario]], columns: Sequence[str]
) -> List[Dict[str, object]]:
    """Run every ``(labels, spec)`` cell in order; each row is the
    labels followed by ``columns`` projected from that cell's run."""
    rows: List[Dict[str, object]] = []
    for labels, spec in cells:
        cols = scenario_columns(spec, run_scenario(spec))
        row = dict(labels)
        for name in columns:
            if name.endswith("*"):
                row.update(cols[name])
            else:
                row[name] = cols[name]
        rows.append(row)
    return rows
