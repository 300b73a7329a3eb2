"""One function per table/figure in the paper's evaluation (§4).

Each function builds the relevant scheme stacks on matched hardware,
drives the paper's workload, and returns structured rows.  Absolute
numbers differ from the paper's testbed (this is a simulator — see
DESIGN.md); the *shape* of each result is the reproduction target and is
asserted by ``tests/test_bench.py``.  The open-loop serving sweeps are
named grids over :class:`~repro.bench.scenario.Scenario`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.bench.scenario import (
    ZONE_CACHE_OVERRIDES,
    Scenario,
    _gc_columns,
    _serving_scale,
    _zone_mgmt_columns,
    run_grid,
    run_scenario,
    scenario_columns,
)
# Re-exported: callers build the serving mix as experiments._serving_tenants.
from repro.bench.scenario import _serving_tenants  # noqa: F401
from repro.bench.schemes import (
    ALL_SCHEME_NAMES,
    SCHEME_NAMES,
    SchemeScale,
    SchemeStack,
    build_file_cache,
    build_region_cache,
    build_scheme,
    build_zone_cache,
)
from repro.sim.clock import SimClock
from repro.units import MIB
from repro.workloads.cachebench import CacheBenchConfig, CacheBenchDriver


def _populate(driver: CacheBenchDriver, stack: SchemeStack) -> None:
    """CacheBench-style population phase: one set per key (not measured)."""
    driver.populate(stack.cache)


def _run_mix(
    driver: CacheBenchDriver, stack: SchemeStack, populate: bool = True
) -> Dict[str, object]:
    if populate:
        _populate(driver, stack)
    result = driver.run(stack.cache)
    row = {
        "scheme": stack.name,
        "throughput_mops_per_min": result.ops_per_minute_m,
        "hit_ratio": result.hit_ratio,
        "waf_app": result.waf_app,
        "waf_device": result.waf_device,
        "waf_total": result.waf_total,
        "get_p99_us": result.get_p99_ns / 1000,
        "set_p99_us": result.set_p99_ns / 1000,
        "cache_mib": stack.cache_bytes / MIB,
    }
    row.update(_device_columns(stack))
    row.update(_fault_columns(stack))
    row.update(_gc_columns(stack))
    return row


def _fault_columns(stack: SchemeStack) -> Dict[str, object]:
    """Fault-injection / recovery columns (EXPERIMENTS.md).

    Always present so rows stay rectangular: with no injector armed they
    report zeros, and the pre-existing golden columns are untouched.
    """
    faults = stack.substrate.get("faults")
    stats = stack.cache.stats
    return {
        "faults_injected": faults.stats.total_injected if faults is not None else 0,
        "retries": stats.retries,
        "quarantined_regions": stats.quarantined_regions,
        "recovery_ms": stats.recovery_ns / 1e6,
    }


def _device_columns(stack: SchemeStack) -> Dict[str, object]:
    """Per-layer device latency / pool-parallelism columns (EXPERIMENTS.md).

    Read straight off the scheme's primary device pipeline: device-level
    P99s separate queueing seen at the cache API from queueing inside the
    device, and the pool counters show how busy/contended the media was.
    """
    device = stack.substrate.get("device")
    if device is None:
        return {}
    stats = device.stats
    pool = device.pipeline.pool
    cols = {
        "dev_read_p99_us": stats.read_latency.p99() / 1000,
        "dev_write_p99_us": stats.write_latency.p99() / 1000,
        "dev_wait_ms": pool.total_wait_ns / 1e6,
        "dev_busy_ms": pool.total_busy_ns / 1e6,
        "dev_util": pool.utilization(stack.clock.now),
        "io_channels": pool.config.channels,
        "io_queue_depth": pool.config.queue_depth,
    }
    cols.update(_zone_mgmt_columns([device]))
    return cols


# --------------------------------------------------------------------------
# Figure 2 — overall throughput + hit ratio of the four schemes
# --------------------------------------------------------------------------

def run_fig2_overall(
    scale: Optional[SchemeScale] = None,
    zones: int = 25,
    cache_zones: int = 20,
    file_zones: int = 38,
    num_keys: Optional[int] = None,
    num_ops: int = 60_000,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Figure 2: 25 zones; Zone-Cache caches all of them (no OP), the
    other schemes cache 20 zones' worth (≥20% OP); File-Cache's F2FS
    gets 38 zones, exactly as §4.1 provisions it."""
    scale = scale or SchemeScale()
    media = zones * scale.zone_size
    cache_bytes = cache_zones * scale.zone_size
    file_media = file_zones * scale.zone_size
    if num_keys is None:
        # Working set just above the smaller caches so hit ratio tracks
        # capacity (the paper's 94–95% regime).
        num_keys = int(1.05 * media / 1568)
    workload = CacheBenchConfig(
        num_ops=num_ops,
        num_keys=num_keys,
        zipf_theta=1.0,
        warmup_ops=int(1.2 * num_keys),
        set_on_miss=True,  # look-aside fill: a miss fetches and re-inserts
        seed=seed,
    )
    rows: List[Dict[str, object]] = []
    # Flash regions are reclaimed FIFO, as CacheLib's navy engine does
    # (the paper's "LRU" §4.1 setting is the DRAM tier's item policy,
    # which RamCache implements).  FIFO keeps region death order equal to
    # write order — the property that keeps zone GC cheap (Table 1).
    # reclaim_window models navy's clean-region pool: region reuse
    # deviates slightly from strict FIFO, leaving straggler regions in
    # dying zones — the source of Table 1's low-1.x WAFs.  Zone-Cache
    # reclaims exactly one zone at a time (no pool), matching §3.2.
    navy = {"eviction_policy": "fifo", "reclaim_window": 128}
    for name, kwargs in _fig2_scheme_args(cache_bytes, file_media, navy):
        stack = build_scheme(name, SimClock(), scale, media, **kwargs)
        driver = CacheBenchDriver(workload)
        rows.append(_run_mix(driver, stack))
    return rows


def _fig2_scheme_args(cache_bytes: int, file_media: int, navy: Dict[str, object]):
    """Per-scheme build_scheme kwargs for the Figure 2 provisioning.

    Zone-Cache caches the whole device (no OP, §3.2) and takes only the
    reclaim-policy override; the others get the smaller cache budget and
    the navy clean-region pool.  Shared by the fault sweep so both
    experiments construct identical stacks.
    """
    return [
        ("Region-Cache", dict(cache_bytes=cache_bytes, **navy)),
        ("Zone-Cache", dict(eviction_policy="fifo")),
        (
            "File-Cache",
            dict(cache_bytes=cache_bytes, file_media_bytes=file_media, **navy),
        ),
        ("Block-Cache", dict(cache_bytes=cache_bytes, **navy)),
    ]


# --------------------------------------------------------------------------
# Figure 3 — region in-memory buffer fill time, large vs small regions
# --------------------------------------------------------------------------

def run_fig3_insertion_time(
    scale: Optional[SchemeScale] = None,
    zones: int = 25,
    num_sets: Optional[int] = None,
    seed: int = 7,
) -> Dict[str, List[Dict[str, object]]]:
    """Figure 3: insertion time to fill each successive region buffer.

    (a) large regions (region == zone, Zone-Cache) show a jump when
    region eviction begins; (b) small regions (Region-Cache) stay flat.
    """
    scale = scale or SchemeScale()
    media = zones * scale.zone_size
    series: Dict[str, List[Dict[str, object]]] = {}
    for label, builder in (
        ("large_region", lambda clk: build_zone_cache(clk, scale, media)),
        (
            "small_region",
            lambda clk: build_region_cache(
                clk, scale, media, cache_bytes=(zones - 5) * scale.zone_size
            ),
        ),
    ):
        stack = builder(SimClock())
        driver = CacheBenchDriver(
            CacheBenchConfig(
                num_ops=1,
                num_keys=max(
                    1024, int(2.2 * stack.cache_bytes / 1568)
                ),
                get_ratio=0.0,
                set_ratio=1.0,
                delete_ratio=0.0,
                seed=seed,
            )
        )
        total_sets = num_sets
        if total_sets is None:
            # Enough sets to overwrite the cache ~2.4 times.
            total_sets = int(2.4 * stack.cache_bytes / 1568)
        keys = driver._keys
        sizes = driver._sizes
        for _ in range(total_sets):
            key_index = keys.sample()
            stack.cache.set(
                driver.key_bytes(key_index),
                driver.value_bytes(key_index, sizes.sample()),
            )
        stack.cache.flush()
        series[label] = [
            {"sequence": i, "fill_time_us": duration / 1000}
            for i, duration in enumerate(stack.cache.stats.region_fill_durations_ns)
        ]
    return series


# --------------------------------------------------------------------------
# Figure 4 + Table 1 — OP-ratio sweep (throughput, hit ratio, WAF)
# --------------------------------------------------------------------------

def run_fig4_op_sweep(
    scale: Optional[SchemeScale] = None,
    zones: int = 55,
    op_ratios: tuple = (0.10, 0.15, 0.20),
    num_ops: int = 60_000,
    num_keys: Optional[int] = None,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Figure 4: same device space for everyone (the paper's 220 zones,
    scaled); File-Cache and Region-Cache sweep OP 10/15/20% while
    Zone-Cache always runs without OP."""
    scale = scale or SchemeScale()
    media = zones * scale.zone_size
    if num_keys is None:
        num_keys = int(1.6 * media / 1568)
    workload = CacheBenchConfig(num_ops=num_ops, num_keys=num_keys, seed=seed)
    rows: List[Dict[str, object]] = []
    lru = {"eviction_policy": "fifo", "reclaim_window": 128}
    for op in op_ratios:
        cache_bytes = int(media * (1.0 - op))
        stack = build_file_cache(
            # F2FS reserves a bit less than the nominal OP so the cache
            # file plus node blocks always fit inside usable space.
            SimClock(), scale, media, cache_bytes, provision_ratio=op * 0.6, **lru
        )
        row = _run_mix(CacheBenchDriver(workload), stack)
        row.update({"op_ratio": op})
        rows.append(row)
    zone_stack = build_zone_cache(SimClock(), scale, media, eviction_policy="fifo")
    zone_row = _run_mix(CacheBenchDriver(workload), zone_stack)
    zone_row.update({"op_ratio": 0.0})
    rows.append(zone_row)
    for op in op_ratios:
        cache_bytes = int(media * (1.0 - op))
        stack = build_region_cache(SimClock(), scale, media, cache_bytes, **lru)
        row = _run_mix(CacheBenchDriver(workload), stack)
        row.update({"op_ratio": op})
        rows.append(row)
    return rows


def run_table1_waf(
    scale: Optional[SchemeScale] = None,
    zones: int = 55,
    op_ratios: tuple = (0.10, 0.15, 0.20),
    num_ops: int = 60_000,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Table 1: WA factor of Region-Cache and File-Cache per OP ratio
    (application-level — the layer above the ZNS device)."""
    rows = run_fig4_op_sweep(
        scale=scale, zones=zones, op_ratios=op_ratios, num_ops=num_ops, seed=seed
    )
    out: List[Dict[str, object]] = []
    for row in rows:
        if row["scheme"] not in ("Region-Cache", "File-Cache"):
            continue
        out.append(
            {
                "scheme": row["scheme"],
                "op_ratio": row["op_ratio"],
                "waf": row["waf_app"],
            }
        )
    return out


# --------------------------------------------------------------------------
# Figure 5 + Table 2 — end-to-end: the schemes as RocksDB's secondary cache
# --------------------------------------------------------------------------

def run_fig5_rocksdb(
    scale: Optional[SchemeScale] = None,
    exp_ranges: tuple = (15.0, 25.0),
    num_keys: int = 80_000,
    num_reads: int = 8_000,
    warmup_reads: int = 16_000,
    cache_zones: float = 4.5,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Figure 5: fillrandom then readrandom against an LSM on HDD, with
    each scheme serving as the secondary (flash) cache."""
    from repro.workloads.dbbench import DbBenchConfig, DbBenchDriver

    scale = scale or SchemeScale()
    rows: List[Dict[str, object]] = []
    for exp_range in exp_ranges:
        for scheme in ("Block-Cache", "File-Cache", "Zone-Cache", "Region-Cache"):
            config = DbBenchConfig(
                num_keys=num_keys,
                num_reads=num_reads,
                warmup_reads=warmup_reads,
                exp_range=exp_range,
                cache_zones=cache_zones,
                scheme=scheme,
                seed=seed,
            )
            result = DbBenchDriver(config, scale).run()
            rows.append(
                {
                    "scheme": scheme,
                    "exp_range": exp_range,
                    "kops_per_sec": result.ops_per_sec / 1000,
                    "hit_ratio": result.cache_hit_ratio,
                    "p50_ms": result.p50_ns / 1e6,
                    "p99_ms": result.p99_ns / 1e6,
                }
            )
    return rows


# --------------------------------------------------------------------------
# Fault sweep — the Figure 2 mix with a seeded fault plan armed
# --------------------------------------------------------------------------

def run_fault_sweep(
    scale: Optional[SchemeScale] = None,
    zones: int = 25,
    cache_zones: int = 20,
    file_zones: int = 38,
    num_ops: int = 20_000,
    num_keys: Optional[int] = None,
    seed: int = 7,
    fault_seed: int = 11,
    schemes: tuple = ("Region-Cache", "Zone-Cache", "File-Cache", "Block-Cache"),
) -> List[Dict[str, object]]:
    """Availability under injected faults (EXPERIMENTS.md "Fault sweep").

    Each scheme runs the Figure 2 mix with the same seeded fault plan:
    sporadic transient media errors on reads, occasional open-resource
    exhaustion on writes, rare latency spikes, and one zone flipped
    READ-ONLY mid-run (ZNS-backed schemes only — a conventional SSD has
    no zones to kill).  The interesting columns are ``faults_injected``,
    ``retries``, ``degraded`` misses and ``quarantined_regions``: the
    cache must keep serving, not crash.
    """
    from repro.sim.faults import FaultInjector, FaultKind, FaultRule, ZoneFault
    from repro.units import SEC

    scale = scale or SchemeScale()
    media = zones * scale.zone_size
    cache_bytes = cache_zones * scale.zone_size
    file_media = file_zones * scale.zone_size
    if num_keys is None:
        num_keys = int(1.05 * media / 1568)
    workload = CacheBenchConfig(
        num_ops=num_ops,
        num_keys=num_keys,
        zipf_theta=1.0,
        warmup_ops=int(1.2 * num_keys),
        set_on_miss=True,
        seed=seed,
    )
    navy = {"eviction_policy": "fifo", "reclaim_window": 128}

    def make_injector() -> FaultInjector:
        return FaultInjector(
            seed=fault_seed,
            rules=(
                FaultRule(
                    FaultKind.MEDIA_ERROR,
                    probability=0.002,
                    op="read",
                    after_requests=200,
                ),
                FaultRule(FaultKind.ZONE_RESOURCE, probability=0.0005, op="write"),
                FaultRule(
                    FaultKind.LATENCY,
                    probability=0.001,
                    extra_latency_ns=2_000_000,
                ),
            ),
            zone_faults=(
                ZoneFault(
                    at_ns=5 * SEC,
                    zone_index=zones // 2,
                    kind=FaultKind.ZONE_READONLY,
                ),
            ),
        )

    scheme_args = dict(_fig2_scheme_args(cache_bytes, file_media, navy))
    rows: List[Dict[str, object]] = []
    for name in schemes:
        injector = make_injector()
        stack = build_scheme(
            name, SimClock(), scale, media, faults=injector, **scheme_args[name]
        )
        row = _run_mix(CacheBenchDriver(workload), stack)
        stats = stack.cache.stats
        row.update(
            {
                "degraded_misses": stats.degraded_misses,
                "io_errors": stats.io_errors,
                "latency_injected_ms": injector.stats.latency_injected_ns / 1e6,
                "zone_faults": injector.stats.zone_faults_applied,
            }
        )
        rows.append(row)
    return rows


def run_table2_cache_sizes(
    scale: Optional[SchemeScale] = None,
    cache_zone_counts: tuple = (4, 5, 6, 7, 8),
    num_keys: int = 80_000,
    num_reads: int = 8_000,
    warmup_reads: int = 16_000,
    exp_range: float = 25.0,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Table 2: Zone-Cache with growing cache size (the paper's 4–8 GiB,
    scaled to zones) — hit ratio and throughput climb together."""
    from repro.workloads.dbbench import DbBenchConfig, DbBenchDriver

    scale = scale or SchemeScale()
    rows: List[Dict[str, object]] = []
    for cache_zones in cache_zone_counts:
        config = DbBenchConfig(
            num_keys=num_keys,
            num_reads=num_reads,
            warmup_reads=warmup_reads,
            exp_range=exp_range,
            cache_zones=cache_zones,
            scheme="Zone-Cache",
            seed=seed,
        )
        result = DbBenchDriver(config, scale).run()
        rows.append(
            {
                "cache_zones": cache_zones,
                "cache_mib": cache_zones * scale.zone_size / MIB,
                "kops_per_sec": result.ops_per_sec / 1000,
                "hit_ratio_pct": result.cache_hit_ratio * 100,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Serving sweeps — named grids over repro.bench.scenario.Scenario
# --------------------------------------------------------------------------

# Column lists, in report order, projected by scenario_columns.
SERVE_COLUMNS = (
    "cluster_shed_rate", "cluster_util_max", "cluster_served",
    "cluster_waf_app_max", "cluster_waf_device_max",
)
GC_COLUMNS = (
    "offered_total_kops", "web_p99_us", "web_goodput_kops",
    "cluster_shed_rate", "waf_app_max", "waf_device_max", "gc_layer",
    "gc_victims", "gc_migrated_units", "gc_dropped_units", "gc_copied_bytes",
    "gc_triggers", "gc_stall_us_p99", "gc_cache_evictions",
)
TENANT_QOS_COLUMNS = (
    "offered_total_kops", "web_p99_us", "web_goodput_kops",
    "web_slo_attainment", "batch_p99_us", "batch_goodput_kops",
    "cluster_shed_rate",
)
GC_QOS_COLUMNS = TENANT_QOS_COLUMNS + (
    "rerouted_writes", "rerouted_web", "rerouted_batch", "gc_layer",
    "gc_victims", "gc_migrated_units", "gc_stall_us_p99",
    "gc_throttled_steps", "gc_pace_adjustments", "gc_pace_clamps",
    "gc_pace_units_end",
)
ZONE_COST_COLUMNS = TENANT_QOS_COLUMNS + (
    "gc_victims", "gc_migrated_units", "gc_copied_bytes", "gc_stall_us_p99",
    "zns_open_us", "zns_close_us", "zns_finish_us", "zns_reset_us",
    "zns_forced_close",
)
FAILOVER_COLUMNS = (
    ("num_shards", "offered_total_kops", "kill_at_ms", "outage_ms")
    + TENANT_QOS_COLUMNS[1:]
    + ("fleet_*",)
)
STORM_GC_COLUMNS = (
    "waf_app_max", "waf_device_max", "gc_copied_bytes", "gc_migrated_units",
    "gc_dropped_units",
)
INVALIDATION_COLUMNS = (
    "num_shards", "offered_total_kops", "bump_at_ms", "purge_bump_at_ms",
    "web_p99_us", "web_goodput_kops", "web_hit_ratio", "purge_p99_us",
    "purge_goodput_kops", "cluster_shed_rate",
) + STORM_GC_COLUMNS + ("gc_victims", "inval_*")
HINT_COLUMNS = (
    "gc_layer", "num_shards", "web_hit_ratio", "web_p99_us",
    "web_goodput_kops", "purge_p99_us", "cluster_shed_rate",
) + STORM_GC_COLUMNS + (
    "gc_hint_dropped_units", "gc_hint_drop_spans", "gc_victims",
)


def run_serving_sweep(
    scale: Optional[SchemeScale] = None,
    zones_per_shard: int = 10,
    cache_zones_per_shard: int = 8,
    file_zones_per_shard: int = 16,
    num_shards: int = 3,
    offered_kops: tuple = (40.0, 120.0, 360.0),
    requests_per_tenant: int = 4_000,
    num_keys: Optional[int] = None,
    max_queue_depth: int = 48,
    admission: str = "admit-all",
    schemes: tuple = SCHEME_NAMES,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Offered load vs p99 / shed rate for each scheme (EXPERIMENTS.md).

    For every scheme and offered load, a homogeneous ``num_shards``
    cluster serves two open-loop tenants (70% steady interactive + 30%
    bursty batch).  Below the saturation knee all schemes complete
    everything; past it the bounded queues shed instead of letting p99
    grow without bound — the shed-rate and p99 columns together locate
    each scheme's knee.  Rows are per (scheme, load, tenant) and are
    byte-identical for the same seed (the serving golden test).
    """
    from repro.cache.admission import AdmissionConfig

    admit = ()
    if admission != "admit-all":
        admit = (("admission", AdmissionConfig(policy=admission, seed=seed)),)
    base = Scenario(
        num_shards=num_shards, scale=scale, zones_per_shard=zones_per_shard,
        cache_zones_per_shard=cache_zones_per_shard,
        file_zones_per_shard=file_zones_per_shard, cache_overrides=admit,
        requests_per_tenant=requests_per_tenant, num_keys=num_keys,
        max_queue_depth=max_queue_depth, seed=seed,
    )
    rows: List[Dict[str, object]] = []
    for name in schemes:
        for load_kops in offered_kops:
            spec = replace(base, scheme=name, offered_kops=load_kops)
            run = run_scenario(spec)
            cols = scenario_columns(spec, run)
            fleet_cols = {col: cols[col] for col in SERVE_COLUMNS}
            for tenant_row in run.report.tenant_rows:
                rows.append({
                    "scheme": name,
                    "offered_total_kops": load_kops,
                    "num_shards": num_shards,
                    **tenant_row,
                    **fleet_cols,
                    "admission": admission,
                })
    return rows


def run_serving_smoke(seed: int = 7) -> List[Dict[str, object]]:
    """`repro serve --smoke`: a mixed two-shard cluster (Region-Cache +
    Zone-Cache on matched NAND), two tenants, ~2k requests — small
    enough for a CI step, still exercising routing, QoS and shedding."""
    from repro.serve import ShardSpec

    scale = _serving_scale()
    media = 12 * scale.zone_size
    fleet = (
        ShardSpec(
            "Region-Cache",
            media_bytes=media,
            cache_bytes=9 * scale.zone_size,
            cache_overrides=(("eviction_policy", "fifo"), ("reclaim_window", 32)),
        ),
        ShardSpec(
            "Zone-Cache",
            media_bytes=media,
            cache_overrides=ZONE_CACHE_OVERRIDES,
        ),
    )
    report = run_scenario(
        Scenario(
            fleet=fleet,
            scale=scale,
            offered_kops=120.0,
            requests_per_tenant=1_000,
            num_keys=1_500,
            max_queue_depth=24,
            seed=seed,
        )
    ).report
    shed_rate = report.shed_rate
    return [
        {"cluster": "region+zone", **row, "cluster_shed_rate": shed_rate}
        for row in report.tenant_rows
    ] + [{**row, "cluster": "region+zone"} for row in report.shard_rows]


# --------------------------------------------------------------------------
# GC ablation — victim policy × watermark × pacing on the reclaim engine
# --------------------------------------------------------------------------

def _gc_reclaim_overrides(
    name: str, policy: str, watermark_scale: int, pace: int, zones_per_shard: int
) -> tuple:
    """``cache_overrides`` entries carrying one sweep combo's reclaim config.

    Maps the abstract (policy, watermark_scale, pace) point onto each
    layer's own config type; ``pace == 0`` means "move the whole victim
    per trigger".  Zone-Cache has no reclamation and gets nothing.
    """
    from repro.f2fs.gc import CleanerConfig
    from repro.f2fs.gc import VictimPolicy as F2fsVictimPolicy
    from repro.flash.ftl import FtlConfig
    from repro.ztl.gc import GcConfig

    if name == "Region-Cache":
        base = max(2, zones_per_shard // 12)
        gc = GcConfig(
            min_empty_zones=base * watermark_scale,
            # High enough that each policy's pick is actually admitted
            # (a tight threshold funnels every policy through the
            # emergency least-valid fallback and erases the axis).
            victim_valid_threshold=0.90,
            policy=policy,
            pace_regions=pace if pace > 0 else 1 << 20,
        )
        return (("gc", gc),)
    if name == "File-Cache":
        cleaner = CleanerConfig(
            low_watermark=3 * watermark_scale,
            pace_blocks=pace if pace > 0 else 1 << 20,
            policy=F2fsVictimPolicy(policy),
            # Ablation policies (random, age_threshold) can nominate
            # near-full sections; defer those and fall back to
            # least-valid under emergency so the log heads never wedge.
            victim_valid_threshold=0.90,
            emergency_sections=2,
        )
        return (("cleaner", cleaner),)
    if name == "Block-Cache":
        ftl = FtlConfig(
            op_ratio=0.20,
            gc_low_watermark=4 * watermark_scale,
            gc_high_watermark=8 * watermark_scale,
            gc_policy=policy,
        )
        return (("ftl", ftl),)
    return ()


def run_gc_ablation(
    scale: Optional[SchemeScale] = None,
    zones_per_shard: int = 10,
    cache_zones_per_shard: int = 8,
    file_zones_per_shard: int = 16,
    num_shards: int = 1,
    policies: tuple = ("greedy", "cost_benefit", "age_threshold", "random"),
    watermark_scales: tuple = (1, 2),
    paces: tuple = (0, 8),
    offered_kops: float = 30.0,
    requests_per_tenant: int = 8_000,
    num_keys: Optional[int] = None,
    max_queue_depth: int = 48,
    schemes: tuple = SCHEME_NAMES,
    seed: int = 7,
    trace: bool = False,
) -> List[Dict[str, object]]:
    """GC ablation (`repro gc-sweep`): victim policy × trigger watermark ×
    copy pacing for every scheme, under the open-loop serving load.

    One row per (scheme, policy, watermark, pace) combo, joining the
    fleet's aggregated ``gc_*`` counters with the interactive tenant's
    p99 — the interference axis the paper argues about: how much
    device-side reclamation each scheme performs and what it costs the
    foreground.  Zone-Cache contributes a single "none" row (it has no
    reclamation to sweep) and Block-Cache skips the pace axis (its FTL
    drains synchronously inside the write path, so background pacing is
    a no-op there).  With ``trace`` on, every device command is captured
    and the ``reclaim_*`` columns attribute migrated bytes to spans.
    """
    base = Scenario(
        num_shards=num_shards, scale=scale, zones_per_shard=zones_per_shard,
        cache_zones_per_shard=cache_zones_per_shard,
        file_zones_per_shard=file_zones_per_shard, offered_kops=offered_kops,
        requests_per_tenant=requests_per_tenant, num_keys=num_keys,
        max_queue_depth=max_queue_depth, seed=seed, trace_devices=trace,
    )
    cells = []
    for name in schemes:
        if name == "Zone-Cache":
            combos = [("none", 0, 0)]
        elif name == "Block-Cache":
            combos = [(p, w, 0) for p in policies for w in watermark_scales]
        else:
            combos = [
                (p, w, pace)
                for p in policies
                for w in watermark_scales
                for pace in paces
            ]
        for policy, watermark_scale, pace in combos:
            labels = {
                "scheme": name,
                "gc_policy": policy,
                "watermark_scale": watermark_scale,
                "pace_units": pace,
            }
            overrides = _gc_reclaim_overrides(
                name, policy, watermark_scale, pace, zones_per_shard
            )
            cells.append(
                (labels, replace(base, scheme=name, reclaim_overrides=overrides))
            )
    columns = GC_COLUMNS
    if trace:
        columns += ("reclaim_spans", "reclaim_traced_bytes")
    return run_grid(cells, columns)


def run_gc_smoke(seed: int = 7) -> List[Dict[str, object]]:
    """`repro gc-sweep --smoke`: all four schemes × two policies, one
    shard, tracing on — small enough for a CI step, still proving the
    sweep grid runs end-to-end and migrated bytes carry reclaim spans."""
    return run_gc_ablation(
        policies=("greedy", "cost_benefit"),
        watermark_scales=(1,),
        paces=(8,),
        requests_per_tenant=6_000,
        seed=seed,
        trace=True,
    )


# --------------------------------------------------------------------------
# GC↔QoS co-scheduling — adaptive pacing × GC-aware routing
# --------------------------------------------------------------------------

def _gc_qos_overrides(name: str) -> tuple:
    """Reclaim configs with the ``urgent`` pressure band wired.

    GC-aware routing reroutes at the urgent band and adaptive pacing
    relaxes/clamps around it, so every scheme that reclaims gets an
    urgent watermark one container above its emergency floor.
    Zone-Cache has no reclamation and gets nothing — its pressure is
    always idle, which is itself the paper's point.
    """
    from repro.f2fs.gc import CleanerConfig
    from repro.f2fs.gc import VictimPolicy as F2fsVictimPolicy
    from repro.flash.ftl import FtlConfig
    from repro.ztl.gc import GcConfig

    if name in ("Region-Cache", "Z-Cache"):
        # The background band (urgent < free < min_empty) must be wide
        # enough that paced steps actually run there; with background and
        # urgent adjacent every GC step lands in the unbounded urgent
        # regime and pace_units never binds.
        gc = GcConfig(
            min_empty_zones=4,
            urgent_empty_zones=2,
            emergency_empty_zones=1,
            victim_valid_threshold=0.90,
            pace_regions=8,
        )
        if name == "Z-Cache":
            # Same watermarks as Region-Cache so the comparison isolates
            # the hot/cold separation, but victims are scored cold-first:
            # finish (and decay) cold zones instead of copying hot ones.
            gc = replace(gc, policy="cold_defer")
        return (("gc", gc),)
    if name == "File-Cache":
        cleaner = CleanerConfig(
            low_watermark=4,
            urgent_sections=2,
            emergency_sections=1,
            pace_blocks=16,
            policy=F2fsVictimPolicy.COST_BENEFIT,
            victim_valid_threshold=0.90,
        )
        return (("cleaner", cleaner),)
    if name == "Block-Cache":
        ftl = FtlConfig(
            op_ratio=0.20,
            gc_low_watermark=4,
            gc_high_watermark=8,
            gc_urgent_watermark=2,
        )
        return (("ftl", ftl),)
    return ()


def _adaptive_pacing(stall_slo_ms: float, adjust_interval_steps: int):
    from repro.reclaim import AdaptivePacingConfig

    return AdaptivePacingConfig(
        stall_slo_ns=int(stall_slo_ms * 1e6),
        interval_steps=adjust_interval_steps,
    )


def run_gc_qos_sweep(
    scale: Optional[SchemeScale] = None,
    zones_per_shard: int = 10,
    cache_zones_per_shard: int = 6,
    file_zones_per_shard: int = 16,
    num_shards: int = 2,
    offered_kops: tuple = (8.0, 12.0, 20.0),
    requests_per_tenant: int = 8_000,
    num_keys: Optional[int] = None,
    max_queue_depth: int = 48,
    schemes: tuple = SCHEME_NAMES,
    pacing_modes: tuple = ("static", "adaptive"),
    routing_modes: tuple = ("static", "gc_aware"),
    stall_slo_ms: float = 1.0,
    adjust_interval_steps: int = 16,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """GC↔QoS co-scheduling sweep (`repro gc-qos`): {static, adaptive}
    pacing × {static, gc_aware} routing per scheme, under the serving
    sweep's open-loop two-tenant load.

    Both levers respond to the same signal.  Adaptive pacing is an AIMD
    controller on each shard's reclaim pace, budgeted at half the
    interactive tenant's p99 SLO (device-side stall is only part of the
    end-to-end path).  GC-aware routing diverts writes around shards
    whose pacer sits in the urgent/emergency band.  One row per (scheme,
    pacing, routing, load) joins both tenants' QoS with the fleet's
    rerouting and reclaim telemetry, so the ablation reads directly:
    which half of the loop buys the p99/goodput at the overload knee.
    """
    from repro.serve import RoutingConfig

    adaptive = _adaptive_pacing(stall_slo_ms, adjust_interval_steps)
    base = Scenario(
        num_shards=num_shards, scale=scale, zones_per_shard=zones_per_shard,
        cache_zones_per_shard=cache_zones_per_shard,
        file_zones_per_shard=file_zones_per_shard,
        requests_per_tenant=requests_per_tenant, num_keys=num_keys,
        max_queue_depth=max_queue_depth, seed=seed,
    )
    cells = [
        (
            {"scheme": name, "pacing": pacing, "routing": routing},
            replace(
                base,
                scheme=name,
                reclaim_overrides=_gc_qos_overrides(name),
                routing=RoutingConfig(policy=routing),
                adaptive_pacing=adaptive if pacing == "adaptive" else None,
                offered_kops=load_kops,
            ),
        )
        for name in schemes
        for load_kops in offered_kops
        for pacing in pacing_modes
        for routing in routing_modes
    ]
    return run_grid(cells, GC_QOS_COLUMNS)


def run_gc_qos_smoke(seed: int = 7) -> List[Dict[str, object]]:
    """`repro gc-qos --smoke`: one ZNS scheme, two shards, all four
    pacing × routing combos at one load — small enough for a CI step,
    still driving the adaptive controller and the rerouting path."""
    return run_gc_qos_sweep(
        offered_kops=(12.0,),
        requests_per_tenant=4_000,
        schemes=("Region-Cache",),
        seed=seed,
    )


# --------------------------------------------------------------------------
# Zone-management cost ablation — {zero, measured} × {Region-Cache, Z-Cache}
# --------------------------------------------------------------------------

def run_zone_cost_ablation(
    scale: Optional[SchemeScale] = None,
    zones_per_shard: int = 10,
    cache_zones_per_shard: int = 6,
    num_shards: int = 2,
    offered_kops: tuple = (12.0,),
    requests_per_tenant: int = 8_000,
    num_keys: Optional[int] = None,
    max_queue_depth: int = 48,
    schemes: tuple = ("Region-Cache", "Z-Cache"),
    cost_presets: tuple = ("zero", "measured"),
    pacing: str = "adaptive",
    routing: str = "gc_aware",
    stall_slo_ms: float = 1.0,
    adjust_interval_steps: int = 16,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Zone-management cost ablation (`repro zone-cost`).

    The cost-model question the gc-qos sweep cannot answer: with zone
    commands free (the simulator's historical default) Region-Cache and
    Z-Cache reclaim at the same price, so hot/cold separation only moves
    copy traffic.  Once opens/closes/finishes/resets carry their
    measured service times (the "Hidden Cost of Zone Management" ZNS
    characterization), Z-Cache's cold-first reclaim — victims chosen so
    their survivors were *already* segregated into cold zones — copies
    less and therefore issues fewer of the newly-expensive commands per
    reclaimed zone.  One row per (scheme, cost preset, load) at the
    gc-qos knee; read web_p99_us down the preset column.
    """
    from repro.flash.zone import ZoneCostConfig
    from repro.serve import RoutingConfig

    presets: Dict[str, "ZoneCostConfig"] = {
        "zero": ZoneCostConfig(),
        "measured": ZoneCostConfig.measured(),
    }
    adaptive = _adaptive_pacing(stall_slo_ms, adjust_interval_steps)
    base = Scenario(
        num_shards=num_shards, scale=scale, zones_per_shard=zones_per_shard,
        cache_zones_per_shard=cache_zones_per_shard,
        routing=RoutingConfig(policy=routing),
        adaptive_pacing=adaptive if pacing == "adaptive" else None,
        requests_per_tenant=requests_per_tenant, num_keys=num_keys,
        max_queue_depth=max_queue_depth, seed=seed,
    )
    cells = [
        (
            {
                "scheme": name,
                "cost_preset": preset,
                "pacing": pacing,
                "routing": routing,
            },
            replace(
                base,
                scheme=name,
                cache_overrides=(("zone_costs", presets[preset]),),
                reclaim_overrides=_gc_qos_overrides(name),
                offered_kops=load_kops,
            ),
        )
        for name in schemes
        for preset in cost_presets
        for load_kops in offered_kops
    ]
    return run_grid(cells, ZONE_COST_COLUMNS)


def run_zone_cost_smoke(seed: int = 7) -> List[Dict[str, object]]:
    """`repro zone-cost --smoke`: both schemes × both cost presets at the
    knee with the gc-qos smoke's request stream — four rows, CI-sized,
    long enough that reclaim actually runs in every cell (shorter
    streams never reach the knee and the ablation reads as a no-op)."""
    return run_zone_cost_ablation(
        requests_per_tenant=4_000,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Failover sweep — kill shards mid-diurnal-load, measure survival per scheme
# --------------------------------------------------------------------------

def run_failover_sweep(
    scale: Optional[SchemeScale] = None,
    zones_per_shard: int = 10,
    cache_zones_per_shard: int = 6,
    num_shards: int = 8,
    offered_kops: float = 10.0,
    requests_per_tenant: int = 6_000,
    num_keys: Optional[int] = None,
    max_queue_depth: int = 128,
    schemes: tuple = ("Region-Cache", "Z-Cache"),
    replicas: tuple = (1, 2),
    kill_shard: int = 0,
    kill_at_frac: float = 0.35,
    outage_frac: float = 0.25,
    hint_limit: int = 8192,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Fleet failover sweep (`repro failover`): kill a shard mid-diurnal
    load and measure what replication buys, per scheme.

    For every (scheme, replication factor) cell, an ``num_shards``
    homogeneous cluster serves the two-tenant mix (web switched to
    diurnal arrivals so the kill lands on a live waveform), and a
    :class:`~repro.serve.FailoverPlan` power-cuts ``kill_shard`` at
    ``kill_at_frac`` of the run for ``outage_frac`` of the run.  With
    R=1 every request owned by the dead shard fails for the whole
    outage, and its cache restarts cold — availability drops and the
    hit ratio takes the whole recovery tail to climb back.  With R=2
    writes fan out to the ring successor, reads fall back (with
    read-repair), and a bounded hint journal replays the missed writes
    through the normal write path during RESYNCING — availability holds
    and the hit ratio recovers within a few percent by run end.

    One row per cell joins the tenants' QoS columns with the fleet
    telemetry (``fleet_*``: availability, failed counts, storm p99,
    per-phase hit ratios, recovery time, replication/handoff byte
    overhead — the bytes reconcile exactly with ``serve.replicate`` /
    ``serve.handoff`` tracer spans).

    The default queue depth is deeper than the serving/gc-qos sweeps'
    48: replication roughly doubles each shard's queue traffic, and
    Region-Cache's multi-millisecond seal+reclaim bursts then overrun a
    48-deep queue — the availability the replicas bought leaks back out
    as queue-full sheds.  At depth 128 the bursts queue instead of
    shedding, which is the point of the ablation: R=2 Region-Cache
    holds ≥99% availability but pays for it in web p99, while Z-Cache
    (lazy cold-first reclaim, no copy bursts) holds both.  (GC-aware
    routing stays off — it is incompatible with replica placement,
    which must follow the ring.)
    """
    from repro.serve import ReplicationConfig

    base = Scenario(
        num_shards=num_shards, scale=scale, zones_per_shard=zones_per_shard,
        cache_zones_per_shard=cache_zones_per_shard, offered_kops=offered_kops,
        requests_per_tenant=requests_per_tenant, num_keys=num_keys,
        max_queue_depth=max_queue_depth, web_arrival="diurnal", seed=seed,
        kill_shard=kill_shard, kill_at_frac=kill_at_frac,
        outage_frac=outage_frac,
    )
    cells = [
        (
            {"scheme": name, "replicas": r},
            replace(
                base,
                scheme=name,
                reclaim_overrides=_gc_qos_overrides(name),
                replication=ReplicationConfig(replicas=r, hint_limit=hint_limit),
            ),
        )
        for name in schemes
        for r in replicas
    ]
    return run_grid(cells, FAILOVER_COLUMNS)


def run_failover_smoke(seed: int = 7) -> List[Dict[str, object]]:
    """`repro failover --smoke`: one scheme, four shards, R∈{1,2}, one
    mid-run kill — two rows, CI-sized, still driving the whole failover
    path (fan-out, fallback reads, hinted handoff, crash recovery)."""
    return run_failover_sweep(
        num_shards=4,
        offered_kops=12.0,
        requests_per_tenant=1_500,
        schemes=("Region-Cache",),
        seed=seed,
    )


# --------------------------------------------------------------------------
# Invalidation storms — namespace bumps against the tenant lifecycle layer
# --------------------------------------------------------------------------

def _invalidation_gc_overrides(name: str) -> tuple:
    """Reclaim configs for the invalidation sweep.

    The ZTL schemes get dead-first victim selection and keep the
    paper's deferring 0.20 valid-data threshold: a namespace bump turns
    whole zones dead at once, dead-first takes them as zero-valid
    victims instantly, and zones still holding live survivors are left
    to keep decaying instead of being copied.  The FTL and the F2FS
    cleaner have no lifecycle integration — that asymmetry is the
    measurement: Block-/File-Cache copy dead-generation bytes their
    layers cannot see through.
    """
    from repro.ztl.gc import GcConfig

    if name in ("Region-Cache", "Z-Cache"):
        gc = GcConfig(
            min_empty_zones=3,
            urgent_empty_zones=2,
            emergency_empty_zones=1,
            victim_valid_threshold=0.20,
            pace_regions=8,
            dead_first=True,
        )
        if name == "Z-Cache":
            gc = replace(gc, policy="cold_defer")
        return (("gc", gc),)
    return _gc_qos_overrides(name)


def run_invalidation_sweep(
    scale: Optional[SchemeScale] = None,
    zones_per_shard: int = 10,
    cache_zones_per_shard: int = 5,
    file_zones_per_shard: int = 16,
    num_shards: int = 4,
    offered_kops: float = 12.0,
    requests_per_tenant: int = 12_000,
    num_keys: Optional[int] = None,
    max_queue_depth: int = 128,
    schemes: tuple = ALL_SCHEME_NAMES,
    bump_at_frac: float = 0.35,
    purge_bump_frac: float = 0.55,
    storm_duration_frac: float = 0.10,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Invalidation-storm sweep (`repro invalidate`): bump two tenants'
    namespaces mid-run and measure the aftermath per scheme.

    Every cell runs the same script on an ``num_shards`` homogeneous
    cluster with the tenant lifecycle layer fully armed (versioned
    keys, the liveness ledger, dead-first eviction, §3.4 GC drop
    hints): the web tenant's namespace is bumped at ``bump_at_frac`` of
    the run — its flash-crowd refill wave starts there too — and the
    purge tenant, mid delete-storm, is bumped at ``purge_bump_frac``.
    Each bump is O(1): generations advance, and every byte written
    under the old generation becomes dead liveness the storage layers
    must discover.

    What separates the schemes is *where* that discovery happens.
    Region-/Z-Cache see dead regions at the cache layer (dead-first
    eviction takes them as zero-valid victims) and at the ZTL (GC drops
    dead-generation regions via the migration hint instead of copying
    them), so their post-storm copied bytes stay near zero.  Block- and
    File-Cache have no lifecycle channel into their FTL/cleaner, which
    migrate dead-generation bytes like any other valid data — the WAF
    and ``gc_copied_bytes`` columns carry the separation.  Zone-Cache
    has no device-side reclaim at all; its dead bytes simply age out
    with zone eviction.

    One row per scheme joins the tenants' QoS columns with the
    ``inval_*`` family (post-bump hit ratio, post-bump p99, hit-ratio
    recovery slope, ledger dead bytes — which reconcile exactly with
    the per-shard liveness ledgers and the ``serve.invalidate`` event
    counts) and the ``gc_*`` copy counters.
    """
    from repro.cache.lifecycle import LifecycleConfig

    lifecycle = LifecycleConfig(
        versioning=True, dead_first_eviction=True, gc_hints=True
    )
    base = Scenario(
        num_shards=num_shards, scale=scale, zones_per_shard=zones_per_shard,
        cache_zones_per_shard=cache_zones_per_shard,
        file_zones_per_shard=file_zones_per_shard,
        block_cache_whole_media=True, offered_kops=offered_kops,
        requests_per_tenant=requests_per_tenant, num_keys=num_keys,
        max_queue_depth=max_queue_depth, seed=seed, bump_at_frac=bump_at_frac,
        purge_bump_frac=purge_bump_frac,
        storm_duration_frac=storm_duration_frac,
    )
    cells = [
        (
            {"scheme": name},
            replace(
                base,
                scheme=name,
                cache_overrides=(("lifecycle", lifecycle),),
                reclaim_overrides=_invalidation_gc_overrides(name),
            ),
        )
        for name in schemes
    ]
    return run_grid(cells, INVALIDATION_COLUMNS)


def run_invalidation_smoke(seed: int = 7) -> List[Dict[str, object]]:
    """`repro invalidate --smoke`: all five schemes, two shards, ~4k
    requests per tenant — five rows, CI-sized, still driving the whole
    lifecycle path (versioned keys, both bumps, dead-first eviction,
    GC drop hints, the ledger reconciliation)."""
    return run_invalidation_sweep(
        num_shards=2,
        offered_kops=12.0,
        requests_per_tenant=4_000,
        seed=seed,
    )


# --------------------------------------------------------------------------
# §3.4 hint-coverage ablation — hints {off, ztl-only, full} per scheme
# --------------------------------------------------------------------------

# The ablation grid: "off" disables the cache→GC hint channel entirely,
# "ztl" is the historical wiring (hints reach the zone translation layer
# only), "full" extends the same GcHints protocol to the F2FS cleaner
# and the FTL.  Zone-Cache is excluded: it has no reclamation layer, so
# hints have nothing to steer.
HINT_MODES = ("off", "ztl", "full")
HINT_SCHEMES = ("Block-Cache", "File-Cache", "Region-Cache", "Z-Cache")


def _hint_lifecycle(mode: str):
    """Lifecycle config for one hint-ablation mode (storm layer armed)."""
    from repro.cache.lifecycle import LifecycleConfig

    if mode not in HINT_MODES:
        raise ValueError(f"unknown hint mode {mode!r}; expected {HINT_MODES}")
    return LifecycleConfig(
        versioning=True,
        dead_first_eviction=True,
        gc_hints=(mode != "off"),
        hint_layers="all" if mode == "full" else "ztl",
    )


def run_hint_sweep(
    scale: Optional[SchemeScale] = None,
    zones_per_shard: int = 10,
    cache_zones_per_shard: int = 5,
    # Tighter than the invalidation sweep's 16: at 8 zones the F2FS
    # cleaner actually runs under the storm (free sections cross the
    # watermark), so the File-Cache ablation has cleaning to steer.
    file_zones_per_shard: int = 8,
    num_shards: int = 4,
    offered_kops: float = 12.0,
    requests_per_tenant: int = 12_000,
    num_keys: Optional[int] = None,
    max_queue_depth: int = 128,
    schemes: tuple = HINT_SCHEMES,
    modes: tuple = HINT_MODES,
    bump_at_frac: float = 0.35,
    purge_bump_frac: float = 0.55,
    storm_duration_frac: float = 0.10,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Hint-coverage ablation (`repro hint-sweep`): hints {off, ztl,
    full} × the four schemes with a reclamation layer, under the
    invalidation-storm load (`repro invalidate`'s script unchanged).

    Every cell runs the same two-tenant storm: the web tenant's
    namespace bump at ``bump_at_frac`` and the purge tenant's bump mid
    delete-storm turn whole regions dead at once, so each scheme's GC
    faces the same condemned bytes — what varies is whether its
    reclamation layer can *see* the condemnation.  With hints off, every
    layer migrates dead-generation bytes like live data.  With the
    historical ztl-only wiring, Region-/Z-Cache drop condemned regions
    at the ZTL while Block-/File-Cache keep copying blind.  With full
    coverage, the F2FS cleaner resolves victim blocks back to cache
    regions and drops condemned ones (NAT unmap + SIT invalidate, no
    data I/O), and the FTL discards a condemned region's pages ahead of
    copying them.

    Reconciliation: every hint drop emits one ``reclaim.<layer>``
    ``drop`` span, counted here via a tracer subscription (records are
    streamed, not captured).  ``gc_hint_dropped_units`` ==
    ``gc_hint_drop_spans`` cell by cell — asserted in
    ``tests/test_gc_hints.py``.
    """
    base = Scenario(
        num_shards=num_shards, scale=scale, zones_per_shard=zones_per_shard,
        cache_zones_per_shard=cache_zones_per_shard,
        file_zones_per_shard=file_zones_per_shard,
        block_cache_whole_media=True, offered_kops=offered_kops,
        requests_per_tenant=requests_per_tenant, num_keys=num_keys,
        max_queue_depth=max_queue_depth, seed=seed, bump_at_frac=bump_at_frac,
        purge_bump_frac=purge_bump_frac,
        storm_duration_frac=storm_duration_frac,
    )
    cells = [
        (
            {"scheme": name, "hints": mode},
            replace(
                base,
                scheme=name,
                cache_overrides=(("lifecycle", _hint_lifecycle(mode)),),
                reclaim_overrides=_invalidation_gc_overrides(name),
                count_drop_spans=mode != "off",
            ),
        )
        for name in schemes
        for mode in modes
    ]
    return run_grid(cells, HINT_COLUMNS)


def run_hint_smoke(seed: int = 7) -> List[Dict[str, object]]:
    """`repro hint-sweep --smoke`: the full {off, ztl, full} × four-
    scheme grid on two shards with ~3k requests per tenant — twelve
    rows, CI-sized, still exercising every hint path (ZTL drop, F2FS
    block-run drop, FTL discard-ahead) and the span reconciliation."""
    return run_hint_sweep(
        num_shards=2,
        offered_kops=12.0,
        requests_per_tenant=3_000,
        seed=seed,
    )
