"""Benchmark harness: run one workload of the repo's own experiment
functions, check its outputs and measure it.

``run.py`` starts this file as a child process, so each measured run
has its own interpreter: peak RSS and import cost stay per workload.
Run directly it prints one JSON record as its last stdout line::

    python3 perfbench/harness.py --workload serve_knee --seed 7 \
        --seconds 10 --trace 0

Nothing under ``src/`` knows about the benchmark.  The harness calls an
experiment function from :mod:`repro.bench.experiments` with the seed
it was given and watches it from outside, through wrappers it installs
at class or module level before any stack is built:

* always on, one call per cell or per construction: set-up timing
  (``build_scheme`` and ``CacheCluster`` construction, which covers
  F2FS mkfs and cached-stack deep copies), the closed-loop cell
  (``_run_mix``), the serving cell (``Server.run``) and which serving
  loop ran;
* untraced runs only: a timer that samples the interpreter's speed so
  host times can be calibrated (:class:`SpeedSampler`);
* with ``--trace 1`` only: a span around every public entry point of
  each layer (:data:`ENTRY_POINTS`), see :mod:`spans`.  Tracing never
  touches ``IoTracer``: an enabled tracer would move ``Server.run``
  from its fast loop to the legacy loop and time a different program.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"  # run records and span records
MIB = 1024 * 1024
# Set-up samples per multi-pass run; setup_s is their median.
SETUP_ROUNDS = 5


def ensure_src_on_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an experiment function and its config."""

    experiment: str  # function name in repro.bench.experiments
    kwargs: Dict[str, object]
    loop: Optional[str]  # Server loop every cell must take; None = closed loop
    # Sub-seeds per measured run (see sub_seed).  Simulated metrics and
    # peak RSS are taken over all of them, which keeps their seed-to-seed
    # spread small (README.md gives the measured spreads).
    seeds: int = 1


WORKLOADS: Dict[str, Workload] = {
    # Each config is the `repro <exp> --quick` one (README.md).
    "closed_fig2": Workload("run_fig2_overall", {"num_ops": 20_000}, None),
    "serve_knee": Workload(
        "run_gc_qos_sweep",
        {"offered_kops": (12.0,), "requests_per_tenant": 4_000},
        "_run_fast",
        seeds=4,
    ),
    "storm_hints": Workload(
        "run_hint_sweep",
        {"num_shards": 2, "requests_per_tenant": 6_000},
        "_run_legacy",
        seeds=4,
    ),
    "failover_r2": Workload(
        "run_failover_sweep",
        {"requests_per_tenant": 3_000},
        "_run_replicated",
        seeds=4,
    ),
}
SEED_STRIDE = 10_000


def sub_seed(seed: int, index: int) -> int:
    """Experiment seed of a run's ``index``-th sub-seed; index 0 is the
    run's own seed, so a one-pass run is exactly ``repro <exp>`` at it."""
    return seed + SEED_STRIDE * index


# (layer, module, class, public entry points) wrapped in a traced run.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("cache", "repro.cache.engine", "HybridCache",
     ("get", "set", "delete", "flush", "crash_recover", "invalidate_namespace")),
    ("ztl", "repro.ztl.layer", "RegionTranslationLayer",
     ("write_region", "read_region", "invalidate_region")),
    ("f2fs", "repro.f2fs.fs", "F2fs", ("pwrite", "pread", "checkpoint", "mkfs")),
    ("flash", "repro.flash.znsssd", "ZnsSsd",
     ("read", "read_many", "write", "write_many", "append",
      "reset_zone", "finish_zone", "open_zone", "close_zone")),
    ("flash", "repro.flash.blockssd", "BlockSsd",
     ("read", "write", "write_many", "discard")),
    ("reclaim", "repro.reclaim.engine", "ReclaimEngine",
     ("background_step", "collect", "drain_to_target")),
    ("sim", "repro.sim.io", "IoPipeline", ("submit", "submit_many")),
    ("serve", "repro.serve.server", "Server", ("run",)),
    ("workloads", "repro.workloads.cachebench", "CacheBenchDriver",
     ("apply_op", "apply_kind", "apply_kind_value", "fill_on_miss")),
)
# One request = one workload-driven op (or a bare cache op when no
# workload span encloses it); its spans share the request id.
REQUEST_LAYERS = ("workloads", "cache")
SERVING_LOOPS = ("_run_fast", "_run_legacy", "_run_replicated")


def _patch(owner, name: str, make: Callable[[Callable], Callable], undo: list) -> None:
    """Replace ``owner.name`` (class or module attribute) by
    ``make(original)``, keeping classmethods classmethods."""
    raw = vars(owner)[name]
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))
    undo.append((owner, name, raw))


def _devices(stack) -> list:
    return [
        d for d in (stack.substrate.get("device"), stack.substrate.get("meta"))
        if d is not None and hasattr(d, "pipeline")
    ]


def _waf_bytes(stacks) -> Tuple[float, float]:
    """``(bytes the caches asked to store, NAND bytes programmed)``.

    Each backend reports raw counters whose app level may count regions
    rather than bytes; the device level is in bytes, so the cache's
    share of the device's host writes is ``dev_host * app_host /
    app_total`` and ``nand / stored`` is the scheme's total WAF."""
    stored = nand = 0.0
    for stack in stacks:
        raw = stack.cache.store.waf_raw()
        if raw.app_total > 0:
            stored += raw.dev_host * raw.app_host / raw.app_total
        nand += raw.dev_total
    return stored, nand


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _calibration_chunk() -> int:
    """Fixed pure-Python work (dict updates), ~1 ms on the reference
    machine (2-core x86 VM, Python 3.11)."""
    table: Dict[int, int] = {}
    for i in range(5_000):
        table[i & 511] = table.get(i & 511, 0) + i
    return len(table)


class SpeedSampler:
    """Samples the interpreter's speed while a run is timed.

    On a shared host the same work can take 1.5x longer from one
    minute to the next.  Every :attr:`INTERVAL_S` a timer signal runs
    :func:`_calibration_chunk` and records how long it took; a timed
    segment is then scaled by ``mean chunk time / REFERENCE_CHUNK_S``
    over the samples around it, so host metrics read as seconds at the
    reference speed.  Chunk time spent inside a segment is subtracted
    from it (``spent``).  Signals run between bytecodes and touch no
    program state; the digest checks prove rows are unchanged.
    """

    REFERENCE_CHUNK_S = 1.0e-3
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0
        self._ticking = False

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # a late signal landed inside the previous tick
            return
        self._ticking = True
        start = perf_counter()
        _calibration_chunk()
        took = perf_counter() - start
        self.samples.append((start, took))
        self.spent += took
        self._ticking = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Mean chunk time over ``[start, end]`` widened by one sampling
        interval each side, relative to the reference chunk time."""
        pad = self.INTERVAL_S
        near = [t for at, t in self.samples if start - pad <= at <= end + pad]
        if not near:
            if not self.samples:
                return 1.0
            mid = (start + end) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return sum(near) / len(near) / self.REFERENCE_CHUNK_S


class _Stopwatch:
    """Elapsed host seconds, minus calibration time spent meanwhile."""

    def __init__(self, sampler: Optional[SpeedSampler]) -> None:
        self.sampler = sampler
        self.start = perf_counter()
        self._spent = sampler.spent if sampler is not None else 0.0

    def net(self) -> float:
        elapsed = perf_counter() - self.start
        if self.sampler is None:
            return elapsed
        return elapsed - (self.sampler.spent - self._spent)

    def slowdown(self) -> float:
        if self.sampler is None:
            return 1.0
        return self.sampler.slowdown(self.start, perf_counter())


@dataclass
class PassResult:
    wall_s: float  # host seconds, calibration time excluded
    setup_s: float
    rows: List[dict]
    cells: List[dict]
    builds: List[Callable[[], object]] = field(default_factory=list)
    slowdown: float = 1.0  # interpreter speed factor during the pass
    # Interactive latencies (ns) of every cell: closed-loop gets, or the
    # serving web tenant's arrival-to-completion latencies.  An array
    # copies the values, so the harness keeps none of the program's
    # int objects alive.
    interactive: array = field(default_factory=lambda: array("q"))


class Probe:
    """Installs the harness's wrappers and collects one record per cell."""

    def __init__(self, recorder=None, sampler: Optional[SpeedSampler] = None) -> None:
        self.recorder = recorder
        self.sampler = sampler
        self.cells: List[dict] = []
        self.interactive = array("q")
        self.setup_s = 0.0
        self.builds: List[Callable[[], object]] = []
        self._build_depth = 0
        self._loop: Optional[str] = None
        self._pre_reset: Dict[int, Dict[str, int]] = {}
        self._undo: list = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        from repro.bench import experiments
        from repro.serve.cluster import CacheCluster
        from repro.serve.server import Server

        rec = self.recorder
        if rec is not None:
            for layer, module, cls_name, methods in ENTRY_POINTS:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    _patch(
                        cls, method,
                        lambda fn, n=f"{layer}.{method}", r=layer in REQUEST_LAYERS:
                            rec.wrap(n, fn, starts_request=r),
                        self._undo,
                    )
            self._install_phases(experiments)
        _patch(experiments, "build_scheme", self._timed_build, self._undo)
        _patch(CacheCluster, "__init__", self._timed_build, self._undo)
        _patch(experiments, "_run_mix", self._closed_cell, self._undo)
        _patch(Server, "run", self._serving_cell, self._undo)
        for loop in SERVING_LOOPS:
            _patch(Server, loop, lambda fn, n=loop: self._loop_marker(n, fn), self._undo)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def _install_phases(self, experiments) -> None:
        """Workload phases as spans: ``populate`` around the closed-loop
        population pass, ``warmup`` then ``mix`` inside
        ``CacheBenchDriver.run`` (split where it resets the cache's
        stats), so ``cache.*`` spans hang under the phase they ran in."""
        from repro.cache.engine import HybridCache
        from repro.workloads.cachebench import CacheBenchDriver

        rec = self.recorder
        run = rec.name_id("workloads.run")
        warmup = rec.name_id("workloads.warmup")
        mix = rec.name_id("workloads.mix")
        phase: List[Optional[list]] = [None]
        pre_reset = self._pre_reset

        def span_run(fn):
            def traced(cachebench, cache):
                outer = rec.enter(run)
                phase[0] = rec.enter(warmup)
                try:
                    return fn(cachebench, cache)
                finally:
                    rec.exit(phase[0])
                    phase[0] = None
                    rec.exit(outer)
            return traced

        def split_phase(fn):
            def reset_stats(cache):
                stats = cache.stats
                seen = pre_reset.setdefault(id(cache), {
                    "flushes": 0, "ram_hits": 0, "ram_lookups": 0,
                    "flash_hits": 0, "lookups": 0,
                })
                seen["flushes"] += stats.flushes
                seen["ram_hits"] += stats.ram_lookups.hits
                seen["ram_lookups"] += stats.ram_lookups.total
                seen["flash_hits"] += stats.flash_lookups.hits
                seen["lookups"] += stats.lookups.total
                if phase[0] is not None and phase[0][1] == warmup:
                    rec.exit(phase[0])
                    phase[0] = rec.enter(mix)
                return fn(cache)
            return reset_stats

        undo = self._undo
        _patch(experiments, "_populate",
               lambda fn: rec.wrap("workloads.populate", fn), undo)
        _patch(CacheBenchDriver, "run", span_run, undo)
        _patch(HybridCache, "reset_stats", split_phase, undo)

    # --- wrappers -----------------------------------------------------------

    def _timed_build(self, fn):
        """Time the outermost construction call; keep a replay of it."""
        probe = self
        rec = self.recorder
        span = rec.name_id("bench.build") if rec is not None else None
        is_init = fn.__name__ == "__init__"

        def build(*args, **kwargs):
            if probe._build_depth:
                return fn(*args, **kwargs)
            saved = copy.deepcopy((args[1:] if is_init else args, kwargs))
            cls = type(args[0]) if is_init else None
            probe.builds.append(lambda: _replay(fn, cls, saved))
            probe._build_depth += 1
            frame = rec.enter(span) if rec is not None else None
            watch = _Stopwatch(probe.sampler)
            try:
                return fn(*args, **kwargs)
            finally:
                probe.setup_s += watch.net()
                if frame is not None:
                    rec.exit(frame)
                probe._build_depth -= 1

        return build

    def _loop_marker(self, name: str, fn):
        def loop(server):
            if self._loop is None:
                self._loop = name
            return fn(server)
        return loop

    def _closed_cell(self, fn):
        def run_mix(cachebench, stack, *args, **kwargs):
            row = fn(cachebench, stack, *args, **kwargs)
            self.cells.append(self._closed_record(cachebench, stack))
            return row
        return run_mix

    def _serving_cell(self, fn):
        def run(server):
            self._loop = None
            report = fn(server)
            self.cells.append(self._serving_record(server, report))
            return report
        return run

    # --- per-cell records -------------------------------------------------

    def _closed_record(self, cachebench, stack) -> dict:
        config = cachebench.config
        stats = stack.cache.stats
        self.interactive.extend(stats.get_latency._samples)
        misses = stats.lookups.total - stats.lookups.hits
        fills = misses if config.set_on_miss else 0
        stored, nand = _waf_bytes([stack])
        throughput = stats.throughput_ops() / 1000
        cell = {
            "scheme": stack.name,
            "loop": None,
            # populate (one set per key) + warmup + measured mix
            "ops": config.num_keys + config.warmup_ops + config.num_ops,
            "offered": config.num_ops,
            "completed": stats.lookups.total + stats.deletes + stats.sets - fills,
            "shed": 0,
            "failed": 0,
            "tenants_balanced": True,
            "p50_us": stats.get_latency.p50() / 1000,
            "p99_us": stats.get_latency.p99() / 1000,
            "hit_ratio": stats.hit_ratio,
            "sim_kops": throughput,
            # A closed loop has no latency objective: every completion counts.
            "goodput_kops": throughput,
            "stored_bytes": stored,
            "nand_bytes": nand,
        }
        if self.recorder is not None:
            cell["layers"] = self._layer_counters([stack], None)
        return cell

    def _serving_record(self, server, report) -> dict:
        tenants = server.tenants
        failed = sum(t.slo.failed_unavailable for t in tenants)
        web = next(t for t in tenants if t.config.name == "web").slo
        self.interactive.extend(web.latency._samples)
        gets = sum(t.slo.gets for t in tenants)
        hits = sum(t.slo.get_hits for t in tenants)
        sim_s = report.sim_seconds
        stacks = [shard.stack for shard in server.cluster.shards]
        stored, nand = _waf_bytes(stacks)
        cell = {
            "scheme": stacks[0].name,
            "loop": self._loop,
            "ops": report.offered,
            "offered": report.offered,
            "completed": report.completed,
            "shed": report.shed,
            "failed": failed,
            "tenants_balanced": all(
                t.slo.offered
                == t.slo.completed + t.slo.shed + t.slo.failed_unavailable
                for t in tenants
            ),
            "p50_us": web.latency.p50() / 1000,
            "p99_us": web.latency.p99() / 1000,
            "hit_ratio": hits / gets if gets else 0.0,
            "sim_kops": report.completed / sim_s / 1000 if sim_s > 0 else 0.0,
            "goodput_kops": (
                sum(t.slo.within_slo for t in tenants) / sim_s / 1000
                if sim_s > 0 else 0.0
            ),
            "stored_bytes": stored,
            "nand_bytes": nand,
        }
        if self.recorder is not None:
            cell["layers"] = self._layer_counters(stacks, server)
        return cell

    def _layer_counters(self, stacks, server) -> Dict[str, float]:
        """Per-layer work counters of one cell, read off the stacks."""
        c: Dict[str, float] = {}

        def add(key: str, value: float) -> None:
            c[key] = c.get(key, 0) + value

        def peak(key: str, value: float) -> None:
            c[key] = max(c.get(key, 0), value)

        payload = 0
        for stack in stacks:
            cache = stack.cache
            stats = cache.stats
            seen = self._pre_reset.pop(id(cache), {})
            add("cache.region_flushes", stats.flushes + seen.get("flushes", 0))
            add("cache.region_evictions", cache.regions.regions_evicted)
            add("cache.ram_hits", stats.ram_lookups.hits + seen.get("ram_hits", 0))
            add("cache.ram_lookups",
                stats.ram_lookups.total + seen.get("ram_lookups", 0))
            add("cache.flash_hits",
                stats.flash_lookups.hits + seen.get("flash_hits", 0))
            add("cache.lookups", stats.lookups.total + seen.get("lookups", 0))
            _, engine = stack.reclaim_engine()
            if engine is not None:
                rs = engine.stats
                add("reclaim.victims", rs.victims_reclaimed)
                add("reclaim.migrated_units", rs.units_migrated)
                add("reclaim.dropped_units", rs.units_dropped)
                add("reclaim.hint_dropped_units", rs.hint_dropped_units)
                add("reclaim.copied_bytes", rs.copied_bytes)
                add("reclaim.throttled_steps", engine.pacer.throttled_steps)
                peak("reclaim.stall_us_p99", rs.stall_us_p99)
            layer = stack.substrate.get("layer")
            if layer is not None:
                add("ztl.host_regions", layer.stats.host_region_writes)
                add("ztl.migrated_regions", layer.stats.migrated_region_writes)
            fs = stack.substrate.get("fs")
            if fs is not None:
                add("f2fs.cleaned_sections", fs.cleaner.sections_cleaned)
                add("f2fs.host_bytes", fs.stats.host_write_bytes)
                add("f2fs.written_bytes",
                    fs.stats.data_write_bytes + fs.stats.meta_write_bytes)
            for device in _devices(stack):
                add("flash.nand_written_bytes", device.stats.media_write_bytes)
                add("flash.dev_busy_ns", device.pipeline.pool.total_busy_ns)
                add("flash.dev_wait_ns", device.pipeline.pool.total_wait_ns)
                mgmt = getattr(device, "zone_mgmt", None)
                if mgmt is not None:
                    add("flash.zone_resets", mgmt.resets)
                    add("flash.zone_mgmt_ns", mgmt.total_ns)
                    add("flash.forced_closes", mgmt.forced_closes)
                # The simulated media image the device keeps in memory.
                pages = getattr(device, "_pages", {})
                payload += sum(len(page) for page in pages.values())
        peak("cache.payload_bytes", payload)
        if server is not None:
            shards = server.cluster.shards
            tenants = server.tenants
            add("serve.events", sum(t.slo.offered for t in tenants) + sum(
                s.served + s.repl_served + s.handoff_served for s in shards
            ))
            add("serve.queue_ns",
                sum(t.slo.latency.total_ns for t in tenants)
                - sum(s.busy_ns for s in shards))
            peak("serve.util_max", max(s.utilization() for s in shards))
            add("serve.rerouted", sum(s.rerouted_out for s in shards))
            add("serve.repl_writes", sum(s.repl_served for s in shards))
            add("serve.handoff_replays", sum(s.handoff_served for s in shards))
            fleet = server._fleet
            add("serve.fallback_reads", fleet.fallback_reads if fleet else 0)
        return c


def _replay(fn, cls, saved):
    args, kwargs = copy.deepcopy(saved)
    if cls is None:
        return fn(*args, **kwargs)
    obj = cls.__new__(cls)
    fn(obj, *args, **kwargs)
    return obj


# --------------------------------------------------------------------------
# Running passes
# --------------------------------------------------------------------------

def run_pass(
    name: str, seed: int, probe: Probe, overrides: Optional[dict] = None
) -> PassResult:
    """One call of the workload's experiment function, from a cold
    stack-template cache (as a fresh ``repro`` process would run it)."""
    from repro.bench import experiments
    from repro.bench.schemes import clear_stack_cache

    workload = WORKLOADS[name]
    kwargs = dict(workload.kwargs)
    kwargs.update(overrides or {})
    clear_stack_cache()
    gc.collect()
    probe.cells = []
    probe.interactive = array("q")
    probe.builds = []
    probe.setup_s = 0.0
    watch = _Stopwatch(probe.sampler)
    rows = getattr(experiments, workload.experiment)(seed=seed, **kwargs)
    wall = watch.net()
    return PassResult(
        wall, probe.setup_s, rows, probe.cells, probe.builds, watch.slowdown(),
        probe.interactive,
    )


def replay_setup(
    builds: List[Callable[[], object]], sampler: Optional[SpeedSampler] = None
) -> float:
    """Host seconds (at reference speed) to redo one pass's
    constructions, cold."""
    from repro.bench.schemes import clear_stack_cache

    clear_stack_cache()
    gc.collect()
    total = 0.0
    rounds = _Stopwatch(sampler)
    for build in builds:
        watch = _Stopwatch(sampler)
        built = build()
        total += watch.net()
        del built
    slowdown = rounds.slowdown()
    clear_stack_cache()
    return total / slowdown


def check_pass(name: str, result: PassResult) -> List[str]:
    """Output checks; marks each failing cell ``cell["bad"] = True``."""
    workload = WORKLOADS[name]
    problems: List[str] = []
    if len(result.rows) != len(result.cells):
        problems.append(
            f"{len(result.rows)} rows but {len(result.cells)} cells captured"
        )
    for index, cell in enumerate(result.cells):
        bad = []
        if cell["offered"] != cell["completed"] + cell["shed"] + cell["failed"]:
            bad.append(
                "fleet op conservation: offered {offered} != completed "
                "{completed} + shed {shed} + failed {failed}".format(**cell)
            )
        if not cell["tenants_balanced"]:
            bad.append("tenant op conservation")
        if not 0 < cell["p50_us"] <= cell["p99_us"]:
            bad.append(f"latency p50 {cell['p50_us']} / p99 {cell['p99_us']}")
        if not 0.0 <= cell["hit_ratio"] <= 1.0:
            bad.append(f"hit_ratio {cell['hit_ratio']} outside [0, 1]")
        if cell["stored_bytes"] > 0 and cell["nand_bytes"] < cell["stored_bytes"]:
            bad.append(
                f"waf {cell['nand_bytes'] / cell['stored_bytes']:.6f} < 1"
            )
        if cell["loop"] != workload.loop:
            bad.append(f"served by {cell['loop']}, expected {workload.loop}")
        if index < len(result.rows):
            row = result.rows[index]
            if "gc_hint_drop_spans" in row and (
                row["gc_hint_dropped_units"] != row["gc_hint_drop_spans"]
            ):
                bad.append(
                    f"gc_hint_dropped_units {row['gc_hint_dropped_units']} != "
                    f"gc_hint_drop_spans {row['gc_hint_drop_spans']}"
                )
        cell["bad"] = bool(bad)
        problems.extend(f"cell {index} ({cell['scheme']}): {b}" for b in bad)
    return problems


def digests(result: PassResult) -> Dict[str, object]:
    """Row digests per cell plus one over every cell's simulated record."""
    sim = [
        {k: v for k, v in cell.items() if k not in ("layers", "bad")}
        for cell in result.cells
    ]
    return {
        "cells": [_digest(row) for row in result.rows],
        "rows": _digest(result.rows),
        "sim": _digest(sim),
    }


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def failed_ops(cells: List[dict]) -> int:
    """Simulated failed requests, plus every op of a cell that failed a
    check."""
    return sum(c["ops"] if c.get("bad") else c["failed"] for c in cells)


SIM_UNITS = {
    "sim_p50_us": "sim_us",
    "hit_ratio": "ratio",
    "waf": "ratio",
    "sim_kops": "kops/sim_s",
    "goodput_kops": "kops/sim_s",
    "admitted_frac": "ratio",
    "ops_ok_frac": "ratio",
}


def simulated(cells: List[dict]) -> Dict[str, float]:
    """The simulated end-to-end metrics of one pass (one sub-seed)."""
    n = len(cells)

    def mean(key: str) -> float:
        return sum(c[key] for c in cells) / n

    stored = sum(c["stored_bytes"] for c in cells)
    return {
        # Geometric: each scheme's relative change weighs the same, and
        # the File-Cache cells of storm_hints (5-10x the others, moving
        # +-30% from seed to seed) do not set the figure alone.
        "sim_p50_us": statistics.geometric_mean(c["p50_us"] for c in cells),
        "hit_ratio": mean("hit_ratio"),
        "waf": sum(c["nand_bytes"] for c in cells) / stored if stored else 1.0,
        "sim_kops": mean("sim_kops"),
        "goodput_kops": mean("goodput_kops"),
        "admitted_frac": 1 - sum(c["shed"] for c in cells) / sum(
            c["offered"] for c in cells),
        "ops_ok_frac": 1 - failed_ops(cells) / sum(c["ops"] for c in cells),
    }


def end_to_end(
    passes: List[PassResult], seeds: int, setup_rounds: List[float],
    peak_rss_mib: float,
) -> Dict[str, Tuple[float, str]]:
    """Host metrics over every pass; each simulated metric is the median
    over the first ``seeds`` passes (one per sub-seed), which keeps one
    sub-seed that tips a scheme into congestion from deciding it."""
    rates = [
        sum(c["ops"] for c in p.cells) * p.slowdown / (p.wall_s - p.setup_s)
        for p in passes
    ]
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_rounds), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    per_seed = [simulated(p.cells) for p in passes[:seeds]]
    for key, unit in SIM_UNITS.items():
        metrics[key] = (statistics.median(m[key] for m in per_seed), unit)
    # The tail over every interactive request of every sub-seed's cells.
    # Per-cell p99s are bimodal at the serve_knee knee (File- and
    # Block-Cache cells tip into congestion on about one seed in five);
    # the pooled tail is set by the slowest schemes and stays put.
    pooled = sorted(t for p in passes[:seeds] for t in p.interactive)
    p99 = pooled[max(1, math.ceil(0.99 * len(pooled))) - 1] / 1000
    metrics["sim_p99_us"] = (p99, "sim_us")
    return metrics


def per_layer(result: PassResult, probe: Probe) -> Dict[str, Tuple[float, str]]:
    rec = probe.recorder
    layers = rec.by_layer()
    totals: Dict[str, float] = {}
    for cell in result.cells:
        for key, value in cell["layers"].items():
            if key in ("cache.payload_bytes", "reclaim.stall_us_p99",
                       "serve.util_max"):
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value

    def t(key: str) -> float:
        return totals.get(key, 0)

    def ratio(num: float, den: float, empty: float = 0.0) -> float:
        return num / den if den else empty

    out: Dict[str, Tuple[float, str]] = {
        "bench.build_s": (result.setup_s, "s"),
        "bench.builds": (len(result.builds), "count"),
    }
    for layer in ("bench", "workloads", "cache", "serve", "reclaim", "ztl",
                  "f2fs", "flash", "sim"):
        stats = layers.get(layer, {"calls": 0, "self_s": 0.0})
        if layer not in ("bench", "serve"):
            out[f"{layer}.calls"] = (stats["calls"], "count")
        out[f"{layer}.self_s"] = (stats["self_s"], "s")
    dropped, migrated = t("reclaim.dropped_units"), t("reclaim.migrated_units")
    out.update({
        "cache.region_flushes": (t("cache.region_flushes"), "count"),
        "cache.region_evictions": (t("cache.region_evictions"), "count"),
        "cache.ram_hit_ratio": (
            ratio(t("cache.ram_hits"), t("cache.ram_lookups")), "ratio"),
        "cache.flash_hit_ratio": (
            ratio(t("cache.flash_hits"), t("cache.lookups")), "ratio"),
        "cache.resident_payload_mib": (t("cache.payload_bytes") / MIB, "MiB"),
        "serve.events": (t("serve.events"), "count"),
        "serve.queue_ms": (t("serve.queue_ns") / 1e6, "sim_ms"),
        "serve.util_max": (t("serve.util_max"), "ratio"),
        "serve.rerouted": (t("serve.rerouted"), "count"),
        "serve.repl_writes": (t("serve.repl_writes"), "count"),
        "serve.handoff_replays": (t("serve.handoff_replays"), "count"),
        "serve.fallback_reads": (t("serve.fallback_reads"), "count"),
        "serve.recover_s": (rec.total_of("cache.crash_recover"), "s"),
        "reclaim.victims": (t("reclaim.victims"), "count"),
        "reclaim.migrated_units": (migrated, "count"),
        "reclaim.dropped_units": (dropped, "count"),
        "reclaim.hint_dropped_units": (t("reclaim.hint_dropped_units"), "count"),
        "reclaim.drop_frac": (ratio(dropped, dropped + migrated), "ratio"),
        "reclaim.copied_mib": (t("reclaim.copied_bytes") / MIB, "MiB"),
        "reclaim.stall_us_p99": (t("reclaim.stall_us_p99"), "sim_us"),
        "reclaim.throttled_steps": (t("reclaim.throttled_steps"), "count"),
        "ztl.app_waf": (ratio(
            t("ztl.host_regions") + t("ztl.migrated_regions"),
            t("ztl.host_regions"), 1.0), "ratio"),
        "f2fs.cleaned_sections": (t("f2fs.cleaned_sections"), "count"),
        "f2fs.waf": (ratio(t("f2fs.written_bytes"), t("f2fs.host_bytes"), 1.0),
                     "ratio"),
        "flash.nand_written_mib": (t("flash.nand_written_bytes") / MIB, "MiB"),
        "flash.dev_busy_ms": (t("flash.dev_busy_ns") / 1e6, "sim_ms"),
        "flash.dev_wait_ms": (t("flash.dev_wait_ns") / 1e6, "sim_ms"),
        "flash.zone_resets": (t("flash.zone_resets"), "count"),
        "flash.zone_mgmt_ms": (t("flash.zone_mgmt_ns") / 1e6, "sim_ms"),
        "flash.forced_closes": (t("flash.forced_closes"), "count"),
        "trace.wall_s": (result.wall_s, "s"),
        "trace.unattributed_s": (result.wall_s - rec.root_s, "s"),
    })
    out["sim.submits"] = out.pop("sim.calls")
    return out


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def measure(
    name: str, seed: int, seconds: float, trace: bool, single_pass: bool = False,
) -> dict:
    """Run one pass per sub-seed of the workload, then more passes
    (cycling through the sub-seeds) while another one is expected to end
    within ``seconds``, then redo the set-up until :data:`SETUP_ROUNDS`
    samples exist.  A traced or ``single_pass`` run makes one pass at
    ``seed``; a traced one writes its span records under :data:`OUT`.
    Returns the record ``run.py`` reads."""
    from spans import SpanRecorder

    # The traced pass is not calibrated: timer ticks would land inside
    # spans and inflate whichever layer they interrupt.
    sampler = None if trace else SpeedSampler()
    probe = Probe(SpanRecorder() if trace else None, sampler)
    probe.install()
    if sampler is not None:
        sampler.start()
    record: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    passes: List[PassResult] = []
    problems: List[str] = []
    single_pass = single_pass or trace
    seeds = 1 if single_pass else WORKLOADS[name].seeds
    started = last = perf_counter()
    peak_rss_mib = 0.0
    try:
        while True:
            if len(passes) >= seeds:
                now = perf_counter()
                # Go on only if a pass as long as the last one ends in time.
                if single_pass or (now - started) + (now - last) > seconds:
                    break
            last = perf_counter()
            result = run_pass(name, sub_seed(seed, len(passes) % seeds), probe)
            problems.extend(check_pass(name, result))
            passes.append(result)
            if len(passes) == seeds:
                # Freed memory stays mapped, so this is about the largest
                # single-sub-seed peak; repeat passes would only add
                # heap fragmentation.
                peak_rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception:  # noqa: BLE001 - the run is reported, not retried
        problems.append("experiment raised:\n" + traceback.format_exc())
        record.update(correct=False, problems=problems, attempted=1, failed=1)
        return record
    finally:
        probe.uninstall()
        if sampler is not None:
            sampler.stop()
    first = [digests(p) for p in passes[:seeds]]
    for index in range(seeds, len(passes)):
        if digests(passes[index]) != first[index % seeds]:
            problems.append(
                f"pass {index} rows differ from pass {index % seeds} "
                f"at seed {sub_seed(seed, index % seeds)}"
            )
    rounds = [p.setup_s / p.slowdown for p in passes]
    if sampler is not None:
        sampler.start()
    while not single_pass and len(rounds) < SETUP_ROUNDS:
        rounds.append(replay_setup(passes[0].builds, sampler))
    if sampler is not None:
        sampler.stop()
    cells = [cell for p in passes[:seeds] for cell in p.cells]
    record.update(
        correct=not problems,
        problems=problems,
        attempted=sum(c["ops"] for c in cells),
        failed=sum(c["ops"] for c in cells if c.get("bad")),
        seeds=[sub_seed(seed, index) for index in range(seeds)],
        digests=first,
        passes=[
            {"wall_s": p.wall_s, "setup_s": p.setup_s, "slowdown": p.slowdown,
             "cells": len(p.cells)}
            for p in passes
        ],
        setup_rounds=rounds,
        end_to_end=end_to_end(passes, seeds, rounds, peak_rss_mib),
        cells=[
            {k: cell[k] for k in ("scheme", "loop", "ops", "p50_us", "p99_us",
                                  "hit_ratio", "sim_kops")}
            for cell in cells
        ],
    )
    if trace:
        record["per_layer"] = per_layer(passes[0], probe)
        OUT.mkdir(exist_ok=True)
        probe.recorder.save(OUT / f"spans-{name}-seed{seed}.npz")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--single-pass", action="store_true",
                        help="one pass at --seed (the untraced side of --trace 1)")
    args = parser.parse_args(argv)
    ensure_src_on_path()
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.single_pass,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
