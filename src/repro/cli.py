"""Command-line interface: regenerate any of the paper's results.

Examples::

    python -m repro fig2                  # Figure 2 at default scale
    python -m repro table1 --quick        # faster, smaller run
    python -m repro fig5 --csv out.csv    # also dump rows as CSV
    python -m repro all                   # every table and figure
    python -m repro profile serve --smoke # cProfile a run, top-N by cumtime
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.bench import experiments
from repro.bench.reporting import format_table, rows_to_csv


class Experiment(NamedTuple):
    """One CLI experiment: its function, the kwargs ``--quick`` passes
    it, its CI-sized ``--smoke`` variant (if any) and its table title."""

    run: Callable[..., List[dict]]
    quick: Dict[str, object]
    smoke: Optional[Callable[[], List[dict]]]
    title: str


def _fig3_rows(**kwargs) -> List[dict]:
    """Figure 3's per-series fill times, flattened into rows."""
    series = experiments.run_fig3_insertion_time(**kwargs)
    return [
        {"series": label, **point}
        for label, points in series.items()
        for point in points
    ]


_DB_QUICK = {"num_keys": 40_000, "num_reads": 3_000, "warmup_reads": 6_000}

EXPERIMENTS: Dict[str, Experiment] = {
    "fig2": Experiment(
        experiments.run_fig2_overall, {"num_ops": 20_000}, None,
        "Figure 2: four schemes — throughput and hit ratio",
    ),
    "fig3": Experiment(
        _fig3_rows, {"num_sets": 40_000}, None,
        "Figure 3: region buffer fill times (large vs small regions)",
    ),
    "fig4": Experiment(
        experiments.run_fig4_op_sweep, {"num_ops": 20_000}, None,
        "Figure 4: OP-ratio sweep",
    ),
    "table1": Experiment(
        experiments.run_table1_waf, {"num_ops": 20_000}, None,
        "Table 1: WA factor vs OP ratio",
    ),
    "fig5": Experiment(
        experiments.run_fig5_rocksdb, _DB_QUICK, None,
        "Figure 5: RocksDB with each scheme as secondary cache",
    ),
    "table2": Experiment(
        experiments.run_table2_cache_sizes, _DB_QUICK, None,
        "Table 2: Zone-Cache cache-size sweep",
    ),
    "serve": Experiment(
        experiments.run_serving_sweep,
        {"offered_kops": (40.0, 240.0), "requests_per_tenant": 1_500},
        experiments.run_serving_smoke,
        "Serving sweep: offered load vs p99 and shed rate per scheme",
    ),
    "gc-sweep": Experiment(
        experiments.run_gc_ablation,
        {
            "policies": ("greedy", "cost_benefit"),
            "paces": (8,),
            "requests_per_tenant": 6_000,
        },
        experiments.run_gc_smoke,
        "GC ablation: victim policy x watermark x pacing per scheme",
    ),
    "gc-qos": Experiment(
        experiments.run_gc_qos_sweep,
        {"offered_kops": (12.0,), "requests_per_tenant": 4_000},
        experiments.run_gc_qos_smoke,
        "GC-QoS co-scheduling: adaptive pacing x GC-aware routing",
    ),
    "zone-cost": Experiment(
        experiments.run_zone_cost_ablation,
        {"requests_per_tenant": 4_000},
        experiments.run_zone_cost_smoke,
        "Zone-cost ablation: {zero, measured} costs x {Region, Z}-Cache",
    ),
    "failover": Experiment(
        experiments.run_failover_sweep,
        {"requests_per_tenant": 3_000},
        experiments.run_failover_smoke,
        "Failover sweep: kill a shard mid-diurnal load, R=1 vs R=2",
    ),
    "invalidate": Experiment(
        experiments.run_invalidation_sweep,
        {"num_shards": 2, "requests_per_tenant": 6_000},
        experiments.run_invalidation_smoke,
        "Invalidation storm: bump tenant namespaces mid-run, per scheme",
    ),
    "hint-sweep": Experiment(
        experiments.run_hint_sweep,
        {"num_shards": 2, "requests_per_tenant": 6_000},
        experiments.run_hint_smoke,
        "Hint ablation: cache->GC hints {off, ztl, full} per scheme",
    ),
}

SMOKE_HELP = "run the CI-sized variant instead (one exists for: {})".format(
    ", ".join(name for name, exp in EXPERIMENTS.items() if exp.smoke)
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Can ZNS SSDs be Better Storage "
            "Devices for Persistent Cache?' (HotStorage '24)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which paper result to regenerate",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller/faster run (coarser numbers)"
    )
    parser.add_argument(
        "--csv", metavar="PATH", help="also write result rows to a CSV file"
    )
    parser.add_argument(
        "--max-rows", type=int, default=40,
        help="max rows to print per experiment (fig3 emits thousands)",
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="also render an ASCII chart of each result's shape",
    )
    parser.add_argument("--smoke", action="store_true", help=SMOKE_HELP)
    return parser


def _plot_for(name: str, rows: List[dict]) -> str:
    from repro.bench.plots import line_plot, scheme_bars

    if name in ("fig2", "fig4"):
        return scheme_bars(
            rows, "throughput_mops_per_min", title="throughput (Mops/min)"
        )
    if name == "fig5":
        return scheme_bars(rows, "kops_per_sec", title="throughput (kops/s)")
    if name == "table2":
        return scheme_bars(
            rows, "hit_ratio_pct", label_key="cache_zones", title="hit ratio (%)"
        )
    if name == "table1":
        return scheme_bars(rows, "waf", title="WA factor")
    if name == "fig3":
        large = [r["fill_time_us"] for r in rows if r["series"] == "large_region"]
        return line_plot(large, title="large-region fill time (us) per sequence")
    if name == "serve":
        web = [
            {**r, "load": f"{r['scheme']}@{r['offered_total_kops']:g}k"}
            for r in rows
            if r.get("tenant") == "web" and "offered_total_kops" in r
        ]
        if not web:
            return ""
        return scheme_bars(
            web, "p99_us", label_key="load", title="web tenant p99 (us)"
        )
    if name == "gc-qos":
        labeled = [
            {**r, "combo": f"{r['scheme'][:6]}/{r['pacing'][:4]}+{r['routing']}"}
            for r in rows
        ]
        return scheme_bars(
            labeled, "web_p99_us", label_key="combo", title="web tenant p99 (us)"
        )
    if name == "zone-cost":
        labeled = [
            {**r, "combo": f"{r['scheme'][:6]}/{r['cost_preset']}"}
            for r in rows
        ]
        return scheme_bars(
            labeled, "web_p99_us", label_key="combo", title="web tenant p99 (us)"
        )
    if name == "failover":
        labeled = [
            {**r, "combo": f"{r['scheme'][:6]}/R{r['replicas']}"} for r in rows
        ]
        return scheme_bars(
            labeled,
            "fleet_availability",
            label_key="combo",
            title="availability under shard loss",
        )
    if name == "invalidate":
        return scheme_bars(
            rows, "gc_copied_bytes", title="post-storm GC copied bytes"
        )
    if name == "hint-sweep":
        labeled = [{**r, "combo": f"{r['scheme']}/{r['hints']}"} for r in rows]
        return scheme_bars(
            labeled,
            "gc_copied_bytes",
            label_key="combo",
            title="GC copied bytes by hint coverage",
        )
    if name == "gc-sweep":
        labeled = [
            {**r, "combo": f"{r['scheme']}/{r['gc_policy']}@w{r['watermark_scale']}"}
            for r in rows
        ]
        return scheme_bars(
            labeled, "gc_copied_bytes", label_key="combo", title="GC copied bytes"
        )
    return ""


def _rows_for(name: str, smoke: bool, quick: bool) -> List[dict]:
    """One experiment run, honoring the smoke variants where they exist."""
    experiment = EXPERIMENTS[name]
    if smoke and experiment.smoke is not None:
        return experiment.smoke()
    return experiment.run(**(experiment.quick if quick else {}))


def _run_profile(argv: List[str]) -> int:
    """``repro profile <experiment> [--smoke]``: cProfile one run.

    Perf work should start from data, not guesses — this prints the
    top-N functions by cumulative time for exactly the code path the
    named experiment runs.
    """
    import cProfile
    import pstats

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run one experiment under cProfile and print hot functions.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="which experiment to profile",
    )
    parser.add_argument("--smoke", action="store_true", help=SMOKE_HELP)
    parser.add_argument(
        "--quick", action="store_true", help="smaller/faster run"
    )
    parser.add_argument(
        "--top", type=int, default=25,
        help="how many functions to print (default 25)",
    )
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime"), default="cumulative",
        help="stat ordering (default cumulative)",
    )
    args = parser.parse_args(argv)
    profiler = cProfile.Profile()
    started = time.time()
    profiler.enable()
    rows = _rows_for(args.experiment, args.smoke, args.quick)
    profiler.disable()
    elapsed = time.time() - started
    print(
        f"profiled {args.experiment}"
        f"{' --smoke' if args.smoke else ''}: "
        f"{len(rows)} result rows in {elapsed:.2f}s wall clock\n"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    return 0


def run(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "profile":
        return _run_profile(argv[1:])
    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    all_rows: List[dict] = []
    for name in names:
        started = time.time()
        print(f"running {name} ...", flush=True)
        rows = _rows_for(name, args.smoke, args.quick)
        elapsed = time.time() - started
        shown = rows[: args.max_rows]
        print(format_table(shown, title=EXPERIMENTS[name].title))
        if len(rows) > len(shown):
            print(f"... ({len(rows) - len(shown)} more rows)")
        if args.plot:
            chart = _plot_for(name, rows)
            if chart:
                print()
                print(chart)
        print(f"({elapsed:.1f}s wall clock)\n")
        for row in rows:
            all_rows.append({"experiment": name, **row})
    if args.csv:
        columns = sorted({key for row in all_rows for key in row})
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(rows_to_csv(all_rows, columns=columns) + "\n")
        print(f"wrote {len(all_rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(run())
