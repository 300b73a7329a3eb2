"""Benchmark harness: builders for the four scheme stacks and one
experiment function per table/figure in the paper's evaluation.

Every experiment returns structured rows and can print them in the shape
the paper reports; the ``benchmarks/`` pytest-benchmark targets wrap
these functions one-to-one (see DESIGN.md's experiment index).
"""

from repro.bench.schemes import (
    SchemeScale,
    SchemeStack,
    build_block_cache,
    build_file_cache,
    build_region_cache,
    build_zone_cache,
    build_scheme,
    SCHEME_NAMES,
)
from repro.bench.experiments import (
    run_fig2_overall,
    run_fig3_insertion_time,
    run_fig4_op_sweep,
    run_table1_waf,
    run_fig5_rocksdb,
    run_serving_smoke,
    run_serving_sweep,
    run_table2_cache_sizes,
)
from repro.bench.reporting import format_table, rows_to_csv
from repro.bench.scenario import Scenario, run_scenario

__all__ = [
    "SchemeScale",
    "SchemeStack",
    "build_block_cache",
    "build_file_cache",
    "build_region_cache",
    "build_zone_cache",
    "build_scheme",
    "SCHEME_NAMES",
    "run_fig2_overall",
    "run_fig3_insertion_time",
    "run_fig4_op_sweep",
    "run_table1_waf",
    "run_fig5_rocksdb",
    "run_serving_smoke",
    "run_serving_sweep",
    "run_table2_cache_sizes",
    "format_table",
    "rows_to_csv",
    "Scenario",
    "run_scenario",
]
