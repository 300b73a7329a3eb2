"""Benchmark-local tests, at smoke size.

Run from the repo root with ``python3 -m pytest perfbench -q``.  They
check that the harness measures the program without changing it: its
cells are exactly the rows ``repro <exp>`` prints for the same config
and seed, tracing leaves the rows alone, equal seeds give equal
digests, and a failed output check fails the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from spans import SpanRecorder

harness.ensure_src_on_path()

# workload -> (repro CLI experiment, harness overrides giving its --smoke config)
SMOKE = {
    "serve_knee": ("gc-qos", {"schemes": ("Region-Cache",)}),
    "storm_hints": ("hint-sweep", {"requests_per_tenant": 3_000}),
    "failover_r2": (
        "failover",
        {"num_shards": 4, "offered_kops": 12.0, "requests_per_tenant": 1_500,
         "schemes": ("Region-Cache",)},
    ),
}
TINY_FIG2 = {"num_ops": 1_000, "num_keys": 2_000}


def _pass(workload, seed=7, overrides=None, traced=False):
    probe = harness.Probe(SpanRecorder() if traced else None)
    probe.install()
    try:
        result = harness.run_pass(workload, seed, probe, overrides)
    finally:
        probe.uninstall()
    return result, probe


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_cells_are_the_rows_repro_prints(workload):
    from repro.cli import _rows_for

    experiment, overrides = SMOKE[workload]
    result, _ = _pass(workload, overrides=overrides)
    assert harness.check_pass(workload, result) == []
    assert result.rows == _rows_for(experiment, smoke=True, quick=False)


def test_closed_loop_cells_are_the_rows_repro_prints():
    from repro.bench.experiments import run_fig2_overall

    result, _ = _pass("closed_fig2", overrides=TINY_FIG2)
    assert harness.check_pass("closed_fig2", result) == []
    assert result.rows == run_fig2_overall(seed=7, **TINY_FIG2)


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_tracing_leaves_rows_and_serving_loop_alone(workload):
    overrides = SMOKE[workload][1]
    plain, _ = _pass(workload, overrides=overrides)
    traced, probe = _pass(workload, overrides=overrides, traced=True)
    # check_pass includes "every cell took the workload's serving loop".
    assert harness.check_pass(workload, traced) == []
    assert harness.digests(traced) == harness.digests(plain)
    layers = harness.per_layer(traced, probe)
    attributed = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    assert attributed + layers["trace.unattributed_s"][0] == pytest.approx(
        traced.wall_s, rel=1e-9
    )
    assert layers["serve.self_s"][0] > 0 and layers["cache.calls"][0] > 0


def test_equal_seeds_equal_digests_other_seed_differs():
    overrides = SMOKE["serve_knee"][1]
    first, _ = _pass("serve_knee", seed=3, overrides=overrides)
    again, _ = _pass("serve_knee", seed=3, overrides=overrides)
    other, _ = _pass("serve_knee", seed=4, overrides=overrides)
    assert harness.digests(first) == harness.digests(again)
    assert harness.digests(other)["rows"] != harness.digests(first)["rows"]


def test_two_processes_at_one_seed_agree():
    here = Path(__file__).resolve().parent
    records = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(here / "harness.py"), "--workload",
             "failover_r2", "--seed", "3", "--single-pass"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        records.append(json.loads(done.stdout.splitlines()[-1]))
    first, second = records
    assert first["correct"] and second["correct"]
    assert first["digests"] == second["digests"]
    for name in harness.SIM_UNITS:
        assert first["end_to_end"][name] == second["end_to_end"][name]
    assert first["end_to_end"]["sim_p99_us"] == second["end_to_end"]["sim_p99_us"]


def test_failed_check_counts_the_cell_as_failed():
    result, _ = _pass("failover_r2", overrides=SMOKE["failover_r2"][1])
    cell = result.cells[0]
    cell["completed"] -= 1
    problems = harness.check_pass("failover_r2", result)
    assert any("op conservation" in p for p in problems)
    assert harness.failed_ops(result.cells) >= cell["ops"]


def test_hint_drop_reconciliation_is_checked():
    result, _ = _pass("storm_hints", overrides=SMOKE["storm_hints"][1])
    result.rows[-1] = dict(result.rows[-1], gc_hint_drop_spans=-1)
    assert any(
        "gc_hint_drop_spans" in p for p in harness.check_pass("storm_hints", result)
    )


def test_run_fails_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "failover_r2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
