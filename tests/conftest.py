"""Shared fixtures for the test suite: small device geometries that keep
tests fast while still exercising multi-block / multi-zone behaviour."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.flash import (
    BlockSsd,
    BlockSsdConfig,
    FtlConfig,
    NandGeometry,
    ZnsConfig,
    ZnsSsd,
)
from repro.sim import SimClock
from repro.units import KIB


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def small_geometry() -> NandGeometry:
    """64 blocks x 16 pages x 4 KiB = 4 MiB raw media."""
    return NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=64)


@pytest.fixture
def block_ssd(clock: SimClock, small_geometry: NandGeometry) -> BlockSsd:
    config = BlockSsdConfig(
        geometry=small_geometry,
        ftl=FtlConfig(op_ratio=0.25, gc_low_watermark=2, gc_high_watermark=4),
    )
    return BlockSsd(clock, config)


@pytest.fixture
def zns_ssd(clock: SimClock, small_geometry: NandGeometry) -> ZnsSsd:
    """16 zones of 4 NAND blocks (256 KiB) each."""
    config = ZnsConfig(
        geometry=small_geometry,
        zone_size=4 * small_geometry.block_size,
        max_open_zones=4,
        max_active_zones=6,
    )
    return ZnsSsd(clock, config)


def make_payload(length: int, tag: int) -> bytes:
    """Deterministic recognisable payload for read-back checks."""
    unit = bytes([tag % 256]) * 64
    reps = -(-length // len(unit))
    return (unit * reps)[:length]


GOLDENS = Path(__file__).resolve().parent / "goldens"


def assert_golden_rows(name: str, rows) -> None:
    """``rows`` must equal ``goldens/<name>.json`` exactly.

    A golden file is ``[list(row.items()) for row in rows]`` as JSON, so
    it pins row order, key order and every value (floats round-trip
    through their repr).  Regenerate one only for an intended physics
    change, with ``json.dump([list(r.items()) for r in rows], f)``.
    """
    want = json.loads((GOLDENS / f"{name}.json").read_text())
    got = json.loads(json.dumps([list(row.items()) for row in rows]))
    assert len(got) == len(want), f"{name}: {len(got)} rows, golden has {len(want)}"
    for index, (row, golden) in enumerate(zip(got, want)):
        assert row == golden, f"{name} row {index} differs from its golden"
