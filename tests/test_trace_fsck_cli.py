"""Tests for the I/O trace module, the F2FS fsck, and the CLI."""

import random

import pytest

from repro.cli import build_parser, run
from repro.f2fs import CleanerConfig, F2fs, F2fsConfig, fsck
from repro.flash import (
    IoEvent,
    IoTrace,
    NandGeometry,
    NullBlkDevice,
    ZnsConfig,
    ZnsSsd,
)
from repro.sim import SimClock
from repro.units import KIB, MIB

PAGE = 4 * KIB


class TestIoTrace:
    @staticmethod
    def trace_of(*events):
        trace = IoTrace()
        for op, offset, length in events:
            trace.record(IoEvent(0, op, offset, length, 10))
        return trace

    def test_records_reads_and_writes(self):
        trace = self.trace_of(("write", 0, PAGE), ("read", 0, PAGE))
        assert len(trace) == 2
        assert [e.op for e in trace.events] == ["write", "read"]
        assert trace.by_op("read") == [IoEvent(0, "read", 0, PAGE, 10)]

    def test_bytes_by_op(self):
        trace = self.trace_of(
            ("write", 0, PAGE), ("write", PAGE, PAGE), ("read", 0, PAGE)
        )
        assert trace.bytes_by_op() == {"write": 2 * PAGE, "read": PAGE}

    def test_sequential_fraction(self):
        trace = self.trace_of(*(("write", i * PAGE, PAGE) for i in range(4)))
        assert trace.sequential_fraction("write") == 1.0
        trace.record(IoEvent(0, "write", 32 * PAGE, PAGE, 10))  # one jump
        assert trace.sequential_fraction("write") == pytest.approx(3 / 4)
        assert self.trace_of(("write", 0, PAGE)).sequential_fraction() == 1.0

    def test_csv_output(self):
        csv = self.trace_of(("write", 0, PAGE)).to_csv()
        assert csv.splitlines() == [
            "timestamp_ns,op,offset,length,latency_ns",
            f"0,write,0,{PAGE},10",
        ]

    def test_clear(self):
        trace = IoTrace()
        trace.record(IoEvent(0, "read", 0, 10, 5))
        trace.clear()
        assert len(trace) == 0


class TestFsck:
    def make_fs(self):
        clock = SimClock()
        geometry = NandGeometry(page_size=PAGE, pages_per_block=16, num_blocks=256)
        zns = ZnsSsd(clock, ZnsConfig(geometry=geometry, zone_size=8 * geometry.block_size))
        meta = NullBlkDevice(clock, capacity_bytes=8 * MIB)
        fs = F2fs(clock, zns, meta, F2fsConfig(checkpoint_interval_blocks=1 << 30),
                  CleanerConfig())
        fs.mkfs()
        return fs

    def populate(self, fs, blocks=600, seed=3):
        handle = fs.create("data")
        rng = random.Random(seed)
        for step in range(blocks):
            index = rng.randrange(blocks // 2)
            handle.pwrite(index * PAGE, bytes([step % 251 + 1]) * PAGE)
        return handle

    def test_clean_after_churn(self):
        fs = self.make_fs()
        self.populate(fs)
        report = fsck(fs)
        assert report.clean, report.errors
        assert report.checked_blocks > 0

    def test_clean_after_cleaning_and_remount(self):
        fs = self.make_fs()
        self.populate(fs, blocks=3000)
        assert fs.cleaner.sections_cleaned > 0
        assert fsck(fs).clean
        fs.checkpoint()
        remounted = F2fs.mount(SimClock(), fs.data_device, fs.meta_device,
                               F2fsConfig(checkpoint_interval_blocks=1 << 30))
        assert fsck(remounted).clean

    def test_detects_lost_block(self):
        fs = self.make_fs()
        self.populate(fs)
        # Corrupt: invalidate a mapped block behind the filesystem's back.
        file_id = fs.nat.lookup_file("data")
        addr = fs.nat.get_block(file_id, 0)
        fs.sit.mark_invalid(addr)
        report = fsck(fs)
        assert not report.clean

    def test_detects_owner_mismatch(self):
        fs = self.make_fs()
        self.populate(fs)
        file_id = fs.nat.lookup_file("data")
        addr = fs.nat.get_block(file_id, 0)
        fs.sit.mark_valid(addr, (file_id, 999_999))
        assert not fsck(fs).clean

    def test_detects_shared_block(self):
        fs = self.make_fs()
        self.populate(fs)
        file_id = fs.nat.lookup_file("data")
        addr = fs.nat.get_block(file_id, 0)
        other = fs.create("other")
        fs.nat.set_block(other.file_id, 0, addr)
        fs.nat.update_size(other.file_id, PAGE)
        assert not fsck(fs).clean


class TestCli:
    def test_parser_accepts_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig2", "--quick"])
        assert args.experiment == "fig2"
        assert args.quick

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    @pytest.mark.slow
    def test_cli_runs_fig3_quick(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = run(["fig3", "--quick", "--csv", str(csv_path), "--max-rows", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "experiment" in header
