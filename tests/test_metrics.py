"""Tests for run statistics and breakdown extraction."""

import numpy as np
import pytest

from repro.constants import GIB
from repro.errors import AccountingError
from repro.metrics import Breakdown, RoundRecord, RunStats, breakdown_row


def record(P=4, compute=1.0, wait=0.5, dev=0.2, dur=2.0, **kw):
    defaults = dict(
        round_index=0, active_vertices=10, edges_processed=100,
        messages=3, comm_bytes=1e6,
        compute_times=np.full(P, compute),
        wait_times=np.full(P, wait),
        device_comm_times=np.full(P, dev),
        duration=dur,
    )
    defaults.update(kw)
    return RoundRecord(**defaults)


class TestRunStats:
    def test_accumulation(self):
        s = RunStats()
        s.accumulate_round(record())
        s.accumulate_round(record())
        assert s.rounds == 2
        assert s.execution_time == 4.0
        assert s.work_items == 200
        assert s.num_messages == 6

    def test_breakdown_is_residual(self):
        s = RunStats()
        s.accumulate_round(record())
        s.finalize_breakdown()
        assert s.max_compute == 1.0
        assert s.min_wait == 0.5
        assert s.device_comm == pytest.approx(2.0 - 1.0 - 0.5)

    def test_residual_clamped_non_negative(self):
        # float noise below zero (accumulation order) clamps to zero
        s = RunStats()
        s.accumulate_round(record(compute=1.0 + 1e-12, wait=0.0, dur=1.0))
        s.finalize_breakdown()
        assert s.device_comm == 0.0

    def test_impossible_breakdown_raises(self):
        # more compute than the run lasted is an accounting bug, not noise
        s = RunStats()
        s.accumulate_round(record(compute=5.0, dur=1.0))
        with pytest.raises(AccountingError, match="shorter than"):
            s.finalize_breakdown()

    def test_dynamic_balance(self):
        s = RunStats()
        s.accumulate_round(
            record(compute_times=np.array([1.0, 1.0, 1.0, 5.0]))
        )
        assert s.dynamic_balance == pytest.approx(5.0 / 2.0)

    def test_dynamic_balance_empty(self):
        assert RunStats().dynamic_balance == 1.0

    def test_memory_balance(self):
        s = RunStats(memory_max_bytes=4 * GIB, memory_mean_bytes=2 * GIB)
        assert s.memory_balance == 2.0
        assert s.memory_max_gb == 4.0

    def test_comm_volume_gb(self):
        s = RunStats(comm_volume_bytes=GIB)
        assert s.comm_volume_gb == 1.0

    def test_summary_string(self):
        s = RunStats(benchmark="bfs", dataset="x", policy="cvc",
                     variant="v", num_gpus=4)
        s.accumulate_round(record())
        s.finalize_breakdown()
        assert "bfs/x" in s.summary()
        assert "x4" in s.summary()


class TestBreakdown:
    def test_row_and_total(self):
        s = RunStats(benchmark="bfs")
        s.accumulate_round(record())
        s.finalize_breakdown()
        bar = breakdown_row("lbl", s)
        assert bar.label == "lbl"
        assert bar.total == pytest.approx(s.execution_time)
        assert bar.row()[0] == "lbl"

    def test_direct_construction(self):
        b = Breakdown("x", 1.0, 0.5, 0.25, 3.0)
        assert b.total == 1.75
        assert len(b.row()) == 6
