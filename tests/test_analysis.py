"""Analysis harness: sweeps, scaling model, outlier studies, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    TABLE_II,
    banner,
    clark_evans_ratio,
    compare_outlier_coding,
    format_series,
    format_table,
    load_entry,
    lpt_makespan,
    outlier_map,
    q_sweep,
    rd_point,
    rd_sweep,
    simulated_speedups,
    time_breakdown,
)
from repro.compressors import SperrCompressor, SzLikeCompressor
from repro.datasets import lighthouse, spectral_field


@pytest.fixture(scope="module")
def field():
    return spectral_field((20, 20, 20), slope=3.0, seed=3)


class TestQSweep:
    def test_breakdown_consistency(self, field):
        pts = q_sweep(field, idx=14, q_factors=(1.0, 1.5, 2.5))
        for p in pts:
            assert p.max_err <= p.tolerance  # guarantee at every q
            assert p.coeff_bpp + p.outlier_bpp <= p.total_bpp  # header overhead
            assert 0 <= p.outlier_fraction < 1

    def test_outliers_grow_with_q(self, field):
        """Sec. III-C / Fig. 2: larger q -> lower SPECK quality -> more
        outliers and lower coefficient cost."""
        pts = q_sweep(field, idx=14, q_factors=(1.0, 2.0, 3.0))
        assert pts[0].n_outliers <= pts[1].n_outliers <= pts[2].n_outliers
        assert pts[0].coeff_bpp >= pts[1].coeff_bpp >= pts[2].coeff_bpp

    def test_psnr_decreases_with_q(self, field):
        """Fig. 3 bottom row: average error only gets worse with q."""
        pts = q_sweep(field, idx=14, q_factors=(1.0, 1.5, 2.0, 3.0))
        psnrs = [p.psnr_db for p in pts]
        assert all(a >= b - 0.2 for a, b in zip(psnrs, psnrs[1:]))


class TestRdSweep:
    def test_rd_point_fields(self, field):
        p = rd_point(SperrCompressor(), field, idx=10)
        assert p.satisfied
        assert p.bpp > 0 and np.isfinite(p.gain)
        assert p.max_err <= p.tolerance

    def test_sweep_monotone_bpp(self, field):
        pts = rd_sweep(SzLikeCompressor(), field, [6, 12, 18])
        assert len(pts) == 3
        assert pts[0].bpp < pts[1].bpp < pts[2].bpp
        assert pts[0].psnr_db < pts[1].psnr_db < pts[2].psnr_db


class TestTimeBreakdown:
    def test_stages_sum(self, field):
        rows = time_breakdown(field, [8, 16])
        assert len(rows) == 2
        for r in rows:
            assert r.total == pytest.approx(
                r.transform + r.speck + r.locate + r.outlier_code
            )
            # No stage reads negative, and SPECK, the dominant stage,
            # always takes measurable time.
            assert min(r.transform, r.locate, r.outlier_code) >= 0
            assert r.speck > 0


class TestScalingModel:
    def test_lpt_exact_cases(self):
        assert lpt_makespan([1.0, 1.0, 1.0, 1.0], 2) == pytest.approx(2.0)
        assert lpt_makespan([4.0, 1.0, 1.0], 2) == pytest.approx(4.0)
        assert lpt_makespan([1.0] * 8, 100) == pytest.approx(1.0)

    def test_speedup_bounded_by_chunk_count(self):
        times = [1.0] * 8
        s = simulated_speedups(times, overhead=0.0, workers=[1, 4, 8, 64])
        assert s[0] == pytest.approx(1.0)
        assert s[1] == pytest.approx(4.0)
        assert s[2] == pytest.approx(8.0)
        assert s[3] == pytest.approx(8.0)  # plateau at the chunk count

    def test_overhead_limits_speedup(self):
        s = simulated_speedups([1.0] * 16, overhead=1.0, workers=[16])
        assert s[0] < 16.0


class TestOutlierStudies:
    def test_outlier_map_and_randomness(self):
        img = lighthouse((96, 128))
        om = outlier_map(img, idx=9, q_factor=1.5)
        assert 0 < om.fraction < 0.5
        assert om.mask().sum() == om.positions.size
        ratio = clark_evans_ratio(om.positions, om.shape)
        assert 0.7 < ratio < 1.4  # near-CSR: no meaningful clustering

    def test_more_q_more_outliers(self):
        img = lighthouse((64, 96))
        frac = [outlier_map(img, 9, qf).fraction for qf in (1.3, 1.5, 1.7)]
        assert frac[0] <= frac[1] <= frac[2]

    def test_fig11_comparison(self, field):
        cmp_ = compare_outlier_coding(field, idx=14, abbrev="test")
        assert cmp_.n_outliers > 0
        assert 4.0 < cmp_.sperr_bits_per_outlier < 18.0
        assert cmp_.sz_bits_per_outlier > 0


class TestTableII:
    def test_covers_paper_grid(self):
        abbrevs = {e.abbrev for e in TABLE_II}
        for expected in ("CH4-20", "Visc-40", "QMC-20", "Nyx-20", "VX3-20"):
            assert expected in abbrevs
        assert len(TABLE_II) == 15

    def test_load_entry(self):
        data, tol = load_entry(TABLE_II[0], shape=(12, 12, 12))
        assert data.shape == (12, 12, 12)
        assert tol == pytest.approx((data.max() - data.min()) / 2**20)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bb", 2e-7]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "2e-07" in out or "2.000e-07" in out

    def test_format_series(self):
        s = format_series("sperr", [1, 2], [0.5, 0.25])
        assert s.startswith("sperr:")
        assert "(1, 0.5)" in s

    def test_banner(self):
        assert "Fig. 2" in banner("Fig. 2")
