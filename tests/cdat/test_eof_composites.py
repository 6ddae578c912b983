"""EOF analysis and composite analysis."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cdat import composites
from repro.cdat.composites import composite_analysis
from repro.cdat.eof import eof_analysis
from repro.cdms.axis import latitude_axis, longitude_axis, time_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


def two_mode_field(n_time=40, nlat=12, nlon=16, seed=3):
    """A field built from two known orthogonal spatial modes + noise."""
    rng = np.random.default_rng(seed)
    lat = latitude_axis(np.linspace(-60, 60, nlat))
    lon = longitude_axis(np.linspace(0, 337.5, nlon))
    glat, glon = np.meshgrid(np.radians(lat.values), np.radians(lon.values),
                             indexing="ij")
    mode1 = np.cos(glon)  # zonal wave 1
    mode2 = np.sin(2 * glat)  # meridional dipole
    pc1 = 3.0 * np.sin(2 * np.pi * np.arange(n_time) / 10.0)
    pc2 = 1.0 * np.cos(2 * np.pi * np.arange(n_time) / 7.0)
    data = (
        pc1[:, None, None] * mode1[None]
        + pc2[:, None, None] * mode2[None]
        + 0.05 * rng.standard_normal((n_time, nlat, nlon))
    )
    t = time_axis(np.arange(n_time) * 30.0)
    return Variable(data, (t, lat, lon), id="field", units="K"), mode1, pc1


class TestEOF:
    def test_requires_time_axis(self):
        var = Variable(np.zeros((2, 2)),
                       (latitude_axis([0.0, 10.0]), longitude_axis([0.0, 10.0])))
        with pytest.raises(CDATError):
            eof_analysis(var)

    def test_leading_mode_recovers_pattern(self):
        var, mode1, pc1 = two_mode_field()
        result = eof_analysis(var, n_modes=2, weighted=False)
        eof1 = result.eofs[0].filled(0.0)
        # pattern correlation with the planted mode (up to scale)
        corr = np.corrcoef(eof1.reshape(-1), mode1.reshape(-1))[0, 1]
        assert abs(corr) > 0.99

    def test_pc_tracks_planted_time_series(self):
        var, _mode1, pc1 = two_mode_field()
        result = eof_analysis(var, n_modes=1, weighted=False)
        pc = np.asarray(result.pcs.data)[0]
        corr = np.corrcoef(pc, pc1)[0, 1]
        assert abs(corr) > 0.99

    def test_variance_fractions_ordered_and_bounded(self):
        var, _, _ = two_mode_field()
        result = eof_analysis(var, n_modes=3)
        vf = result.variance_fraction
        assert np.all(np.diff(vf) <= 1e-12)
        assert 0 < vf.sum() <= 1.0 + 1e-9
        # mode 1 dominates by construction (amplitude 3 vs 1)
        assert vf[0] > 0.7

    def test_sign_convention(self):
        var, _, _ = two_mode_field()
        result = eof_analysis(var, n_modes=2)
        for eof in result.eofs:
            values = eof.filled(0.0)
            peak = np.unravel_index(np.argmax(np.abs(values)), values.shape)
            assert values[peak] > 0

    def test_reconstruction_completeness(self):
        var, _, _ = two_mode_field()
        full = eof_analysis(var, n_modes=40, weighted=False)
        recon = full.reconstruct()
        anomaly = var.filled(0.0) - var.filled(0.0).mean(axis=0, keepdims=True)
        np.testing.assert_allclose(recon, anomaly, atol=1e-8)

    def test_masked_points_stay_masked(self):
        var, _, _ = two_mode_field()
        data = np.ma.MaskedArray(var.filled(0.0))
        data[:, 0, 0] = np.ma.masked
        masked_var = Variable(data, var.axes, id="m")
        result = eof_analysis(masked_var, n_modes=1)
        assert bool(np.ma.getmaskarray(result.eofs[0].data)[0, 0])

    def test_pcs_orthogonal(self):
        var, _, _ = two_mode_field()
        result = eof_analysis(var, n_modes=2, weighted=False)
        pcs = np.asarray(result.pcs.data)
        dot = float(pcs[0] @ pcs[1])
        norms = float(np.linalg.norm(pcs[0]) * np.linalg.norm(pcs[1]))
        assert abs(dot / norms) < 1e-8

    def test_eof_attributes(self):
        var, _, _ = two_mode_field()
        result = eof_analysis(var, n_modes=1)
        assert 0 < result.eofs[0].attributes["variance_fraction"] <= 1


class TestComposites:
    def test_recovers_planted_signal(self):
        var, mode1, pc1 = two_mode_field()
        t = var.get_time()
        index = Variable(pc1, (t,), id="index")
        result = composite_analysis(var, index)
        # high-minus-low composite of a field = pc1*mode1 (+small) is
        # proportional to mode1
        diff = result.difference.filled(0.0)
        corr = np.corrcoef(diff.reshape(-1), mode1.reshape(-1))[0, 1]
        assert corr > 0.99
        assert result.n_high >= 2 and result.n_low >= 2

    def test_significance_marks_signal_regions(self):
        var, mode1, pc1 = two_mode_field()
        index = Variable(pc1, (var.get_time(),), id="index")
        result = composite_analysis(var, index)
        p = result.p_value.filled(1.0)
        # nodes of mode1 (pattern ~ 0) should be less significant than antinodes
        strong = np.abs(mode1) > 0.8
        weak = np.abs(mode1) < 0.1
        assert np.median(p[strong]) < np.median(p[weak])

    def test_significant_difference_masks(self):
        var, _mode1, pc1 = two_mode_field()
        index = Variable(pc1, (var.get_time(),), id="index")
        result = composite_analysis(var, index)
        masked = result.significant_difference(alpha=0.05)
        assert 0.0 < masked.valid_fraction() < 1.0

    def test_time_length_mismatch(self):
        var, _m, pc1 = two_mode_field()
        short = Variable(pc1[:10], (time_axis(np.arange(10.0)),), id="idx")
        with pytest.raises(CDATError):
            composite_analysis(var, short)

    def test_bad_quantiles(self):
        var, _m, pc1 = two_mode_field()
        index = Variable(pc1, (var.get_time(),), id="idx")
        with pytest.raises(CDATError):
            composite_analysis(var, index, high_quantile=0.2, low_quantile=0.8)

    @staticmethod
    def _scipy_stats_t(monkeypatch):
        """Swap in the former p-value, ``2·stats.t.sf(|t|, df)``."""
        from scipy import stats

        # stdtr(df, x) is the t CDF at x, so stdtr(df, -|t|) is sf(|t|)
        monkeypatch.setattr(
            composites, "special", SimpleNamespace(stdtr=lambda df, x: stats.t.sf(-x, df))
        )

    @staticmethod
    def _bytes(masked):
        return np.asarray(masked.data).tobytes(), np.ma.getmaskarray(masked).tobytes()

    @pytest.mark.parametrize("index_of", ["planted_pc", "leading_eof_pc"])
    def test_p_value_bytes_equal_scipy_stats_formula(self, monkeypatch, index_of):
        var, _mode1, pc1 = two_mode_field()
        if index_of == "leading_eof_pc":
            pc1 = np.asarray(eof_analysis(var, n_modes=1).pcs.data)[0]
        index = Variable(pc1, (var.get_time(),), id="index")
        p_now = composite_analysis(var, index).p_value.data
        self._scipy_stats_t(monkeypatch)
        p_then = composite_analysis(var, index).p_value.data
        assert 0 < p_now.count() == p_now.size
        assert self._bytes(p_now) == self._bytes(p_then)

    def test_welch_degenerate_points_match_scipy_stats_and_mask(self, monkeypatch):
        # normal | n0 < 2 | zero variance | one phase constant | NaN mean |
        # NaN variance | masked mean | |t| huge
        m0 = np.ma.array([1.0, 1.0, 2.0, 1.5, np.nan, 1.0, 9.0, 1e6],
                         mask=[0, 0, 0, 0, 0, 0, 1, 0])
        m1 = np.ma.array([0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        v0 = np.array([1.0, 1.0, 0.0, 0.0, 1.0, np.nan, 1.0, 1.0])
        v1 = np.array([2.0, 2.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        n0 = np.array([5.0, 1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0])
        n1 = np.array([6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0])
        t_now, p_now = composites._welch_from_moments(m0, m1, v0, v1, n0, n1)
        self._scipy_stats_t(monkeypatch)
        t_then, p_then = composites._welch_from_moments(m0, m1, v0, v1, n0, n1)
        expected_mask = [False, True, True, False, True, True, True, False]
        assert list(np.ma.getmaskarray(p_now)) == expected_mask
        assert list(np.ma.getmaskarray(t_now)) == expected_mask
        assert self._bytes(p_now) == self._bytes(p_then)
        assert self._bytes(t_now) == self._bytes(t_then)
        assert p_now[7] < 1e-40 and 0.0 < p_now[0] < 1.0

    def test_two_sided_p_of_a_tabulated_t(self):
        # t = 2.1 on 7 degrees of freedom: p = 0.0739 in any t table
        from scipy import special

        assert 2.0 * special.stdtr(7.0, -2.1) == pytest.approx(0.07387, abs=1e-5)

    def test_eof_to_composite_pipeline(self):
        """The natural chain: EOF → leading PC → composite on it."""
        var, mode1, _pc1 = two_mode_field()
        eof = eof_analysis(var, n_modes=1)
        pc = Variable(np.asarray(eof.pcs.data)[0], (var.get_time(),), id="pc1")
        result = composite_analysis(var, pc)
        diff = result.difference.filled(0.0)
        corr = np.corrcoef(diff.reshape(-1), mode1.reshape(-1))[0, 1]
        assert abs(corr) > 0.98
