"""
Map scoring and estimation-bound tests.

The RMSE/MAE identities here double as the oracles the acceptance gate
reuses: known two-pixel maps with closed-form aggregates, and the bound's
exact scaling in integration length and bandwidth.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmdepth import metrics
from mmdepth.metrics import ErrorReport, crlb_range, map_errors


def reference_errors(estimate, truth) -> ErrorReport:
    """map_errors from the whole map at once: gather the valid pixels, then each aggregate."""
    est = np.asarray(estimate, dtype=float)
    ref = np.asarray(truth, dtype=float)
    valid = np.isfinite(ref)
    err = est[valid] - ref[valid]
    return ErrorReport(
        rmse_m=float(np.sqrt(np.mean(err**2))),
        mae_m=float(np.mean(np.abs(err))),
        bias_m=float(np.mean(err)),
        n_valid=int(valid.sum()),
        n_total=int(ref.size),
    )


def scored_pair(rng, shape, bad_estimate=None):
    """A truth map with non-finite pixels and an estimate near it, optionally non-finite somewhere valid."""
    ref = rng.uniform(0.5, 10.0, size=shape)
    est = ref + rng.normal(scale=0.3, size=shape)
    if ref.size > 1:
        ref[rng.random(shape) < 0.2] = np.inf
        ref.flat[rng.choice(ref.size, 2, replace=False)] = [np.nan, -np.inf]
        est[~np.isfinite(ref) & (rng.random(shape) < 0.5)] = np.inf  # inf - inf where truth is excluded
    if bad_estimate is not None:
        est[np.isfinite(ref) & (rng.random(shape) < 0.05)] = bad_estimate
    return est, ref


class TestMapErrors:
    def test_identical_maps_score_zero(self):
        m = np.arange(12.0).reshape(3, 4)
        rep = map_errors(m, m)
        assert rep.rmse_m == 0.0 and rep.mae_m == 0.0 and rep.bias_m == 0.0
        assert rep.n_valid == 12 and rep.n_total == 12

    def test_two_pixel_closed_form(self):
        # errors {0, 2}: MAE = 1, RMSE = sqrt(2), bias = +1
        rep = map_errors(np.array([[1.0, 3.0]]), np.array([[1.0, 1.0]]))
        assert rep.mae_m == pytest.approx(1.0, rel=1e-15)
        assert rep.rmse_m == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert rep.bias_m == pytest.approx(1.0, rel=1e-15)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            est = rng.normal(size=(5, 5))
            ref = rng.normal(size=(5, 5))
            rep = map_errors(est, ref)
            assert rep.rmse_m >= rep.mae_m - 1e-15

    def test_non_finite_truth_pixels_excluded(self):
        ref = np.array([[1.0, np.inf], [np.nan, 4.0]])
        est = np.array([[2.0, 99.0], [99.0, 4.0]])
        rep = map_errors(est, ref)
        assert rep.n_valid == 2 and rep.n_total == 4
        assert rep.mae_m == pytest.approx(0.5, rel=1e-15)

    def test_non_finite_estimate_propagates(self):
        ref = np.ones((2, 2))
        est = np.ones((2, 2))
        est[0, 0] = np.nan
        rep = map_errors(est, ref)
        assert np.isnan(rep.mae_m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            map_errors(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_all_invalid_truth_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            map_errors(np.zeros((2, 2)), np.full((2, 2), np.inf))

    @pytest.mark.parametrize("bad_estimate", [None, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("block", [1, 7, metrics._ROWS])
    @pytest.mark.parametrize("rows", [1, 37, 65, 720])
    def test_block_size_does_not_change_the_report(self, monkeypatch, bad_estimate, block, rows):
        monkeypatch.setattr(metrics, "_ROWS", block)
        est, ref = scored_pair(np.random.default_rng(rows), (rows, 23), bad_estimate)
        assert repr(map_errors(est, ref)) == repr(reference_errors(est, ref))

    @pytest.mark.parametrize("shape", [(), (1,), (40,), (3, 4, 5), (2, 1, 3, 9)])
    def test_any_shape_is_scored(self, shape):
        est, ref = scored_pair(np.random.default_rng(len(shape)), shape)
        rep = map_errors(est, ref)
        assert repr(rep) == repr(reference_errors(est, ref))
        assert rep.n_total == ref.size and rep.n_valid == np.isfinite(ref).sum() > 0
        # Scalars and lists are maps too.
        assert repr(map_errors(est.tolist(), ref.tolist())) == repr(rep)

    def test_scores_a_display_pair_with_one_error_array(self):
        # Gathering est[valid], ref[valid] and their difference at once held
        # three K-pixel arrays, 12.1 MiB for this 720 x 1280 pair.
        est, ref = scored_pair(np.random.default_rng(0), (720, 1280))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = map_errors(est, ref)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert repr(rep) == repr(reference_errors(est, ref))

    @settings(derandomize=True, max_examples=50)
    @given(
        st.lists(st.floats(-50, 50), min_size=4, max_size=4),
        st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    )
    def test_aggregate_order_invariant(self, est_vals, ref_vals):
        est = np.array(est_vals).reshape(2, 2)
        ref = np.array(ref_vals).reshape(2, 2)
        rep = map_errors(est, ref)
        assert rep.rmse_m >= rep.mae_m - 1e-12
        assert rep.mae_m >= abs(rep.bias_m) - 1e-12


class TestCrlbRange:
    FROZEN = 2.565249544986531e-07  # snr=1, n_int=3328, B=2 GHz, in m^2

    def test_frozen_reference_value(self):
        assert crlb_range(1.0, 3328, 2e9) == pytest.approx(self.FROZEN, rel=1e-12)

    def test_halves_when_integration_doubles(self):
        a = crlb_range(1.0, 1664, 2e9)
        b = crlb_range(1.0, 3328, 2e9)
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_quarters_when_bandwidth_doubles(self):
        a = crlb_range(1.0, 3328, 1e9)
        b = crlb_range(1.0, 3328, 2e9)
        assert b == pytest.approx(a / 4.0, rel=1e-12)

    def test_inversely_proportional_to_snr(self):
        a = crlb_range(0.5, 3328, 2e9)
        b = crlb_range(2.0, 3328, 2e9)
        assert a == pytest.approx(4.0 * b, rel=1e-12)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            crlb_range(0.0, 3328, 2e9)
        with pytest.raises(ValueError):
            crlb_range(1.0, 0, 2e9)
        with pytest.raises(ValueError):
            crlb_range(1.0, 3328, -1.0)


def test_error_report_is_immutable():
    rep = ErrorReport(rmse_m=1.0, mae_m=1.0, bias_m=0.0, n_valid=1, n_total=1)
    with pytest.raises(AttributeError):
        rep.rmse_m = 2.0
