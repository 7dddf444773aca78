"""Multi-channel Wiener filter tests."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearstream.beamform import CovarianceState, apply_weights
from hearstream.dsp import ContractViolationError
from hearstream.pipeline import beamform_frames


def rand_frames(t, bins, channels, seed):
    rng = np.random.default_rng(seed)
    shape = (t, bins, channels)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestUpdate:
    def test_one_step_hand_value(self):
        st = CovarianceState(1, 1)
        st.update(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]))
        assert st.phi_yy[0, 0, 0] == 0.5 + 0j
        assert st.phi_ys[0, 0] == 0.5 + 0j
        assert st.frames == 1

    def test_zero_frame_scales_by_alpha(self):
        st = CovarianceState(2, 2, alpha=0.5)
        y = rand_frames(1, 2, 2, seed=0)[0]
        st.update(y, np.array([1.0, 2.0 + 1j]))
        before_yy, before_ys = st.phi_yy.copy(), st.phi_ys.copy()
        st.update(np.zeros((2, 2), dtype=complex), np.zeros(2, dtype=complex))
        assert np.array_equal(st.phi_yy, 0.5 * before_yy)
        assert np.array_equal(st.phi_ys, 0.5 * before_ys)

    def test_matches_closed_form_after_1000_updates(self):
        bins, c, t = 4, 3, 1000
        ys = rand_frames(t, bins, c, seed=1)
        ss = rand_frames(t, bins, 1, seed=2)[:, :, 0]
        st = CovarianceState(bins, c, alpha=0.5)
        for k in range(t):
            st.update(ys[k], ss[k])
        # independent closed form: sum_tau alpha^(t-1-tau) (1-alpha) y y^H
        phi_yy = np.zeros((bins, c, c), dtype=np.complex128)
        phi_ys = np.zeros((bins, c), dtype=np.complex128)
        for tau in range(t):
            wgt = 0.5 ** (t - 1 - tau) * 0.5
            for f in range(bins):
                phi_yy[f] += wgt * np.outer(ys[tau, f], np.conj(ys[tau, f]))
                phi_ys[f] += wgt * ys[tau, f] * np.conj(ss[tau, f])
        ref = np.max(np.abs(phi_yy))
        assert np.max(np.abs(st.phi_yy - phi_yy)) <= 1e-6 * ref
        assert np.max(np.abs(st.phi_ys - phi_ys)) <= 1e-6 * np.max(np.abs(phi_ys))
        assert st.frames == t

    def test_hermitian_and_finite_after_updates(self):
        st = CovarianceState(5, 4)
        for k in range(64):
            st.update(rand_frames(1, 5, 4, seed=k)[0] * 10.0**(k % 5 - 2),
                      rand_frames(1, 5, 1, seed=1000 + k)[0, :, 0])
        asym = np.max(np.abs(st.phi_yy - np.conj(np.swapaxes(st.phi_yy, 1, 2))))
        assert asym <= 1e-6
        assert np.all(np.isfinite(st.phi_yy)) and np.all(np.isfinite(st.phi_ys))

    def test_loaded_covariance_psd(self):
        st = CovarianceState(5, 4)
        for k in range(32):
            st.update(rand_frames(1, 5, 4, seed=k)[0],
                      rand_frames(1, 5, 1, seed=99 + k)[0, :, 0])
        eigs = np.linalg.eigvalsh(st.loaded_covariance())
        assert eigs.min() >= -1e-8

    def test_nonfinite_rejected(self):
        st = CovarianceState(1, 2)
        bad = np.array([[np.inf + 0j, 0j]])
        with pytest.raises(ValueError):
            st.update(bad, np.zeros(1, dtype=complex))
        with pytest.raises(ValueError):
            st.update(np.zeros((1, 2), dtype=complex), np.array([np.nan + 0j]))

    def test_shape_mismatch_rejected(self):
        st = CovarianceState(2, 2)
        with pytest.raises(ValueError):
            st.update(np.zeros((2, 3), dtype=complex), np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            st.update(np.zeros((2, 2), dtype=complex), np.zeros(3, dtype=complex))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            CovarianceState(1, 1, alpha=1.0)
        with pytest.raises(ValueError):
            CovarianceState(1, 1, loading=-1e-4)
        with pytest.raises(ValueError):
            CovarianceState(0, 1)

    @settings(max_examples=200)
    @given(
        alpha=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-2, 2),
            st.booleans(),
            st.text(max_size=3),
            st.none(),
        ),
        loading=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-2, 10**400),
            st.booleans(),
            st.text(max_size=3),
            st.none(),
        ),
    )
    def test_settings_accepted_iff_finite_real_in_range(self, alpha, loading):
        # the one home of the filter's range rule also rejects NaN, +-inf,
        # bools, strings, None and ints beyond float range, naming the field
        def finite_real(v):
            return type(v) in (int, float) and abs(v) <= sys.float_info.max

        bad = set()
        if not (finite_real(alpha) and 0 <= alpha < 1):
            bad.add("alpha")
        if not (finite_real(loading) and loading >= 0):
            bad.add("loading")
        if not bad:
            state = CovarianceState(2, 2, alpha=alpha, loading=loading)
            assert (state.alpha, state.loading) == (float(alpha), float(loading))
        else:
            with pytest.raises(ValueError) as err:
                CovarianceState(2, 2, alpha=alpha, loading=loading)
            assert str(err.value).split()[0] in bad

    def test_negative_forgetting_factor_rejected(self):
        # alpha < 0 weighs the old statistics negatively: an indefinite covariance
        with pytest.raises(ValueError, match="forgetting factor"):
            CovarianceState(1, 1, alpha=-0.5)
        frames = np.ones((4, 3, 2), dtype=complex)
        with pytest.raises(ValueError, match="forgetting factor"):
            beamform_frames(frames, frames[:, :, 0], alpha=-0.5)


class TestSolve:
    def test_scalar_oracle_exact_without_loading(self):
        st = CovarianceState(1, 1, loading=0.0)
        st.update(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]))
        w = st.solve()
        assert w[0, 0] == 1.0 + 0j

    def test_scalar_oracle_with_default_loading(self):
        st = CovarianceState(1, 1)
        st.update(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]))
        # (0.5 + 1e-4 * 0.5) w = 0.5: loading perturbs by less than 0.1 %
        w = st.solve()
        assert abs(w[0, 0] - 1.0) < 1e-3
        assert abs(w[0, 0] - 1.0 / 1.0001) < 1e-12

    def test_all_zero_state_silence_safe(self):
        st = CovarianceState(3, 2)
        st.update(np.zeros((3, 2), dtype=complex), np.zeros(3, dtype=complex))
        w = st.solve()
        assert np.array_equal(w, np.zeros((3, 2)))
        assert list(st.silent_bins) == [0, 1, 2]

    def test_solve_before_update_rejected(self):
        with pytest.raises(ContractViolationError):
            CovarianceState(1, 1).solve()

    def test_partial_silence_flags_only_dead_bins(self):
        st = CovarianceState(2, 1)
        st.update(np.array([[1.0 + 0j], [0j]]), np.array([1.0 + 0j, 0j]))
        w = st.solve()
        assert list(st.silent_bins) == [1]
        assert w[1, 0] == 0j and w[0, 0] != 0j

    def test_selector_recovered_for_reference_channel_estimate(self):
        # stationary rank-1 mixing, s_hat == channel 0: output must equal it
        rng = np.random.default_rng(3)
        mix = np.array([1.0 + 0j, 0.5 + 0.2j])
        st = CovarianceState(1, 2)
        for _ in range(200):
            s = complex(rng.standard_normal(), rng.standard_normal())
            st.update((mix * s)[None, :], np.array([s]))
        w = st.solve()
        s = 1.3 - 0.7j
        out = apply_weights(w, (mix * s)[None, :])[0]
        assert abs(out - s) <= 1e-3 * abs(s)

    def test_rotation_forgotten_within_20_frames(self):
        # scene geometry flips channels; halving forgetting must re-converge
        rng = np.random.default_rng(7)
        st = CovarianceState(1, 2)
        for _ in range(50):
            s = complex(rng.standard_normal(), rng.standard_normal())
            st.update(np.array([[s, 0j]]), np.array([s]))
        for _ in range(20):
            s = complex(rng.standard_normal(), rng.standard_normal())
            st.update(np.array([[0j, s]]), np.array([s]))
        w = st.solve()
        # the live coordinate has converged; the dead one decays with the
        # alpha^t residual against the loading floor, so only bound it loosely
        assert abs(w[0, 1] - 1.0) <= 1e-3
        assert abs(w[0, 0]) <= 0.1
        s = 0.8 + 0.3j
        out = apply_weights(w, np.array([[0j, s]]))[0]
        assert abs(out - s) <= 1e-3 * abs(s)

    def test_full_rank_wiener_solution_matches_direct_inverse(self):
        bins, c = 3, 2
        st = CovarianceState(bins, c, loading=0.0)
        for k in range(300):
            st.update(rand_frames(1, bins, c, seed=k)[0],
                      rand_frames(1, bins, 1, seed=500 + k)[0, :, 0])
        w = st.solve()
        for f in range(bins):
            direct = np.linalg.inv(st.phi_yy[f]) @ st.phi_ys[f]
            assert np.max(np.abs(w[f] - direct)) <= 1e-10

    def test_singular_bin_falls_back_to_per_bin_solves(self):
        # without loading, one update with y = [1, 0] leaves bin 0's
        # covariance exactly singular while its trace is positive; bin 1
        # sees two independent frames and is full rank
        st = CovarianceState(2, 2, loading=0.0)
        st.update(np.array([[1, 0], [1, 1j]], dtype=complex), np.array([0.5, 1 - 1j]))
        st.update(np.array([[0, 0], [1, -1]], dtype=complex), np.array([0, 2j]))
        with pytest.raises(np.linalg.LinAlgError):  # so the batched solve is skipped
            np.linalg.solve(st.loaded_covariance(), st.phi_ys[:, :, None])
        w = st.solve()
        assert np.array_equal(w[0], np.zeros(2))
        assert list(st.silent_bins) == [0]
        assert np.array_equal(w[1], np.linalg.solve(st.phi_yy[1], st.phi_ys[1]))


class TestApply:
    def test_basis_vector_selects_channel(self):
        y = np.array([[1.0 + 2j, 3.0 - 1j]])
        w = np.array([[1.0 + 0j, 0j]])
        assert apply_weights(w, y)[0] == y[0, 0]

    def test_zero_weights_zero_output(self):
        y = rand_frames(1, 4, 3, seed=0)[0]
        assert np.array_equal(apply_weights(np.zeros_like(y), y), np.zeros(4))

    def test_matches_conjugate_dot_oracle(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        out = apply_weights(w, y)
        for f in range(6):
            ref = sum(np.conj(w[f, c]) * y[f, c] for c in range(3))
            assert abs(out[f] - ref) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_weights(np.zeros((2, 2), dtype=complex), np.zeros((2, 3), dtype=complex))


class TestStep:
    def test_update_then_apply_order(self):
        # step(y, s) must include the current frame in the statistics
        st = CovarianceState(1, 1, loading=0.0)
        out = st.step(np.array([[2.0 + 0j]]), np.array([1.0 + 0j]))
        # after update: Phi = 2, phi = 1, w = 0.5, output = 0.5 * 2 = 1
        assert out[0] == pytest.approx(1.0 + 0j, abs=1e-12)
        assert st.frames == 1

    def test_zero_mixture_zero_output(self):
        st = CovarianceState(4, 2)
        out = st.step(np.zeros((4, 2), dtype=complex), np.ones(4, dtype=complex))
        assert np.array_equal(out, np.zeros(4))
