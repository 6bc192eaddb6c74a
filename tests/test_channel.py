from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entconc import fock
from entconc.channel import (
    CouplingParams,
    IndistinguishabilityModel,
    _coupling_ops,
    couple,
    couple_grid,
)
from entconc.errors import EntconcError, ZeroProbabilityError
from entconc.metrics import concurrence
from entconc.qmath import ATOL, DensityMatrix, kron
from entconc.states import mixed_env, singlet_standard
from helpers import random_psd

SQ3 = 1.0 / np.sqrt(3)
DISTINGUISHABLE = IndistinguishabilityModel(0.0)


def _marginals(T, p=1.0):
    ps = couple(
        singlet_standard(), mixed_env(), CouplingParams(T), IndistinguishabilityModel(p)
    )
    return (
        concurrence(ps.rho.ptrace((0, 1))).value,
        concurrence(ps.rho.ptrace((0, 2))).value,
        concurrence(ps.rho.ptrace((1, 2))).value,
        ps,
    )


class TestCouple:
    def test_transparent_channel(self):
        ps = couple(singlet_standard(), mixed_env(), CouplingParams(1.0))
        expected = kron(singlet_standard().mat, mixed_env().mat)
        assert np.abs(ps.rho.mat - expected).max() < 1e-12
        assert ps.success_prob == pytest.approx(1.0, abs=1e-12)

    def test_full_swap(self):
        c_ab, c_ae, _, _ = _marginals(0.0)
        assert c_ab < 1e-12
        assert c_ae == pytest.approx(1.0, abs=1e-12)

    def test_be_concurrence_peaks_at_half(self):
        peak = _marginals(0.5)[2]
        for T in (0.3, 0.45, 0.55, 0.7):
            assert _marginals(T)[2] < peak

    def test_invalid_transmittivity(self):
        with pytest.raises(EntconcError):
            CouplingParams(1.5)


class TestEntanglementThresholds:
    @pytest.mark.parametrize("T", [SQ3 + 0.02, 0.8, 0.95])
    def test_ab_entangled_above(self, T):
        assert _marginals(T)[0] > 1e-6

    @pytest.mark.parametrize("T", [0.45, 0.5, SQ3 - 0.02])
    def test_ab_separable_below(self, T):
        assert _marginals(T)[0] < 1e-10

    @pytest.mark.parametrize("T", [0.05, 0.3, 1 - SQ3 - 0.02])
    def test_ae_entangled_below(self, T):
        assert _marginals(T)[1] > 1e-6

    @pytest.mark.parametrize("T", [1 - SQ3 + 0.02, 0.5, 0.9])
    def test_ae_separable_above(self, T):
        assert _marginals(T)[1] < 1e-10


class TestChannelProperties:
    def test_output_is_valid_density_matrix(self):
        # DensityMatrix construction inside couple enforces the invariants.
        rng = np.random.default_rng(20)
        for T in rng.uniform(0, 1, 10):
            couple(singlet_standard(), mixed_env(), CouplingParams(float(T)))

    def test_ab_marginal_is_bell_diagonal(self):
        # A balanced Pauli mixture on B keeps the marginal diagonal in the
        # Bell basis.
        bell = np.array(
            [
                [0, 1, 1, 0],
                [0, 1, -1, 0],
                [1, 0, 0, 1],
                [1, 0, 0, -1],
            ],
            dtype=complex,
        ).T / np.sqrt(2)
        for T in (0.2, 0.45, 0.8):
            marg = couple(singlet_standard(), mixed_env(), CouplingParams(T)).rho.ptrace((0, 1))
            in_bell = bell.conj().T @ marg.mat @ bell
            off = in_bell - np.diag(np.diag(in_bell))
            assert np.abs(off).max() < 1e-12

    def test_swap_symmetry(self):
        # Marginals at T and R = 1-T are exchanged between A-B and A-E.
        for T in (0.1, 0.3, 0.45):
            c_ab, c_ae, c_be, ps = _marginals(T)
            c_ab2, c_ae2, c_be2, ps2 = _marginals(1.0 - T)
            assert c_ab == pytest.approx(c_ae2, abs=1e-10)
            assert c_ae == pytest.approx(c_ab2, abs=1e-10)
            assert c_be == pytest.approx(c_be2, abs=1e-10)
            # Spectra of the exchanged marginals agree as well.
            w1 = np.linalg.eigvalsh(ps.rho.ptrace((0, 1)).mat)
            w2 = np.linalg.eigvalsh(ps2.rho.ptrace((0, 2)).mat)
            assert np.abs(w1 - w2).max() < 1e-10

    def test_matches_fock_oracle(self):
        rng = np.random.default_rng(21)
        for T in rng.uniform(0, 1, 20):
            cf = couple(singlet_standard(), mixed_env(), CouplingParams(float(T)))
            orc = fock.oracle_couple(singlet_standard(), mixed_env(), float(T))
            assert np.abs(cf.rho.mat - orc.rho.mat).max() < 1e-10
            assert abs(cf.success_prob - orc.success_prob) < 1e-10


class TestMixedIndistinguishability:
    def test_p_one_reduces_to_couple(self):
        a = couple(singlet_standard(), mixed_env(), CouplingParams(0.37))
        b = couple(
            singlet_standard(), mixed_env(), CouplingParams(0.37), IndistinguishabilityModel(1.0)
        )
        assert np.abs(a.rho.mat - b.rho.mat).max() < 1e-12
        assert a.success_prob == pytest.approx(b.success_prob, abs=1e-12)

    def test_p_zero_transparent(self):
        ps = couple(
            singlet_standard(), mixed_env(), CouplingParams(1.0), IndistinguishabilityModel(0.0)
        )
        expected = kron(singlet_standard().mat, mixed_env().mat)
        assert np.abs(ps.rho.mat - expected).max() < 1e-12

    def test_invalid_p(self):
        with pytest.raises(EntconcError):
            IndistinguishabilityModel(1.2)

    def test_mixture_weights(self):
        params = CouplingParams(0.4)
        p = 0.85
        coh = couple(singlet_standard(), mixed_env(), params)
        dist = fock.oracle_couple(singlet_standard(), mixed_env(), 0.4, distinguishable=True)
        mixed = couple(
            singlet_standard(), mixed_env(), params, IndistinguishabilityModel(p)
        )
        expected_prob = p * coh.success_prob + (1 - p) * dist.success_prob
        assert mixed.success_prob == pytest.approx(expected_prob, abs=1e-12)
        expected = (
            p * coh.success_prob * coh.rho.mat + (1 - p) * dist.success_prob * dist.rho.mat
        ) / expected_prob
        assert np.abs(mixed.rho.mat - expected).max() < 1e-12

    def test_distinguishable_matches_fock_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            signal = DensityMatrix(random_psd(4, rng), (2, 2))
            env = DensityMatrix(random_psd(2, rng), (2,))
            T = float(rng.uniform(0, 1))
            cf = couple(signal, env, CouplingParams(T), DISTINGUISHABLE)
            orc = fock.oracle_couple(signal, env, T, distinguishable=True)
            assert np.abs(cf.rho.mat - orc.rho.mat).max() < 1e-12
            assert abs(cf.success_prob - orc.success_prob) < 1e-12

    def test_vanishing_coherent_branch_keeps_distinguishable_weight(self):
        # |HV> x |V> at T = 1/2: HOM bunching empties the interfering block,
        # so only the distinguishable branch (weight 1/2) survives, scaled by 1-p.
        signal, env = _input_pair(0, (1, 1))
        params = CouplingParams(0.5)
        with pytest.raises(ZeroProbabilityError):
            couple(signal, env, params)
        dist = couple(signal, env, params, DISTINGUISHABLE)
        mixed = couple(
            signal, env, params, IndistinguishabilityModel(0.5)
        )
        assert mixed.success_prob == pytest.approx(0.25, abs=1e-12)
        assert np.abs(mixed.rho.mat - dist.rho.mat).max() < 1e-12


def _oracle_unnorm(signal, env, T, distinguishable):
    """Unnormalized oracle branch w * rho, zero where the oracle finds no weight."""
    try:
        ps = fock.oracle_couple(signal, env, T, distinguishable=distinguishable)
    except ZeroProbabilityError:
        return np.zeros((8, 8), dtype=complex)
    return ps.success_prob * ps.rho.mat


def _input_pair(seed, basis):
    """Random full-rank signal/env states, or the product basis state
    |basis[0]> x |basis[1]> (signal index 0-3, env index 0-1)."""
    if basis is None:
        rng = np.random.default_rng(seed)
        return (
            DensityMatrix(random_psd(4, rng), (2, 2)),
            DensityMatrix(random_psd(2, rng), (2,)),
        )
    sig, env = np.zeros(4), np.zeros(2)
    sig[basis[0]], env[basis[1]] = 1.0, 1.0
    return DensityMatrix(np.diag(sig), (2, 2)), DensityMatrix(np.diag(env), (2,))


_UNIT = st.floats(min_value=0.0, max_value=1.0)
_BASIS = st.none() | st.tuples(st.integers(0, 3), st.integers(0, 1))


class TestMixedKernelProperty:
    @settings(max_examples=150, deadline=None)
    @given(T=_UNIT, p=_UNIT, seed=st.integers(0, 2**32 - 1), basis=_BASIS)
    @example(T=0.0, p=0.85, seed=1, basis=None)
    @example(T=0.5, p=0.85, seed=2, basis=None)
    @example(T=1.0, p=0.85, seed=3, basis=None)
    @example(T=float(SQ3), p=0.3, seed=4, basis=None)
    @example(T=float(1 - SQ3), p=0.3, seed=5, basis=None)
    @example(T=0.5, p=0.5, seed=0, basis=(1, 1))
    @example(T=0.5, p=1.0, seed=0, basis=(1, 1))
    def test_matches_oracle_mixture(self, T, p, seed, basis):
        signal, env = _input_pair(seed, basis)
        coh = _oracle_unnorm(signal, env, T, distinguishable=False)
        dist = _oracle_unnorm(signal, env, T, distinguishable=True)
        model = IndistinguishabilityModel(p)
        if p * np.trace(coh).real == 0.0 and (1 - p) * np.trace(dist).real == 0.0:
            with pytest.raises(ZeroProbabilityError):
                couple(signal, env, CouplingParams(T), model)
            return
        got = couple(signal, env, CouplingParams(T), model)
        expected = p * coh + (1 - p) * dist
        assert np.abs(got.success_prob * got.rho.mat - expected).max() < 1e-10
        assert abs(np.trace(got.rho.mat) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(got.rho.mat).min() > -1e-10


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _scalar_loop(signal, env, ts, model):
    """couple at each T, stopping at the first
    error: (results, (type, message) of the error or None)."""
    out = []
    for T in ts:
        try:
            out.append(couple(signal, env, CouplingParams(T), model))
        except EntconcError as exc:
            return out, (type(exc), str(exc))
    return out, None


# T vectors that mix the thresholds, T = 1/2 (where the interfering branch
# of a basis input can vanish) and the ends with arbitrary values.
_SPECIAL_T = st.sampled_from([0.0, 0.5, 1.0, float(SQ3), float(1 - SQ3)])
_T_VECTORS = st.lists(_SPECIAL_T | _UNIT, min_size=1, max_size=130)


class TestCoupleGrid:
    @settings(max_examples=60, deadline=None)
    @given(ts=_T_VECTORS, p=_UNIT, seed=st.integers(0, 2**32 - 1), basis=_BASIS)
    @example(ts=[0.0, 0.5, 1.0, float(SQ3), float(1 - SQ3)], p=0.85, seed=1, basis=None)
    @example(ts=[0.3, 0.5, 0.7], p=1.0, seed=0, basis=(0, 0))
    @example(ts=[0.5, 0.2], p=1.0, seed=0, basis=(3, 1))
    @example(ts=[float(t) for t in np.linspace(0.0, 1.0, 130)], p=0.0, seed=2, basis=None)
    def test_each_state_is_the_single_coupling(self, ts, p, seed, basis):
        signal, env = _input_pair(seed, basis)
        model = IndistinguishabilityModel(p)
        want, error = _scalar_loop(signal, env, ts, model)
        params = [CouplingParams(T) for T in ts]
        if error is not None:
            # The stack raises what the loop raised at its first bad T.
            with pytest.raises(error[0]) as info:
                couple_grid(signal, env, params, model)
            assert str(info.value) == error[1]
            return
        got = couple_grid(signal, env, params, model)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # Same arithmetic, so the same bits: matrix and weight.
            assert _same_bits(g.rho.mat, w.rho.mat)
            assert g.success_prob == w.success_prob
            assert g.rho.dims == (2, 2, 2)
            assert not g.rho.mat.flags.writeable
            assert abs(np.trace(g.rho.mat) - 1.0) < ATOL
            assert np.linalg.eigvalsh(g.rho.mat).min() >= -ATOL

    def test_empty_grid(self):
        model = IndistinguishabilityModel(0.5)
        assert couple_grid(singlet_standard(), mixed_env(), [], model) == []


class TestCouplingEntries:
    @settings(max_examples=200, deadline=None)
    @given(T=st.floats(0.25, 0.5, exclude_max=True))
    @example(T=0.49999999999999994)
    @example(T=0.4999999999999999)
    @example(T=0.25)
    def test_t_minus_r_is_correctly_rounded_below_half(self, T):
        # The T - R entry, and the signed zero 0 (T - R) beside it, carry the
        # double nearest the exact T - (1 - T); for T >= 1/4 it is exact.
        op = _coupling_ops([CouplingParams(T)])[0][0]
        exact = float(Fraction(T) - (1 - Fraction(T)))
        assert op[0, 0] == op[3, 3] == op[4, 4] == op[7, 7] == exact
        assert np.signbit(op[0, 4].real) == np.signbit(exact)
