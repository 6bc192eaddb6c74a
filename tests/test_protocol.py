import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entconc import qmath
from entconc.cascade import CascadeParams, coefficients
from entconc.channel import CouplingParams, IndistinguishabilityModel, PostSelectedState, couple
from entconc.errors import (
    DimensionError,
    EntconcError,
    NotPSDError,
    ZeroProbabilityError,
)
from entconc.metrics import concurrence, fidelity
from entconc.protocol import (
    apply_filter,
    apply_filter_stack,
    c3_closed_form,
    couple_measure_grid,
    epsilon_filter,
    filtration,
    measure_env,
    outcome_probabilities,
    p3_closed_form,
    raw_attenuations,
    rebalance_branch,
    rebalance_filter,
    run_protocol,
    sigma3_closed_form,
)
from entconc.qmath import DensityMatrix, kron, normalize, partial_trace, ptrace_stack
from entconc.states import SINGLET_STANDARD, mixed_env, singlet_standard
from helpers import KET_H, KET_V, feed_forward, is_x_form, random_psd, sigma2, stepwise_coupling


def _post_measurement(T, result="H"):
    ps = couple(singlet_standard(), mixed_env(), CouplingParams(T))
    return measure_env(ps, result)


class TestMeasureEnv:
    def test_sigma2_entries(self):
        for T in np.linspace(0.0, 1.0, 50):
            got = _post_measurement(float(T))
            assert np.abs(got.rho.mat - sigma2(float(T)).mat).max() < 1e-10
            p2 = coefficients(CascadeParams((float(T),))).p_success
            assert abs(got.success_prob - p2) < 1e-10

    def test_concurrence_t04(self):
        got = _post_measurement(0.4)
        assert concurrence(got.rho).value == pytest.approx(0.08 / 0.28, abs=1e-12)

    def test_concurrence_vanishes_at_half(self):
        got = _post_measurement(0.5)
        assert concurrence(got.rho).value < 1e-12

    def test_transparent_restores_singlet(self):
        got = _post_measurement(1.0)
        assert np.abs(got.rho.mat - singlet_standard().mat).max() < 1e-12
        assert concurrence(got.rho).value == pytest.approx(1.0, abs=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        for T in (0.1, 0.5, 0.9):
            ps = couple(singlet_standard(), mixed_env(), CouplingParams(T))
            ph, pv = outcome_probabilities(ps)
            assert ph + pv == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_outcome_probabilities_are_environment_marginal(self, seed):
        rho = DensityMatrix(random_psd(8, np.random.default_rng(seed)), (2, 2, 2))
        ph, pv = outcome_probabilities(PostSelectedState(rho, 1.0))
        marginal = rho.ptrace((2,)).mat
        assert abs(ph - marginal[0, 0].real) <= 1e-15
        assert abs(pv - marginal[1, 1].real) <= 1e-15

    def test_outcome_probabilities_need_three_qubits(self):
        with pytest.raises(DimensionError):
            outcome_probabilities(PostSelectedState(singlet_standard(), 1.0))


class TestFeedForward:
    def test_disabled_halves_probability(self):
        for T in (0.2, 0.6, 0.95):
            without = run_protocol(T, feed_forward_enabled=False)
            with_ff = run_protocol(T, feed_forward_enabled=True)
            assert without.cumulative_prob == pytest.approx(
                with_ff.cumulative_prob / 2.0, abs=1e-12
            )

    @pytest.mark.parametrize("p", [1.0, 0.85])
    def test_builds_no_extra_states(self, monkeypatch, p):
        # Every state, alone or from a stack, is set up by qmath._settle.
        built = []
        real = qmath._settle

        def counting(states, *args):
            built.append(len(states))
            return real(states, *args)

        monkeypatch.setattr(qmath, "_settle", counting)
        for T in (0.2, 0.4, 0.8):
            built.clear()
            plain = run_protocol(T, eps=0.25, p=p)
            n_plain = sum(built)
            built.clear()
            with_ff = run_protocol(T, eps=0.25, p=p, feed_forward_enabled=True)
            assert sum(built) == n_plain > 0
            prob_h, prob_v = outcome_probabilities(PostSelectedState(with_ff.steps[1].state, 1.0))
            assert with_ff.steps[2].step_prob == prob_h + prob_v
            assert with_ff.steps[2].state.mat.tobytes() == plain.steps[2].state.mat.tobytes()

    def test_transparent_branches_coincide(self):
        ps = couple(singlet_standard(), mixed_env(), CouplingParams(1.0))
        h = measure_env(ps, "H")
        v = measure_env(ps, "V")
        corrected, _ = feed_forward(v.rho)
        assert fidelity(corrected, h.rho) == pytest.approx(1.0, abs=1e-8)

    def test_concurrence_equality(self):
        ps = couple(singlet_standard(), mixed_env(), CouplingParams(0.4))
        h = measure_env(ps, "H")
        v = measure_env(ps, "V")
        corrected, _ = feed_forward(v.rho)
        assert abs(concurrence(corrected).value - concurrence(h.rho).value) < 1e-10

    @pytest.mark.parametrize("p", [1.0, 0.85, 0.0])
    @pytest.mark.parametrize("T", [0.05, 0.2, 0.4, 0.6, 0.95])
    def test_corrected_branch_matches_h_branch(self, T, p):
        ps = couple(
            singlet_standard(), mixed_env(), CouplingParams(T), IndistinguishabilityModel(p)
        )
        h = measure_env(ps, "H")
        v = measure_env(ps, "V")
        corrected, u = feed_forward(v.rho)
        assert fidelity(corrected, h.rho) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(corrected.mat - h.rho.mat).max() < 1e-12
        assert u.shape == (4, 4)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


class TestRebalanceFilter:
    def test_branch_t04(self):
        h, v = rebalance_branch(0.4)
        assert h == pytest.approx(0.5, abs=1e-12)
        assert v == 1.0

    def test_branch_t025(self):
        assert rebalance_branch(0.25) == (1.0, 0.5)

    def test_transparent_noop(self):
        assert rebalance_branch(1.0) == (1.0, 1.0)

    def test_removes_alice_h_at_half(self):
        assert rebalance_branch(0.5) == (0.0, 1.0)

    @pytest.mark.parametrize("T", [0.1, 0.25, 0.4, 0.7, 0.95])
    def test_balances_central_populations(self, T):
        (out,) = rebalance_filter([sigma2(T)], [T])
        m = out.rho.mat
        assert abs(m[1, 1] - m[2, 2]) < 1e-10


class TestEpsilonFilter:
    @pytest.mark.parametrize("T", [0.1, 0.25, 0.4, 0.7, 0.95])
    @pytest.mark.parametrize("eps", [0.05, 0.25, 1.0])
    def test_sigma3_closed_form(self, T, eps):
        (rebalanced,) = rebalance_filter([sigma2(T)], [T])
        (out,) = epsilon_filter([rebalanced.rho], eps)
        assert np.abs(out.rho.mat - sigma3_closed_form(T, eps).mat).max() < 1e-10
        assert concurrence(out.rho).value == pytest.approx(c3_closed_form(T, eps), abs=1e-10)

    def test_asymptotic_concurrence(self):
        for T in (0.2, 0.4, 0.8):
            assert c3_closed_form(T, 1e-9) > 1 - 1e-6

    def test_identity_at_transparent(self):
        (rebalanced,) = rebalance_filter([sigma2(1.0)], [1.0])
        (out,) = epsilon_filter([rebalanced.rho], 1.0)
        assert np.abs(out.rho.mat - singlet_standard().mat).max() < 1e-12

    def test_rejects_zero_eps(self):
        with pytest.raises(EntconcError):
            epsilon_filter([sigma2(0.4)], 0.0)

    def test_monotone_in_eps(self):
        for T in (0.2, 0.4, 0.8):
            values = [c3_closed_form(T, e) for e in np.linspace(0.01, 1.0, 30)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_sigma3_x_form_zero_hh(self):
        out = sigma3_closed_form(0.4, 0.25)
        assert is_x_form(out)
        assert abs(out.mat[0, 0]) < 1e-12

    @pytest.mark.parametrize("form", [sigma3_closed_form, c3_closed_form, p3_closed_form])
    @pytest.mark.parametrize("T", [0.0, 5e-324, 1e-160])
    def test_zero_weight_is_zero_measure(self, form, T):
        # The weight 2 eps alpha + eps^2 delta is 0 or subnormal: each sigma_III
        # form raises the typed error instead of dividing by it.
        with pytest.raises(ZeroProbabilityError, match=f"zero-measure state at T={T}"):
            form(T, 0.25)

    def test_small_normal_weight_keeps_its_limit(self):
        # At T = 1e-150 the weight is ~5.6e-301, still normal: C_III is the
        # T -> 0 limit 2 / (2 + eps) and P_III the weight over 4.
        assert c3_closed_form(1e-150, 0.25) == pytest.approx(2.0 / 2.25, rel=1e-14)
        assert p3_closed_form(1e-150, 0.25) == pytest.approx(0.5625e-300 / 4.0, rel=1e-14)


def _with_signed_zeros(m, rng):
    """A state with +0.0 and -0.0 planted in ``m``: D m D for a random
    diagonal D over {0, -0, 1, -1} (not all zero), after an optional
    projection onto the real part.  Both steps keep m PSD."""
    if rng.random() < 0.5:
        m = m.real.astype(complex)
    d = rng.choice([0.0, -0.0, 1.0, -1.0], size=len(m))
    d[rng.integers(len(m))] = rng.choice([1.0, -1.0])
    m = d[:, None] * m * d
    return m / np.trace(m).real


def _bitwise_equal(a, b):
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _kraus_filter(rho, alice, bob):
    """Reference: the filter as the matrix product K rho K^dag with the
    complex diagonal K = diag(alice) x diag(bob)."""
    k = kron(np.diag(np.array(alice, dtype=complex)), np.diag(np.array(bob, dtype=complex)))
    return k @ rho @ k.conj().T


def _projector_measurement(rho, result):
    """Reference: project E onto |result>, then trace E out."""
    ket = {"H": KET_H, "V": KET_V}[result]
    proj = kron(np.eye(4, dtype=complex), np.outer(ket, ket.conj()))
    return partial_trace(proj @ rho @ proj, (2, 2, 2), (0, 1))


def _outcome(fn):
    """(state matrix, weight) of a filter or measurement, or the type of
    the error it raised."""
    try:
        out = fn()
    except EntconcError as exc:
        return type(exc)
    rho, weight = (out.rho, out.success_prob) if isinstance(out, PostSelectedState) else out
    return rho.mat, weight


def _assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got[1] == want[1]
    assert _bitwise_equal(got[0], want[0])


_AMPLITUDE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestDiagonalKernels:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alice=st.tuples(_AMPLITUDE, _AMPLITUDE),
        bob=st.tuples(_AMPLITUDE, _AMPLITUDE),
    )
    def test_filter_is_bitwise_the_matrix_product(self, seed, alice, bob):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(_with_signed_zeros(random_psd(4, rng), rng), (2, 2))
        got = _outcome(lambda: apply_filter(rho, alice, bob))
        want = _outcome(lambda: normalize(_kraus_filter(rho.mat, alice, bob), (2, 2)))
        _assert_same_outcome(got, want)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), result=st.sampled_from(["H", "V"]))
    def test_measurement_is_bitwise_projector_and_partial_trace(self, seed, result):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(_with_signed_zeros(random_psd(8, rng), rng), (2, 2, 2))
        got = _outcome(lambda: measure_env(PostSelectedState(rho, 1.0), result))
        want = _outcome(lambda: normalize(_projector_measurement(rho.mat, result), (2, 2)))
        _assert_same_outcome(got, want)


class TestFilters:
    def test_never_increase_trace(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            rho = DensityMatrix(random_psd(4, rng), (2, 2))
            alice = (float(rng.uniform(0, 1)), 1.0)
            bob = (1.0, float(rng.uniform(0, 1)))
            assert apply_filter(rho, alice, bob).success_prob <= 1.0 + 1e-12

    def test_no_filter_is_identity(self):
        rho = DensityMatrix(random_psd(4, np.random.default_rng(43)), (2, 2))
        out = apply_filter(rho)
        assert np.array_equal(out.rho.mat, rho.mat / np.trace(rho.mat).real)

    def test_rejects_bad_factor(self):
        bad = [((1.5, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, -0.1)), ((np.nan, 1.0), (1.0, 1.0))]
        for alice, bob in bad:
            with pytest.raises(EntconcError, match="filter factor .* outside \\[0, 1\\]"):
                apply_filter(singlet_standard(), alice, bob)

    def test_raw_attenuations_are_v_amplitudes(self):
        assert raw_attenuations(0.25, 1.0) == ((1.0, 0.5), (1.0, 1.0))

    @pytest.mark.parametrize(
        "a_alice, a_bob", [(-0.1, 0.3), (1.2, 0.3), (0.3, -1e-300), (0.3, np.nan)]
    )
    def test_raw_attenuations_reject_bad_intensity(self, a_alice, a_bob):
        # Rejected before the square root: no numpy warning, no NaN factor.
        with pytest.raises(EntconcError, match="filter intensity .* outside \\[0, 1\\]"):
            raw_attenuations(a_alice, a_bob)

    def test_filtering_never_exceeds_unit_concurrence(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            T = float(rng.uniform(0.05, 0.95))
            if abs(T - 0.5) < 0.02:
                continue
            tr = run_protocol(T, eps=float(rng.uniform(0.01, 1.0)))
            assert concurrence(tr.final_state).value <= 1.0


class TestRunProtocol:
    def test_trivial_chain(self):
        tr = run_protocol(1.0, eps=1.0, feed_forward_enabled=True)
        assert concurrence(tr.final_state).value == pytest.approx(1.0, abs=1e-10)
        assert tr.cumulative_prob == pytest.approx(1.0, abs=1e-10)

    def test_cumulative_is_product(self):
        tr = run_protocol(0.4, eps=0.25)
        prod = 1.0
        for step in tr.steps:
            prod *= step.step_prob
        assert tr.cumulative_prob == pytest.approx(prod, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.85, 1.0])
    @pytest.mark.parametrize("feed", [False, True])
    def test_identity_coupling_has_weight_one(self, p, feed):
        # At T = 1 the coupling's trace rounds to 1.0000000000000002.
        tr = run_protocol(1.0, p=p, feed_forward_enabled=feed)
        assert [s.step_prob for s in tr.steps] == [1.0, 1.0, 1.0 if feed else 0.5]

    def test_post_measurement_band_p085(self):
        tr = run_protocol(0.4, p=0.85)
        c = concurrence(tr.final_state).value
        # Orthogonal-tag branch keeps its singlet coherence, which partially
        # cancels the coherent branch at T < 1/2; the result sits inside the
        # measured band 0.15 +/- 0.03 rather than at the quoted model value
        # 0.22 (see the protocol command's reference annotations).
        assert 0.12 <= c <= 0.25

    def test_raw_filter_entry_path(self):
        tr = run_protocol(0.4, raw_filters=raw_attenuations(0.12, 0.30))
        assert concurrence(tr.final_state).value == pytest.approx(0.47, abs=0.05)

    def test_eps_and_raw_mutually_exclusive(self):
        with pytest.raises(EntconcError):
            run_protocol(0.4, eps=0.2, raw_filters=raw_attenuations(0.1, 0.1))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_state(got, want):
    # Same arithmetic, so the same bits: matrix and dims.
    assert got.dims == want.dims
    assert _same_bits(got.mat, want.mat)
    assert not got.mat.flags.writeable


def _first_error(fn, items):
    """(type, message) of the first error ``fn`` raises over ``items`` one
    at a time, or None."""
    for item in items:
        try:
            fn(item)
        except EntconcError as exc:
            return type(exc), str(exc)
    return None


_SQ3 = float(1.0 / np.sqrt(3))
_T = st.sampled_from([0.0, 0.5, 1.0, _SQ3]) | st.floats(0.0, 1.0)
_KEEPS = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def _assert_reference_front(trace, T, p, feed):
    """The coupled and measured steps of ``trace`` are bitwise the per-T
    reference: one couple, outcome_probabilities and measure_env call."""
    coupled, (prob_h, prob_v), measured = stepwise_coupling(SINGLET_STANDARD, T, p)
    assert [s.name for s in trace.steps[:3]] == ["input", "coupled", "measured"]
    _assert_same_state(trace.steps[1].state, coupled.rho)
    assert float(trace.steps[1].step_prob).hex() == float(coupled.success_prob).hex()
    _assert_same_state(trace.steps[2].state, measured.rho)
    want = prob_h + prob_v if feed else prob_h
    assert float(trace.steps[2].step_prob).hex() == float(want).hex()


class TestStackedFront:
    """The grid front and the stacked marginals are bitwise the per-T
    reference front and ptrace."""

    @settings(max_examples=60, deadline=None)
    @given(
        ts=st.lists(_T, min_size=1, max_size=40),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        feed=st.booleans(),
    )
    @example(ts=[0.0, 0.5, 1.0, _SQ3], p=1.0, feed=False)
    @example(ts=[0.0, 0.5, 1.0, _SQ3], p=1.0, feed=True)
    @example(ts=[0.0, 0.5, 1.0, _SQ3], p=0.85, feed=True)
    @example(ts=[0.0, 0.5, 1.0, _SQ3], p=0.0, feed=False)
    @example(ts=[0.5, 0.0], p=0.0, feed=True)
    def test_grid_is_the_single_protocol(self, ts, p, feed):
        traces = couple_measure_grid(ts, p, feed)
        assert len(traces) == len(ts)
        for T, got in zip(ts, traces):
            assert len(got.steps) == 3
            _assert_reference_front(got, T, p, feed)
        single = run_protocol(ts[0], p=p, feed_forward_enabled=feed)
        _assert_reference_front(single, ts[0], p, feed)
        states = [tr.steps[1].state for tr in traces]
        for keep in _KEEPS:
            for g, rho in zip(ptrace_stack(states, keep), states):
                want = DensityMatrix(partial_trace(rho.mat, (2, 2, 2), keep), g.dims)
                _assert_same_state(g, want)
                _assert_same_state(rho.ptrace(keep), want)

    def test_empty_stacks(self):
        assert couple_measure_grid([]) == []
        assert ptrace_stack([], (0,)) == []


def _abe(ab, env):
    return DensityMatrix(kron(ab, env), (2, 2, 2))


# An 8x8 state whose E = V block is diag(-0.9e-10, 2e-10, 0, 0): valid
# (least eigenvalue -0.9e-10), but the V branch normalizes to a negative
# eigenvalue of -0.82.
_NEGATIVE_V_BLOCK = np.diag([0.5, -0.9e-10, 0.5 - 1.1e-10, 2e-10, 0, 0, 0, 0]).astype(complex)


def _negative_marginal(x):
    """A valid state whose A x B marginal has the eigenvalue -2x, below
    -ATOL: its two negative entries add up in the partial trace."""
    m = np.diag([-x, -x, 0.5 + x, 0, 0, 0.5 + x, 0, 0]).astype(complex)
    return DensityMatrix(m, (2, 2, 2))


class TestFailingStacks:
    """A failing stack raises what its first bad state raises alone."""

    @pytest.mark.parametrize("result", ["H", "V"])
    def test_measurement(self, result):
        # A zero-measure block and a block that normalizes to a negative
        # eigenvalue fail alone, each with its own error.
        rng = np.random.default_rng(7)
        good = _abe(random_psd(4, rng), np.eye(2) / 2)
        only_h = _abe(random_psd(4, rng), np.diag([1.0, 0.0]))
        only_v = _abe(random_psd(4, rng), np.diag([0.0, 1.0]))
        negative = DensityMatrix(_NEGATIVE_V_BLOCK, (2, 2, 2))
        zero = (ZeroProbabilityError, "^normalize: zero-measure operator$")
        psd = (NotPSDError, "^DensityMatrix: eigenvalue -")
        cases = {
            "H": [(good, None), (only_h, None), (only_v, zero), (negative, None)],
            "V": [(good, None), (only_h, zero), (only_v, None), (negative, psd)],
        }[result]
        for rho, error in cases:
            state = PostSelectedState(rho, 0.5)
            if error is None:
                assert measure_env(state, result).rho.dims == (2, 2)
                continue
            with pytest.raises(error[0], match=error[1]):
                measure_env(state, result)

    def test_measurement_rejects_two_qubit_state(self):
        with pytest.raises(DimensionError, match="measure_env: dims"):
            measure_env(PostSelectedState(singlet_standard(), 1.0), "H")

    def test_marginals(self):
        good = _abe(random_psd(4, np.random.default_rng(8)), np.eye(2) / 2)
        first, second = _negative_marginal(0.9e-10), _negative_marginal(0.6e-10)
        for stack in ([good, first, second], [good, second, first]):
            error = _first_error(lambda rho: rho.ptrace((0, 1)), stack)
            assert error[0] is NotPSDError
            with pytest.raises(NotPSDError) as info:
                ptrace_stack(stack, (0, 1))
            assert str(info.value) == error[1]
        # The E marginal of the same states is valid.
        assert len(ptrace_stack([good, first, second], (2,))) == 3

    def test_marginals_need_one_dims(self):
        with pytest.raises(DimensionError, match="ptrace_stack: dims"):
            ptrace_stack([_abe(np.eye(4) / 4, np.eye(2) / 2), singlet_standard()], (0,))


_PAIR = st.tuples(_AMPLITUDE, _AMPLITUDE)
# Valid eps values, and three that epsilon_filter rejects.
_EPS = st.sampled_from([0.0, 2.0, float("nan"), 1.0]) | st.floats(1e-6, 1.0)


def _measured(ts, p):
    return [tr.final_state for tr in couple_measure_grid(ts, p)]


class TestStackedFilters:
    """A filter stack is bitwise the per-state filters, and a failing stack
    raises what its first bad state raises alone."""

    @settings(max_examples=100, deadline=None)
    @given(
        ts=st.lists(_T, min_size=1, max_size=12),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        data=st.data(),
    )
    @example(ts=[0.0, 0.4], p=1.0, data=None)
    @example(ts=[0.4, 0.0, 0.7], p=0.85, data=None)
    def test_stack_is_the_per_state_filter(self, ts, p, data):
        states = _measured(ts, p)
        if data is None:
            # Alice's V is dropped: the T = 0 state has zero measure, and
            # the others keep their HV population.
            alice, bob = [(1.0, 0.0)] * len(ts), [(1.0, 1.0)] * len(ts)
        else:
            alice = data.draw(st.lists(_PAIR, min_size=len(ts), max_size=len(ts)))
            bob = data.draw(st.lists(_PAIR, min_size=len(ts), max_size=len(ts)))
        items = list(zip(states, alice, bob))
        error = _first_error(lambda item: apply_filter(*item), items)
        if error is not None:
            with pytest.raises(error[0]) as info:
                apply_filter_stack(states, alice, bob)
            assert str(info.value) == error[1]
            return
        for got, item in zip(apply_filter_stack(states, alice, bob), items):
            want = apply_filter(*item)
            assert got.success_prob == want.success_prob
            _assert_same_state(got.rho, want.rho)

    @settings(max_examples=100, deadline=None)
    @given(
        ts=st.lists(_T, min_size=1, max_size=12),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        eps=st.none() | _EPS,
        raw=st.none() | st.tuples(_PAIR, _PAIR),
    )
    @example(ts=[0.3, 0.0], p=1.0, eps=2.0, raw=None)
    @example(ts=[0.0, 0.3], p=1.0, eps=2.0, raw=None)
    @example(ts=[0.3, 0.5, 0.0], p=0.85, eps=0.25, raw=None)
    @example(ts=[0.3, 0.6], p=1.0, eps=None, raw=((1.0, 0.0), (1.0, 0.0)))
    @example(ts=[0.5, 0.3], p=0.85, eps=0.25, raw=((1.0, 0.0), (1.0, 0.0)))
    def test_filtration_stack_is_the_per_state_filtration(self, ts, p, eps, raw):
        states = _measured(ts, p)
        items = list(zip(states, ts))
        eps_list = () if eps is None else (eps, 0.5)

        def alone(item):
            return filtration([item[0]], [item[1]], eps_list=eps_list, raw_filters=raw)[0]

        error = _first_error(alone, items)
        if error is not None:
            with pytest.raises(error[0]) as info:
                filtration(states, ts, eps_list=eps_list, raw_filters=raw)
            assert str(info.value) == error[1]
            return
        for got, item in zip(filtration(states, ts, eps_list=eps_list, raw_filters=raw), items):
            want = alone(item)
            assert [s.name for s in got] == [s.name for s in want]
            for g, w in zip(got, want):
                assert g.step_prob == w.step_prob
                _assert_same_state(g.state, w.state)

    def test_rebalance_and_eps_stacks(self):
        ts = [0.1, 0.25, 0.4, 0.7, 0.95]
        states = [sigma2(t) for t in ts]
        rebalanced = rebalance_filter(states, ts)
        for got, state, t in zip(rebalanced, states, ts):
            (want,) = rebalance_filter([state], [t])
            assert got.success_prob == want.success_prob
            _assert_same_state(got.rho, want.rho)
        filtered = epsilon_filter([r.rho for r in rebalanced], 0.25)
        for got, r in zip(filtered, rebalanced):
            (want,) = epsilon_filter([r.rho], 0.25)
            assert got.success_prob == want.success_prob
            _assert_same_state(got.rho, want.rho)

    def test_rebalance_error_order(self):
        # T = 1/2 is filtered like any T, so T = 0 fails in either order.
        ts = [0.3, 0.0, 0.5]
        for stack in (ts, ts[::-1]):
            with pytest.raises(ZeroProbabilityError, match="zero-measure"):
                rebalance_filter(_measured(stack, 1.0), stack)

    def test_empty_stacks(self):
        assert apply_filter_stack([], [], []) == []
        assert rebalance_filter([], []) == []
        assert epsilon_filter([], 0.25) == []
        assert filtration([], [], eps_list=[2.0], raw_filters=((1.0, 0.0), (1.0, 0.0))) == []
