import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entconc import protocol, qmath
from entconc.cascade import (
    CascadeParams,
    cascade_filter,
    closed_form_concurrence,
    closed_form_state,
    coefficient_prefixes,
    coefficients,
    filtered_concurrence,
    filtered_success_prob,
    simulate_cascade,
)
from entconc.errors import (
    DegenerateCouplingError,
    EntconcError,
    InvariantViolation,
    NotHermitianError,
    NotPSDError,
    ZeroProbabilityError,
)
from entconc.metrics import concurrence
from entconc.protocol import apply_filter, couple_measure_chains, couple_measure_grid, run_protocol
from entconc.states import SINGLET_STANDARD
from helpers import exact_cascade_cells, stepwise_cascade, stepwise_coupling

SQ3 = 1.0 / np.sqrt(3)
EDGE_TS = [0.0, 0.5, 1.0, float(SQ3), float(1 - SQ3), 5e-324, 1e-160, 1 - 1e-16]


def _cumulative(trace):
    prod = 1.0
    for step in trace.steps:
        prod *= step.step_prob
    return prod


class TestCoefficients:
    def test_two_stage_example(self):
        # Unnormalized (T^4, (T-R)^4, R^2 (T-R)^2 + T^2 R^2) = (0.0256, 0.0016,
        # 0.072), of weight 0.0992 = 8 P_2.
        coeffs = coefficients(CascadeParams((0.4, 0.4)))
        assert coeffs.a == pytest.approx(0.0256 / 0.0992, abs=1e-12)
        assert coeffs.b == pytest.approx(0.0016 / 0.0992, abs=1e-12)
        assert coeffs.c == pytest.approx(0.072 / 0.0992, abs=1e-12)
        assert coeffs.p_success == pytest.approx(0.0124, abs=1e-12)

    def test_single_stage_matches_protocol(self):
        # N = 1 is the single-coupling sigma_II and P_II of the paper.
        for T in (0.1, 0.4, 0.8):
            R = 1.0 - T
            p2 = (T**2 + (T - R) ** 2 + R**2) / 4.0
            sigma2 = np.zeros((4, 4))
            sigma2[1, 1], sigma2[2, 2], sigma2[3, 3] = T**2, (T - R) ** 2, R**2
            sigma2[1, 2] = sigma2[2, 1] = -T * (T - R)
            coeffs = coefficients(CascadeParams((T,)))
            assert coeffs.p_success == pytest.approx(p2, abs=1e-12)
            state = closed_form_state(coeffs)
            assert np.abs(state.mat - sigma2 / (4.0 * p2)).max() < 1e-12

    def test_cross_magnitude(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            ts = tuple(rng.uniform(0.05, 0.95, rng.integers(1, 6)))
            coeffs = coefficients(CascadeParams(ts))
            assert abs(coeffs.x) == pytest.approx(np.sqrt(coeffs.a * coeffs.b), abs=1e-12)

    def test_transparent_chain(self):
        coeffs = coefficients(CascadeParams((1.0, 1.0, 1.0)))
        assert (coeffs.a, coeffs.b, coeffs.c, coeffs.x) == (0.5, 0.5, 0.0, -0.5)
        assert closed_form_concurrence(coeffs) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        ts=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, float(SQ3), float(1 - SQ3)]) | st.floats(0.0, 1.0),
            min_size=1,
            max_size=30,
        )
    )
    @example(ts=[0.4] * 24)
    def test_prefixes_are_the_shorter_chains(self, ts):
        # One pass gives, bit for bit, what each prefix's own chain gives, and
        # raises iff some prefix's own chain has zero weight.
        def bits(co):
            return [v.hex() for v in (co.a, co.b, co.c, co.x, co.p_success)]

        own = []
        for n in range(1, len(ts) + 1):
            try:
                own.append(bits(coefficients(CascadeParams(tuple(ts[:n])))))
            except ZeroProbabilityError:
                break
        try:
            assert [bits(co) for co in coefficient_prefixes(CascadeParams(tuple(ts)))] == own
        except ZeroProbabilityError:
            assert len(own) < len(ts)

    def test_rejects_empty_and_bad_eps(self):
        with pytest.raises(EntconcError):
            CascadeParams(())
        with pytest.raises(EntconcError):
            CascadeParams((0.4,), eps=0.0)


class TestClosedFormAgainstSimulation:
    def test_random_chains(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            ts = tuple(float(t) for t in rng.uniform(0.05, 0.95, n))
            eps = float(rng.uniform(0.05, 1.0))
            params = CascadeParams(ts, eps=eps)
            coeffs = coefficients(params)
            trace = simulate_cascade(params)

            measured = next(s.state for s in reversed(trace.steps) if s.name.startswith("meas"))
            assert np.abs(measured.mat - closed_form_state(coeffs).mat).max() < 1e-10
            assert abs(concurrence(measured).value - closed_form_concurrence(coeffs)) < 1e-10

            assert abs(
                concurrence(trace.final_state).value - filtered_concurrence(coeffs, eps)
            ) < 1e-10
            assert abs(_cumulative(trace) - filtered_success_prob(coeffs, eps)) < 1e-10

    def test_majority_side_swap(self):
        # T < 1/2 makes B_N > A_N for a single stage with strong reflection.
        params = CascadeParams((0.1,), eps=0.3)
        coeffs = coefficients(params)
        assert coeffs.b > coeffs.a
        trace = simulate_cascade(params)
        assert abs(
            concurrence(trace.final_state).value - filtered_concurrence(coeffs, 0.3)
        ) < 1e-10

    @pytest.mark.parametrize("ts", [(0.7, 0.6), (0.1,), (0.4, 0.3, 0.8)])
    @pytest.mark.parametrize("p", [1.0, 0.85])
    def test_one_stage_equals_two_stages(self, ts, p):
        # The joint filter as one stage equals the H-factor stage followed
        # by the remaining V stage on the majority side, with the factor
        # taken from the HV/VH populations of the state it filters.
        params = CascadeParams(ts, eps=0.3)
        state = simulate_cascade(params, p=p).steps[-2].state
        a, b = state.mat[1, 1].real, state.mat[2, 2].real
        root = np.sqrt(0.3)
        if b <= a:
            first = apply_filter(state, (np.sqrt(b / a), 1.0), (1.0, root))
            second = apply_filter(first.rho, (1.0, root))
        else:
            first = apply_filter(state, (1.0, root), (np.sqrt(a / b), 1.0))
            second = apply_filter(first.rho, bob=(1.0, root))
        out = cascade_filter(state, 0.3)
        assert np.abs(out.rho.mat - second.rho.mat).max() < 1e-14
        want = first.success_prob * second.success_prob
        assert out.success_prob == pytest.approx(want, rel=1e-13)
        # The filtered HV and VH populations are balanced at every p.
        assert out.rho.mat[1, 1].real == pytest.approx(out.rho.mat[2, 2].real, rel=1e-12)

    def test_filter_side_irrelevant_to_concurrence(self):
        coeffs = coefficients(CascadeParams((0.7, 0.6)))
        state = closed_form_state(coeffs)
        out = cascade_filter(state, 0.4)
        assert concurrence(out.rho).value == pytest.approx(
            filtered_concurrence(coeffs, 0.4), abs=1e-12
        )


class TestFilteredScaling:
    def test_concurrence_improves_with_smaller_eps(self):
        coeffs = coefficients(CascadeParams((0.4, 0.4)))
        values = [filtered_concurrence(coeffs, e) for e in np.linspace(0.01, 1.0, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_asymptotically_maximal(self):
        coeffs = coefficients(CascadeParams((0.4, 0.6, 0.3)))
        assert filtered_concurrence(coeffs, 1e-9) > 1 - 1e-6

    def test_success_prob_scales_linearly_for_small_eps(self):
        # For small eps the 2 eps min(A,B) term dominates P_III.
        coeffs = coefficients(CascadeParams((0.4, 0.4)))
        p1 = filtered_success_prob(coeffs, 1e-6)
        p2 = filtered_success_prob(coeffs, 2e-6)
        assert p2 / p1 == pytest.approx(2.0, rel=1e-3)
        assert p1 == pytest.approx(2e-6 * min(coeffs.a, coeffs.b) * coeffs.p_success, rel=1e-3)

    def test_degenerate_chain_rejected(self):
        coeffs = coefficients(CascadeParams((0.0,)))
        with pytest.raises(DegenerateCouplingError):
            cascade_filter(closed_form_state(coeffs), 0.5)


class TestExactReference:
    @settings(max_examples=25, deadline=None)
    @given(
        pattern=st.lists(st.sampled_from(EDGE_TS) | st.floats(0.0, 1.0), min_size=1, max_size=4),
        depth=st.integers(1, 1100),
        eps=st.sampled_from([1.0, 5e-324]) | st.floats(0.0, 1.0, exclude_min=True),
    )
    @example(pattern=[0.4], depth=1100, eps=0.25)
    @example(pattern=[1e-160, 0.3], depth=2, eps=0.05)
    @example(pattern=[0.5, 0.0], depth=2, eps=1.0)
    @example(pattern=EDGE_TS[1:] + EDGE_TS[:1], depth=1100, eps=0.25)
    def test_cells_match_the_integer_recursion(self, pattern, depth, eps):
        # A chain of ``depth`` couplings cycling through ``pattern``: every
        # cell is finite, and within 1e-12 of the exact value wherever that
        # is a normal double and doubles can follow the recursion (see
        # exact_cascade_cells); a prefix of zero weight raises.
        ts = [pattern[i % len(pattern)] for i in range(depth)]
        want = exact_cascade_cells(ts, [eps])
        if want and want[-1] is None:
            with pytest.raises(ZeroProbabilityError):
                coefficient_prefixes(CascadeParams(tuple(ts[: len(want)])))
            want.pop()
        if not want:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = [
                [
                    closed_form_concurrence(co),
                    co.p_success,
                    filtered_concurrence(co, eps),
                    filtered_success_prob(co, eps),
                ]
                for co in coefficient_prefixes(CascadeParams(tuple(ts[: len(want)])))
            ]
        assert np.isfinite(rows).all()
        for row, cells in zip(rows, want):
            for value, exact in zip(row, cells):
                if exact >= sys.float_info.min:
                    assert abs(value - exact) <= 1e-12 * exact, (row, cells)

    def test_tiny_first_coupling(self):
        # T = 1e-160 leaves a below the normal range, but C_closed reads only
        # the coherence: C_N = prod T |T - R| / (2^N P_N) = 1.2e-161 / 0.37.
        co = coefficients(CascadeParams((1e-160, 0.3)))
        assert closed_form_concurrence(co) == pytest.approx(1.2e-161 / 0.37, rel=1e-15)
        assert co.p_success == pytest.approx(0.0925, rel=1e-15)


class TestPartialIndistinguishability:
    def test_p_one_matches_default(self):
        params = CascadeParams((0.4, 0.7), eps=0.5)
        a = simulate_cascade(params)
        b = simulate_cascade(params, p=1.0)
        assert np.abs(a.final_state.mat - b.final_state.mat).max() < 1e-12

    def test_partial_overlap_degrades(self):
        params = CascadeParams((0.4, 0.4), eps=0.2)
        full = concurrence(simulate_cascade(params).final_state).value
        partial = concurrence(simulate_cascade(params, p=0.85).final_state).value
        assert partial < full


class TestProtocolIsOneStageCascade:
    @settings(max_examples=200, deadline=None)
    @given(T=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0))
    @example(T=0.0, p=1.0)
    @example(T=0.0, p=0.85)
    @example(T=0.5, p=1.0)
    @example(T=1.0, p=0.3)
    @example(T=float(SQ3), p=0.85)
    @example(T=float(1 - SQ3), p=0.0)
    def test_coupled_and_measured_bitwise(self, T, p):
        protocol = {s.name: s for s in run_protocol(T, p=p).steps}
        if protocol["measured"].state.mat[1, 1].real <= 0.0:
            # T = 0: A_1 = 0, so the cascade's final filter has nothing to balance.
            with pytest.raises(DegenerateCouplingError, match="cascade filter needs A_N > 0"):
                simulate_cascade(CascadeParams((T,)), p)
            return
        cascade = {s.name: s for s in simulate_cascade(CascadeParams((T,)), p).steps}
        # Both are bitwise the per-T reference, not only each other.
        coupled, (prob_h, _), measured = stepwise_coupling(SINGLET_STANDARD, T, p)
        reference = {
            "coupled": (coupled.rho, coupled.success_prob),
            "measured": (measured.rho, prob_h),
        }
        for name, (state, prob) in reference.items():
            for got in (protocol[name], cascade[f"{name}_1"]):
                assert got.state.dims == state.dims
                assert got.state.mat.tobytes() == state.mat.tobytes()
                assert float(got.step_prob).hex() == float(prob).hex()


def _run_bits(run, params, p):
    """Each step's name, dims, matrix bytes and probability bits, or the
    type and message of what the run raises."""
    try:
        trace = run(params, p)
    except Exception as err:
        return type(err), str(err)
    return [
        (
            s.name,
            s.state.dims,
            s.state.mat.tobytes(),
            float(s.step_prob).hex(),
        )
        for s in trace.steps
    ]


def _not_hermitian(m):
    m = m.copy()
    m[0, 1] += 0.1
    return m


def _not_psd(m):
    # Trace 1 and finite, with the eigenvalue -0.5.
    out = np.zeros_like(m)
    out[0, 0], out[1, 1] = 1.5, -0.5
    return out


def _bad_trace(m):
    return 1.1 * m


# A finite, invalid state of each kind, and the error it raises.
PLANTS = {
    "not Hermitian": (_not_hermitian, NotHermitianError),
    "not PSD": (_not_psd, NotPSDError),
    "bad trace": (_bad_trace, InvariantViolation),
}


def _plant(monkeypatch, plants):
    """Patch ``_quotients`` (qmath's, which ``normalize`` and so ``couple``
    and ``measure_env`` call, and the driver's) so that at the given stages
    the quotient of the given chain is replaced.  ``plants`` maps (qubits,
    depth, chain) to a function of the quotient: 3 qubits is the coupled
    stage of that depth, 2 its measured stage.  Each call of the returned
    function starts the stage count again, for one run."""
    real = qmath._quotients

    def start():
        counts = {2: 0, 3: 0}

        def planted(unnorm, dims):
            mats, weights = real(unnorm, dims)
            counts[len(dims)] += 1
            for (qubits, depth, chain), make in plants.items():
                if (qubits, depth) == (len(dims), counts[qubits]):
                    mats[chain] = make(mats[chain])
            return mats, weights

        monkeypatch.setattr(qmath, "_quotients", planted)
        monkeypatch.setattr(protocol, "_quotients", planted)

    return start


class TestStackedDriver:
    @settings(max_examples=200, deadline=None)
    @given(
        ts=st.lists(st.sampled_from(EDGE_TS) | st.floats(0.0, 1.0), min_size=1, max_size=40),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        eps=st.floats(1e-3, 1.0),
    )
    @example(ts=[0.37] * 24, p=0.85, eps=1.0)
    @example(ts=[0.4] * 40, p=1.0, eps=0.25)
    @example(ts=[0.3, 0.0, 0.6], p=1.0, eps=1.0)
    @example(ts=[0.5, 0.5, 0.0], p=1.0, eps=1.0)
    @example(ts=[0.5, 1.0, 1e-160], p=1.0, eps=1.0)
    @example(ts=[1e-160, 0.4], p=0.85, eps=0.5)
    def test_matches_stepwise_chain(self, ts, p, eps):
        # One operator stack and one snapshot validation give, bit for bit,
        # the states and probabilities of the
        # coupling-by-coupling chain, or the error it raises first.
        params = CascadeParams(tuple(ts), eps=eps)
        assert _run_bits(simulate_cascade, params, p) == _run_bits(stepwise_cascade, params, p)

    def test_snapshots_validated_as_one_stack(self, monkeypatch):
        # The 24 coupled 8x8 snapshots in one call, the 24 measured 4x4
        # carriers in one call after the loop, and the filtered state once.
        calls = []
        real = qmath._validate

        def counting(mats, dims):
            calls.append((len(dims), len(mats)))
            return real(mats, dims)

        monkeypatch.setattr(qmath, "_validate", counting)
        simulate_cascade(CascadeParams((0.37,) * 24, eps=0.3), 0.85)
        assert [k for n, k in calls if n == 3] == [24]
        assert [k for n, k in calls if n == 2] == [24, 1]
        # The one-coupling front of a 32-T grid: one 8x8 call for the 32
        # coupled states and one 4x4 call for the 32 measured ones.
        calls.clear()
        couple_measure_grid(np.linspace(0.01, 0.99, 32).tolist(), 0.85)
        assert sorted(calls) == [(2, 32), (3, 32)]

    @pytest.mark.parametrize("kind", sorted(PLANTS))
    @pytest.mark.parametrize("qubits", [3, 2])
    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_planted_state_fails_as_stepwise(self, monkeypatch, kind, qubits, depth):
        # The driver validates its stages after the loop and runs on past a
        # bad one; it must still raise what the stepwise chain raises at it,
        # not what a later coupling of the bad carrier raises.
        make, error = PLANTS[kind]
        start = _plant(monkeypatch, {(qubits, depth, 0): make})
        params = CascadeParams((0.37, 0.6, 0.45, 0.8, 0.3, 0.55), eps=0.5)
        start()
        got = _run_bits(simulate_cascade, params, 0.85)
        start()
        assert got == _run_bits(stepwise_cascade, params, 0.85)
        assert issubclass(got[0], error)

    @pytest.mark.parametrize(
        "plants, message",
        [
            # A stage fails before a later one, whatever their chains.
            ({(2, 2, 2): _bad_trace, (3, 3, 0): _not_hermitian}, "trace"),
            # At one depth the coupled stage precedes the measured one.
            ({(3, 2, 2): _not_psd, (2, 2, 0): _not_hermitian}, "eigenvalue"),
            # Within a stage the first chain fails first.
            ({(3, 3, 1): _bad_trace, (3, 3, 0): _not_psd}, "eigenvalue"),
            ({(2, 4, 2): _not_psd, (2, 4, 1): _not_hermitian}, "not Hermitian"),
        ],
    )
    def test_chains_fail_at_their_first_bad_stage(self, monkeypatch, plants, message):
        _plant(monkeypatch, plants)()
        with pytest.raises(InvariantViolation, match=message):
            couple_measure_chains([[0.37, 0.6, 0.45, 0.8]] * 3, 0.85)

    @pytest.mark.parametrize(
        "ts, p, error",
        [
            ((0.3, 0.0, 0.6), 1.0, "cascade filter needs A_N > 0"),
            ((0.5, 0.5, 0.0), 1.0, "normalize: zero-measure operator"),
            ((0.5, 1.0, 1e-160), 1.0, "normalize: zero-measure operator"),
        ],
    )
    def test_failing_chains_fail_alike(self, ts, p, error):
        got = _run_bits(simulate_cascade, CascadeParams(ts), p)
        assert got == _run_bits(stepwise_cascade, CascadeParams(ts), p)
        assert got[1] == error
