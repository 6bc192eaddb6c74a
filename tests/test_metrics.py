import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entconc.cascade import CascadeParams, closed_form_concurrence, coefficients, simulate_cascade
from entconc.errors import DimensionError
from entconc.metrics import _wootters, concurrence, concurrences, fidelity, purity
from entconc.protocol import sigma3_closed_form
from entconc.qmath import DensityMatrix, kron
from entconc.states import ket_density, mixed_env, singlet, singlet_standard, werner
from helpers import concurrence_x_form, random_psd, random_unitary, sigma2


def _brute_force_werner_concurrence(q):
    # Independent oracle: lambda spectrum of rho rho~ via the generic
    # (non-Hermitian) eigenvalue problem, straight from the definition.
    rho = werner(q).mat
    sy = np.array([[0, -1j], [1j, 0]])
    yy = kron(sy, sy)
    lam = np.sqrt(np.abs(np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)))
    lam = np.sort(lam)[::-1]
    return max(0.0, lam[0] - lam[1:].sum())


class TestConcurrence:
    def test_singlet(self):
        assert concurrence(singlet()).value == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(DensityMatrix(np.eye(4) / 4, (2, 2))).value == 0.0

    def test_sigma2_closed_form(self):
        rep = concurrence(sigma2(0.4))
        assert rep.value == pytest.approx(0.08 / 0.28, abs=1e-12)
        want = closed_form_concurrence(coefficients(CascadeParams((0.4,))))
        assert rep.value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("q", np.linspace(0.0, 1.0, 11))
    def test_werner_formula(self, q):
        expected = max(0.0, (3 * q - 1) / 2)
        assert concurrence(werner(q)).value == pytest.approx(expected, abs=1e-10)
        assert concurrence(werner(q)).value == pytest.approx(
            _brute_force_werner_concurrence(q), abs=1e-10
        )

    def test_zero_exactly_at_one_third(self):
        assert concurrence(werner(1 / 3)).value == pytest.approx(0.0, abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            rho = DensityMatrix(random_psd(4, rng), (2, 2))
            u = kron(random_unitary(2, rng), random_unitary(2, rng))
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))
            assert abs(concurrence(rotated).value - concurrence(rho).value) < 1e-10

    def test_product_states(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = DensityMatrix(kron(random_psd(2, rng), random_psd(2, rng)), (2, 2))
            assert concurrence(rho).value < 1e-10

    def test_x_form_shortcut_agrees(self):
        for T in np.linspace(0.01, 0.99, 25):
            s2 = sigma2(T)
            assert abs(concurrence(s2).value - concurrence_x_form(s2)) < 1e-12
        for T in (0.1, 0.4, 0.8):
            s3 = sigma3_closed_form(T, 0.25)
            assert abs(concurrence(s3).value - concurrence_x_form(s3)) < 1e-12

    def test_lambda_report(self):
        rep = concurrence(singlet())
        assert rep.lambdas[0] == pytest.approx(1.0, abs=1e-12)
        assert all(l < 1e-10 for l in rep.lambdas[1:])
        assert list(rep.lambdas) == sorted(rep.lambdas, reverse=True)


def _two_qubit_state(kind, seed, x):
    """A two-qubit state of the named kind; ``seed`` and ``x`` (in [0, 1])
    pick the instance."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return DensityMatrix(random_psd(4, rng), (2, 2))
    if kind == "rank_deficient":
        g = rng.normal(size=(4, 1 + seed % 3)) + 1j * rng.normal(size=(4, 1 + seed % 3))
        m = g @ g.conj().T
        return DensityMatrix(m / np.trace(m).real, (2, 2))
    if kind == "singlet":
        return singlet() if seed % 2 else singlet_standard()
    if kind == "product":
        return DensityMatrix(kron(random_psd(2, rng), random_psd(2, rng)), (2, 2))
    if kind == "werner":
        return werner(x)
    # A cascade measured_N state: N <= 6 couplings of random T at p = x.
    ts = tuple(rng.uniform(0.05, 0.95, size=1 + seed % 6))
    steps = simulate_cascade(CascadeParams(ts), p=x).steps
    return steps[-2].state


_STATE_KINDS = ["random", "rank_deficient", "singlet", "product", "werner", "cascade"]
_STATES = st.builds(
    _two_qubit_state,
    st.sampled_from(_STATE_KINDS),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
)


def _assert_bitwise_alone(states, reports):
    assert len(reports) == len(states)
    for rho, got in zip(states, reports):
        want = concurrence(rho)
        assert type(got.value) is float
        assert np.array([got.value, *got.lambdas]).tobytes() == np.array(
            [want.value, *want.lambdas]
        ).tobytes()


class TestConcurrences:
    @settings(max_examples=200, deadline=None)
    @given(states=st.lists(_STATES, max_size=8))
    def test_each_report_is_bitwise_the_state_alone(self, states):
        _assert_bitwise_alone(states, concurrences(states))

    @pytest.mark.parametrize("k", range(9))
    def test_every_batch_size(self, k):
        states = [
            _two_qubit_state(_STATE_KINDS[i % len(_STATE_KINDS)], 100 + i, i / 8) for i in range(k)
        ]
        _assert_bitwise_alone(states, concurrences(states))

    def test_empty(self):
        assert concurrences([]) == []

    def test_three_qubit_state_raises_as_concurrence_does(self):
        three = DensityMatrix(kron(singlet_standard().mat, mixed_env().mat), (2, 2, 2))
        with pytest.raises(DimensionError) as alone:
            concurrence(three)
        with pytest.raises(DimensionError) as batch:
            concurrences([singlet(), three, werner(0.5)])
        assert str(batch.value) == str(alone.value)


@st.composite
def _x_states(draw):
    """A random X-form state: populations (HH, HV, VH, VV), coherences
    rho_14 and rho_23 of any phase.  Half have HH = 0, as every measured
    state has; some sit within 1e-6 of a threshold |rho_23| = sqrt(rho_11 rho_44)
    or |rho_14| = sqrt(rho_22 rho_33)."""
    w = [draw(st.floats(0.01, 1.0)) for _ in range(4)]
    if draw(st.booleans()):
        w[0] = 0.0
    hh, hv, vh, vv = (x / sum(w) for x in w)
    outer, inner = math.sqrt(hh * vv), math.sqrt(hv * vh)
    m14, m23 = draw(st.floats(0.0, 0.9)) * outer, draw(st.floats(0.0, 0.9)) * inner
    near = draw(st.sampled_from([None, "inner", "outer"]))
    if near == "inner":
        m23 = outer * (1.0 + draw(st.floats(-1e-6, 1e-6)))
        assume(m23 <= 0.9 * inner)
    elif near == "outer":
        m14 = inner * (1.0 + draw(st.floats(-1e-6, 1e-6)))
        assume(m14 <= 0.9 * outer)
    m = np.diag([hh, hv, vh, vv]).astype(complex)
    m[0, 3] = m14 * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    m[1, 2] = m23 * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    m[3, 0], m[2, 1] = m[0, 3].conjugate(), m[1, 2].conjugate()
    return DensityMatrix(m, (2, 2))


def _wootters_alone(rho):
    return _wootters(rho.mat[None])[0]


def _exact_x_form(m):
    """The value and descending lambdas of an X state, in 60-digit decimals
    from the exact values of its entries."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = [Decimal(m[i, i].real) for i in range(4)]
        roots = ((d[0] * d[3]).sqrt(), (d[1] * d[2]).sqrt())
        mods = [(Decimal(z.real) ** 2 + Decimal(z.imag) ** 2).sqrt() for z in (m[1, 2], m[0, 3])]
        value = min(max(2 * (mods[0] - roots[0]), 2 * (mods[1] - roots[1]), Decimal(0)), Decimal(1))
        lambdas = sorted([roots[0] + mods[1], roots[0] - mods[1], roots[1] + mods[0],
                          roots[1] - mods[0]], reverse=True)
        return value, lambdas


# Machine epsilon of a double.  Over 8000 draws of _x_states the closed form
# was within 1.6e-16 of the exact value and lambdas.  _wootters, whose
# eigendecomposition, square root and SVD each add roundoff, strayed up to
# 2.1e-15 there, and up to 34 eps on near-degenerate spectra such as
# _NEAR_DEGENERATE, where it gives C = 0 for the exact 6.7e-15; agreement with
# it is a cross-check at 64 eps, and the exact values carry the precision.
EPS = float(np.finfo(float).eps)
_NEAR_DEGENERATE = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex) / 3.0
_NEAR_DEGENERATE[1, 2] = _NEAR_DEGENERATE[2, 1] = 1e-14 / 3.0


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(rho=_x_states())
    @example(rho=DensityMatrix(_NEAR_DEGENERATE, (2, 2)))
    def test_x_form_is_exact_and_agrees_with_wootters(self, rho):
        got, want = concurrence(rho), _wootters_alone(rho)
        value, lambdas = _exact_x_form(rho.mat)
        assert abs(Decimal(got.value) - value) <= 2 * EPS
        assert max(abs(Decimal(x) - y) for x, y in zip(got.lambdas, lambdas)) <= 2 * EPS
        assert list(got.lambdas) == sorted(got.lambdas, reverse=True)
        assert abs(got.value - want.value) <= 64 * EPS
        assert np.abs(np.subtract(got.lambdas, want.lambdas)).max() <= 64 * EPS

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["random", "rank_deficient", "product", "x_plus_tiny"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_other_states_are_bitwise_wootters(self, kind, seed):
        if kind == "x_plus_tiny":
            # One entry off the X pattern, however small, leaves the closed form.
            m = sigma2(0.05 + 0.9 * seed / 2**32).mat.copy()
            m[0, 1] = m[1, 0] = 1e-300
            rho = DensityMatrix(m, (2, 2))
        else:
            rho = _two_qubit_state(kind, seed, 0.0)
        got, want = concurrence(rho), _wootters_alone(rho)
        assert np.array([got.value, *got.lambdas]).tobytes() == np.array(
            [want.value, *want.lambdas]
        ).tobytes()


class TestFidelity:
    def test_self(self):
        rng = np.random.default_rng(12)
        rho = DensityMatrix(random_psd(4, rng), (2, 2))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure(self):
        h = ket_density(np.array([1.0, 0.0]), (2,))
        v = ket_density(np.array([0.0, 1.0]), (2,))
        assert fidelity(h, v) == pytest.approx(0.0, abs=1e-12)

    def test_werner_vs_singlet(self):
        # Commuting pair: F = <singlet| werner |singlet> = (1+3q)/4 = 0.625.
        assert fidelity(werner(0.5), singlet()) == pytest.approx(0.625, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = DensityMatrix(random_psd(4, rng), (2, 2))
        b = DensityMatrix(random_psd(4, rng), (2, 2))
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fidelity(singlet(), ket_density(np.array([1.0, 0.0]), (2,)))


class TestPurity:
    def test_pure(self):
        assert purity(singlet()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert purity(DensityMatrix(np.eye(4) / 4, (2, 2))) == pytest.approx(0.25, abs=1e-12)

    def test_matches_eigenvalue_sum(self):
        s2 = sigma2(0.4)
        assert purity(s2) == pytest.approx(float((np.linalg.eigvalsh(s2.mat) ** 2).sum()), abs=1e-12)

    def test_standard_singlet_equivalent(self):
        assert purity(singlet_standard()) == pytest.approx(1.0, abs=1e-12)
