import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entconc import qmath
from entconc.errors import (
    DimensionError,
    InvariantViolation,
    NotHermitianError,
    NotPSDError,
    ZeroProbabilityError,
)
from entconc.metrics import _YY, concurrence, fidelity, pair_concurrences
from entconc.qmath import (
    ATOL,
    DensityMatrix,
    _is_hermitian,
    _validate,
    kron,
    normalize,
    normalize_stack,
    partial_trace,
    psd_sqrt,
)
from entconc.states import SIGMA_Y, mixed_env, singlet
from entconc.channel import CouplingParams, IndistinguishabilityModel, couple
from entconc.states import singlet_standard, werner
from helpers import random_psd, random_unitary

I2 = np.eye(2, dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_basis_projectors(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_spin_flip_matrix(self):
        # sigma_y x sigma_y has anti-diagonal (-1, 1, 1, -1).
        yy = kron(SIGMA_Y, SIGMA_Y)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
        assert np.allclose(yy, expected)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            kron(np.ones((2, 3)), I2)

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_equal_to_numpy(self, n, m, dtype):
        rng = np.random.default_rng(100 * n + m)
        for _ in range(5):
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(m, m))
            if dtype is complex:
                a = a + 1j * rng.normal(size=(n, n))
                b = b + 1j * rng.normal(size=(m, m))
            want = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
            got = kron(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            # A (k, n, n) first factor gives the k products, bit for bit.
            stack = np.array([a, 2.0 * a, -a])
            got = kron(stack, b)
            assert got.shape == (3, n * m, n * m)
            for product, factor in zip(got, stack):
                assert product.tobytes() == kron(factor, b).tobytes()

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.eye(2), np.ones((3, 2))),
            (np.ones(4), np.eye(2)),
            (np.eye(2), np.ones((2, 2, 2))),
            (np.ones((3, 2, 3)), np.eye(2)),
        ],
    )
    def test_rejects_either_factor_non_square(self, a, b):
        with pytest.raises(DimensionError):
            kron(a, b)


class TestPartialTrace:
    def test_uncorrelated_factor(self):
        rho = kron(singlet().mat, I2 / 2)
        out = partial_trace(rho, (2, 2, 2), (0, 1))
        assert np.abs(out - singlet().mat).max() < 1e-12

    def test_maximally_entangled_marginal(self):
        out = partial_trace(singlet().mat, (2, 2), (0,))
        assert np.abs(out - I2 / 2).max() < 1e-12

    def test_channel_output_is_werner(self):
        ps = couple(singlet_standard(), mixed_env(), CouplingParams(0.3))
        marginal = ps.rho.ptrace((0, 1))
        from entconc.states import classify_werner

        dec = classify_werner(marginal)
        assert dec.residual < 1e-10

    def test_trace_everything(self):
        rng = np.random.default_rng(1)
        rho = random_psd(8, rng)
        out = partial_trace(rho, (2, 2, 2), (0,))
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_observable_compatibility(self):
        rng = np.random.default_rng(2)
        rho = random_psd(8, rng)
        for _ in range(5):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            x = x + x.conj().T
            lhs = np.trace(kron(x, np.eye(4)) @ rho)
            rhs = np.trace(x @ partial_trace(rho, (2, 2, 2), (0,)))
            assert abs(lhs - rhs) < 1e-12

    def test_invalid_keep(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4) / 4, (2, 2), (5,))
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4) / 4, (2, 2), ())


class TestHermEigen:
    """The spectrum of a validated state, the one its positivity check reads."""

    def test_diagonal(self):
        rho = DensityMatrix(np.diag([3.0, 1.0]) / 4, (2,))
        assert np.allclose(np.linalg.eigvalsh(rho.mat), [0.25, 0.75])

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
    def test_werner_spectrum(self, q):
        w = np.linalg.eigvalsh(werner(q).mat)
        expected = sorted([(1 + 3 * q) / 4] + [(1 - q) / 4] * 3)
        assert np.allclose(w, expected, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for dims in ((2,), (2, 2), (2, 2, 2)):
            m = random_psd(2 ** len(dims), rng)
            root = psd_sqrt(DensityMatrix(m, dims).mat)
            assert np.abs(root @ root - m).max() < 1e-9

    def test_density_matrix_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = DensityMatrix(random_psd(4, rng), (2, 2))
            assert abs(np.linalg.eigvalsh(rho.mat).sum() - 1.0) < 1e-9


def _descending_root(m: np.ndarray) -> np.ndarray:
    """The square root of a PSD ``m`` from a new ``eigh``, summed over its
    eigenpairs in descending order: the reference for :func:`psd_sqrt`."""
    w, v = np.linalg.eigh(m)
    w, v = w[::-1], v[:, ::-1]
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


class TestPsdSqrt:
    def test_scaled_identity(self):
        root = psd_sqrt(np.eye(4) / 4)
        assert np.abs(root - np.eye(4) / 2).max() < 1e-12

    def test_pure_projector_idempotent(self):
        proj = singlet()
        assert np.abs(psd_sqrt(proj.mat) - proj.mat).max() < 1e-9

    def test_diagonal(self):
        out = psd_sqrt(np.diag([4.0, 1.0]) / 5)
        assert np.abs(out - np.diag([2.0, 1.0]) / np.sqrt(5)).max() < 1e-12

    def test_square_reproduces(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_psd(4, rng)
            r = psd_sqrt(DensityMatrix(m, (2, 2)).mat)
            assert np.abs(r @ r - m).max() < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_stack_is_each_matrix_alone(self):
        mats = np.array([rho.mat for rho in _states(np.random.default_rng(7))])
        roots = psd_sqrt(mats)
        for m, root in zip(mats, roots, strict=True):
            assert np.array_equal(root, psd_sqrt(m))
            assert np.array_equal(root, _descending_root(m))


class TestDensityMatrix:
    def test_trace_invariant(self):
        with pytest.raises(InvariantViolation):
            DensityMatrix(np.eye(4), (2, 2))

    def test_hermiticity_invariant(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 0.1
        with pytest.raises(InvariantViolation):
            DensityMatrix(m, (2,))

    def test_psd_invariant(self):
        with pytest.raises(NotPSDError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))

    def test_local_unitary_preserves_validity(self):
        rng = np.random.default_rng(6)
        rho = DensityMatrix(random_psd(4, rng), (2, 2))
        u = kron(random_unitary(2, rng), random_unitary(2, rng))
        DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))


class TestNormalize:
    def test_subnormal_weight_is_zero_measure(self):
        # 1/w overflows for a subnormal w; no RuntimeWarning may escape.
        block = np.zeros((4, 4), dtype=complex)
        block[3, 3] = 2.7e-309
        with pytest.raises(ZeroProbabilityError):
            normalize(block, (2, 2))

    def test_smallest_normal_weight_normalizes(self):
        block = np.zeros((4, 4), dtype=complex)
        block[3, 3] = np.finfo(float).tiny
        rho, weight = normalize(block, (2, 2))
        assert weight == np.finfo(float).tiny
        assert rho.mat[3, 3] == 1.0


def _unnormalized(kind, rng):
    """A 4x4 operator for normalize: a weighted state, or one that fails."""
    if kind == "state":
        return random_psd(4, rng) * rng.choice([1e-3, 0.4, 1.0, 7.0])
    if kind == "zero":
        return np.zeros((4, 4), dtype=complex)
    if kind == "subnormal":
        return np.diag([0.0, 0.0, 0.0, 2.7e-309]).astype(complex)
    if kind == "not_hermitian":
        m = random_psd(4, rng)
        m[0, 1] += 0.3
        return m
    if kind == "not_psd":
        return np.diag([1.5, 0.2, 0.1, -0.4]).astype(complex)
    return np.full((4, 4), np.nan, dtype=complex)


def _normalize_loop(stack):
    """normalize on each operator, stopping at the first error."""
    out = []
    for m in stack:
        try:
            out.append(normalize(m, (2, 2)))
        except Exception as exc:  # the type and message are the outcome
            return out, (type(exc), str(exc))
    return out, None


_OPERATOR_KINDS = st.sampled_from(
    ["state"] * 4 + ["zero", "subnormal", "not_hermitian", "not_psd", "nan"]
)


class TestNormalizeStack:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(_OPERATOR_KINDS, min_size=1, max_size=12))
    def test_same_as_a_loop_of_normalize(self, seed, kinds):
        rng = np.random.default_rng(seed)
        stack = np.array([_unnormalized(kind, rng) for kind in kinds])
        want, error = _normalize_loop(stack)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if error is not None:
                with pytest.raises(error[0]) as info:
                    normalize_stack(stack, (2, 2))
                assert str(info.value) == error[1]
                return
            states, weights = normalize_stack(stack, (2, 2))
        assert weights == [w for _, w in want]
        for rho, (alone, _) in zip(states, want, strict=True):
            assert rho.mat.tobytes() == alone.mat.tobytes()
            assert rho.dims == (2, 2) and not rho.mat.flags.writeable

    def test_one_validation_per_stack(self, monkeypatch):
        calls = []
        real = qmath._validate

        def counting(mats, dims):
            calls.append(len(mats))
            return real(mats, dims)

        monkeypatch.setattr(qmath, "_validate", counting)
        rng = np.random.default_rng(3)
        stack = np.array([random_psd(8, rng) * 0.5 for _ in range(5)])
        states, _ = normalize_stack(stack, (2, 2, 2))
        assert calls == [5]
        for a, b in zip(states, states[1:]):
            assert not np.shares_memory(a.mat, b.mat)
        with pytest.raises(ValueError):
            states[0].mat[0, 0] = 1.0

    def test_empty_stack(self):
        assert normalize_stack(np.zeros((0, 4, 4), dtype=complex), (2, 2)) == ([], [])


# --- validation against a reference implementation --------------------------


def _allclose_hermitian(m):
    return np.allclose(m, m.conj().T, atol=ATOL)


def _reference_validation(mat, dims):
    """Reference checks DensityMatrix must agree with: np.allclose for
    Hermiticity and eigvalsh for positivity, one matrix at a time."""
    mat = np.asarray(mat, dtype=complex)
    d = int(np.prod(dims))
    if mat.shape != (d, d):
        raise DimensionError("shape")
    if abs(np.trace(mat) - 1.0) > ATOL:
        raise InvariantViolation("trace")
    if not _allclose_hermitian(mat):
        raise NotHermitianError("hermitian")
    if np.linalg.eigvalsh(mat).min() < -ATOL:
        raise NotPSDError("psd")


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type is the outcome
        return type(exc)
    return None


def _hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


_DIMS = st.sampled_from([1, 2, 4, 8])
_SEEDS = st.integers(0, 2**32 - 1)


_NON_FINITE = st.sampled_from(
    [None, np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(np.nan, 1.0)]
)


class TestHermitianCheck:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=_SEEDS,
        dim=_DIMS,
        scale=st.sampled_from([1e-12, 1e-9, 1e-6, 1.0, 1e6]),
        bad=_NON_FINITE,
        mirrored=st.booleans(),
    )
    def test_matches_allclose_on_random_matrices(self, seed, dim, scale, bad, mirrored):
        # Finite input: exactly np.allclose's accept set.  One non-finite
        # entry (and its mirror, which np.allclose would take as close):
        # rejected.
        rng = np.random.default_rng(seed)
        g = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for m in (g, _hermitian(dim, rng) * scale + g * 1e-11):
            if bad is None:
                assert _is_hermitian(m) == _allclose_hermitian(m)
            else:
                i, j = rng.integers(dim, size=2)
                m[i, j] = bad
                if mirrored:
                    m[j, i] = np.conj(bad)
                assert _is_hermitian(m) is False

    @settings(max_examples=300, deadline=None)
    @given(
        seed=_SEEDS,
        dim=st.sampled_from([2, 4, 8]),
        factor=st.floats(0.5, 2.0),
        magnitude=st.sampled_from([0.0, 1e-6, 1.0, 1e5, 1e8]),
    )
    def test_matches_allclose_at_the_tolerance_edge(self, seed, dim, factor, magnitude):
        # Perturb one off-diagonal entry by factor * (ATOL + 1e-5 |m^H|), in a
        # random direction of the complex plane.
        rng = np.random.default_rng(seed)
        m = _hermitian(dim, rng) * magnitude
        i, j = rng.choice(dim, size=2, replace=False)
        tol = ATOL + 1e-5 * abs(m[j, i])
        m[i, j] += factor * tol * np.exp(2j * np.pi * rng.random())
        assert _is_hermitian(m) == _allclose_hermitian(m)

    @pytest.mark.parametrize("magnitude", [0.0, 0.3, 1e3, 1e7])
    @pytest.mark.parametrize("factor, inside", [(1 - 1e-6, True), (1 + 1e-6, False)])
    def test_just_inside_and_just_outside(self, magnitude, factor, inside):
        m = np.array([[0.5, magnitude], [magnitude, 0.5]], dtype=complex)
        m[0, 1] += factor * (ATOL + 1e-5 * magnitude)
        assert _allclose_hermitian(m) is inside
        assert _is_hermitian(m) is inside

    @pytest.mark.parametrize(
        "entries", [[[0.5, 1e308], [-1e308, 0.5]], [[0.5, 1e308j], [1e308j, 0.5]]]
    )
    def test_overflowing_difference_is_rejected_without_warning(self, entries):
        m = np.array(entries, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _is_hermitian(m) is False
            with pytest.raises(NotHermitianError, match="^DensityMatrix: not Hermitian$"):
                DensityMatrix(m, (2,))

    @pytest.mark.parametrize(
        "entries",
        [
            [[0.5, np.inf], [np.inf, 0.5]],
            [[0.5, np.inf], [-np.inf, 0.5]],
            [[0.5, np.nan], [np.nan, 0.5]],
            [[0.5, np.inf], [0.0, 0.5]],
            [[np.inf, 0.0], [0.0, -np.inf]],
        ],
    )
    def test_non_finite_entries(self, entries):
        # np.allclose accepts the first and last (equal infinities); the
        # finiteness test rejects every one of them, with no numpy warning.
        m = np.array(entries, dtype=complex)
        assert _is_hermitian(m) is False
        with pytest.raises(NotHermitianError):
            DensityMatrix(m, (2,))


_KINDS = st.sampled_from(["state", "scaled", "hermitian", "perturbed", "shape", "diag_edge"])


class TestValidationOutcomes:
    @settings(max_examples=300, deadline=None)
    @given(seed=_SEEDS, kind=_KINDS, dim=st.sampled_from([2, 4, 8]))
    def test_same_exception_as_before(self, seed, kind, dim):
        rng = np.random.default_rng(seed)
        dims = {2: (2,), 4: (2, 2), 8: (2, 2, 2)}[dim]
        if kind == "state":
            m = random_psd(dim, rng)
        elif kind == "scaled":
            m = random_psd(dim, rng) * rng.choice([1 - 1e-9, 1 + 1e-11, 1.5])
        elif kind == "hermitian":
            # Unit trace, Hermitian, often indefinite.
            m = _hermitian(dim, rng)
            m += np.eye(dim) * (1.0 - np.trace(m).real) / dim
        elif kind == "perturbed":
            m = random_psd(dim, rng)
            i, j = rng.choice(dim, size=2, replace=False)
            m[i, j] += rng.choice([0.5, 0.99, 1.01, 2.0]) * (ATOL + 1e-5 * abs(m[j, i]))
        elif kind == "shape":
            m = random_psd(dim // 2 if dim > 2 else 4, rng)
        else:
            # Diagonal, so eigh and eigvalsh are exact: least eigenvalue
            # just above or below -ATOL.
            w = rng.random(dim) + 0.1
            w[-1] = -ATOL * rng.choice([1 - 1e-6, 1 + 1e-6])
            w[0] += 1.0 - w.sum()
            m = np.diag(w)
        assert _outcome(DensityMatrix, m, dims) is _outcome(_reference_validation, m, dims)

    @pytest.mark.parametrize(
        "m, dims, error",
        [
            (np.eye(4) / 4, (2,), DimensionError),
            (np.eye(3) / 3, (2, 2), DimensionError),
            (np.eye(4) / 2, (2, 2), InvariantViolation),
            (np.array([[0.5, 0.1], [0.0, 0.5]]), (2,), NotHermitianError),
            (np.array([[0.5, np.nan], [np.nan, 0.5]]), (2,), NotHermitianError),
            (np.diag([1.5, -0.5]), (2,), NotPSDError),
            (np.diag([1.0 + ATOL * 0.999, -ATOL * 0.999]), (2,), None),
            (np.diag([1.0 + ATOL * 1.001, -ATOL * 1.001]), (2,), NotPSDError),
            # Split row (reference, DensityMatrix): the reference accepts
            # it, since np.allclose takes equal infinities as close and
            # eigvalsh then returns NaN, which no later check catches.
            # DensityMatrix rejects non-finite entries as not Hermitian.
            # The id names the reference's outcome, as for the rows above.
            pytest.param(
                np.array([[0.5, np.inf], [np.inf, 0.5]]),
                (2,),
                (None, NotHermitianError),
                id="m8-dims8-None",
            ),
            # +inf and -inf on the diagonal sum to a NaN trace.  The
            # reference's np.trace warns; DensityMatrix rejects the matrix
            # as not Hermitian, with no warning.
            pytest.param(
                np.array([[np.inf, 0.0], [0.0, -np.inf]]),
                (2,),
                (RuntimeWarning, NotHermitianError),
                id="inf_minus_inf_diagonal",
            ),
            # A bad trace still wins over a non-finite off-diagonal entry.
            (np.array([[2.0, np.nan], [np.nan, 0.0]]), (2,), InvariantViolation),
            # A finite diagonal whose sum overflows.  The reference's
            # np.trace warns; DensityMatrix rejects the infinite trace, with
            # no warning.
            pytest.param(
                np.diag([1e308, 1e308]),
                (2,),
                (RuntimeWarning, InvariantViolation),
                id="overflowing_trace",
            ),
            # Finite off-diagonal entries whose m - m^H overflows.  The
            # reference's np.allclose warns; DensityMatrix rejects the matrix
            # as not Hermitian, with no warning.
            pytest.param(
                np.array([[0.5, 1e308], [-1e308, 0.5]]),
                (2,),
                (RuntimeWarning, NotHermitianError),
                id="overflowing_adjoint_difference",
            ),
            pytest.param(
                np.array([[0.5, 1e308j], [1e308j, 0.5]]),
                (2,),
                (RuntimeWarning, NotHermitianError),
                id="overflowing_adjoint_difference_imag",
            ),
            # Huge but Hermitian: both accept it as Hermitian and find the
            # negative eigenvalue.
            (np.array([[0.5, 1e308], [1e308, 0.5]]), (2,), NotPSDError),
        ],
    )
    def test_explicit_examples(self, m, dims, error):
        reference, error = error if isinstance(error, tuple) else (error, error)
        # A numpy warning is raised, so it shows as the outcome.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _outcome(_reference_validation, m, dims) is reference
            assert _outcome(DensityMatrix, m, dims) is error


def _states(rng):
    """Random states plus the degenerate spectra of the channel's marginals."""
    out = [DensityMatrix(random_psd(4, rng), (2, 2)) for _ in range(20)]
    out += [werner(q) for q in (0.0, 0.3, 1.0)]
    for T in (0.2, 0.5, 0.7):
        joint = couple(singlet_standard(), mixed_env(), CouplingParams(T)).rho
        out += [joint.ptrace(keep) for keep in ((0, 1), (0, 2), (1, 2))]
    return out


class TestReadersOfMat:
    """Every reader computes from ``mat`` alone, bit for bit the reference
    formula on it; ``mat`` is a read-only copy of the input."""

    def test_concurrence_bitwise_equal(self):
        # An X-form state gets the closed form, bit for bit; any other state
        # the Wootters route over a new decomposition of its matrix.
        kinds = set()
        for rho in _states(np.random.default_rng(8)):
            m = rho.mat
            x_form = not np.any(m[~np.eye(4, dtype=bool) & ~np.eye(4, dtype=bool)[::-1]])
            if x_form:
                d = [max(float(m[i, i].real), 0.0) for i in range(4)]
                roots = (np.sqrt(d[0] * d[3]), np.sqrt(d[1] * d[2]))
                mods = (abs(m[1, 2]), abs(m[0, 3]))
                diff = max(mods[0] - roots[0], mods[1] - roots[1], 0.0)
                value = min(2.0 * diff, 1.0)
                lam = sorted([roots[0] + mods[1], roots[1] + mods[0],
                              roots[0] - mods[1], roots[1] - mods[0]], reverse=True)
            else:
                root = _descending_root(m)
                lam = np.sort(np.linalg.svd(root @ _YY @ root.T, compute_uv=False))[::-1]
                value = min(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0), 1.0)
            kinds.add(x_form)
            got = concurrence(rho)
            assert got.value == float(value)
            assert got.lambdas == tuple(float(x) for x in lam)
        assert kinds == {True, False}

    def test_fidelity_bitwise_equal(self):
        states = _states(np.random.default_rng(9))
        for rho, sigma in zip(states, states[1:]):
            root = _descending_root(rho.mat)
            inner = root @ sigma.mat @ root
            w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
            want = min(max(float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2), 0.0), 1.0)
            assert fidelity(rho, sigma) == want

    def test_mat_is_read_only(self):
        rho = DensityMatrix(random_psd(4, np.random.default_rng(10)), (2, 2))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0

    def test_mat_is_an_owned_copy(self):
        src = random_psd(4, np.random.default_rng(11))
        rho = DensityMatrix(src, (2, 2))
        before = rho.mat.copy()
        src[0, 0] += 1.0
        assert np.array_equal(rho.mat, before)

    def test_fields_are_mat_and_dims(self):
        assert [f.name for f in dataclasses.fields(DensityMatrix)] == ["mat", "dims"]


class TestIdentitySemantics:
    def test_equality_is_identity(self):
        a, b = singlet_standard(), singlet_standard()
        assert a == a and not (a != a)
        assert not (a == b) and a != b

    def test_hash_and_set_membership(self):
        a, b = singlet_standard(), singlet_standard()
        assert hash(a) == hash(a)
        states = {a, b}
        assert len(states) == 2 and a in states and b in states
        assert werner(0.5) not in states
        assert {a: 1}[a] == 1


# --- stacked validation and batched concurrence ------------------------------

_FAILURES = ("trace", "hermitian", "psd", "non_finite")


def _bad_state(kind, dim, rng):
    """A state that fails exactly one check: the named one."""
    m = random_psd(dim, rng)
    if kind == "trace":
        return m * 1.5
    if kind == "hermitian":
        m[0, 1] += 2.0 * (ATOL + 1e-5 * abs(m[1, 0]))
        return m
    if kind == "psd":
        w = np.full(dim, 1.0 / (dim - 1))
        w[-1] = -rng.uniform(1e-3, 0.5)
        w[0] -= w.sum() - 1.0
        u = random_unitary(dim, rng)
        return (u * w) @ u.conj().T
    m[0, 1] = m[1, 0] = np.inf
    return m


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestStackValidation:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=_SEEDS,
        dim=st.sampled_from([2, 4, 8]),
        k=st.integers(1, 6),
        failures=st.lists(st.sampled_from(_FAILURES), max_size=len(_FAILURES), unique=True),
        data=st.data(),
    )
    def test_stack_matches_each_state_alone(self, seed, dim, k, failures, data):
        rng = np.random.default_rng(seed)
        dims = {2: (2,), 4: (2, 2), 8: (2, 2, 2)}[dim]
        mats = [random_psd(dim, rng) for _ in range(k)]
        for kind in failures:
            at = data.draw(st.integers(0, len(mats)), label=kind)
            mats.insert(at, _bad_state(kind, dim, rng))
        stack = np.array(mats, dtype=complex)
        if not failures:
            assert _raised(_validate, stack, dims) is None
            assert all(_raised(DensityMatrix, m, dims) is None for m in mats)
            return
        first = next(m for m in mats if _raised(DensityMatrix, m, dims) is not None)
        want = _raised(DensityMatrix, first, dims)
        assert want[0] is not None
        assert _raised(_validate, stack, dims) == want

    @pytest.mark.parametrize("kind", _FAILURES)
    def test_each_failure_kind_raises_its_own_error(self, kind):
        rng = np.random.default_rng(13)
        m = _bad_state(kind, 4, rng)
        want = {"trace": InvariantViolation, "hermitian": NotHermitianError,
                "psd": NotPSDError, "non_finite": NotHermitianError}[kind]
        assert _raised(DensityMatrix, m, (2, 2))[0] is want
        stack = np.array([random_psd(4, rng), m, _bad_state("trace", 4, rng)])
        assert _raised(_validate, stack, (2, 2)) == _raised(DensityMatrix, m, (2, 2))

    def test_wrong_shape_stack(self):
        stack = np.array([np.eye(4) / 4] * 3, dtype=complex)
        assert _raised(_validate, stack, (2,)) == _raised(DensityMatrix, np.eye(4) / 4, (2,))


def _planted(dim, side, delta, rng):
    """A unit-trace state whose least eigenvalue is -ATOL + side * delta,
    rotated by a random unitary."""
    least = -ATOL + side * delta
    w = rng.random(dim - 1) + 0.1
    w = np.append(w * (1.0 - least) / w.sum(), least)
    u = random_unitary(dim, rng)
    return (u * w) @ u.conj().T


class TestAcceptSet:
    """The positivity check decides by the side of -ATOL the least eigenvalue
    lies on, for states planted at least 1e-14 from it (roundoff in the
    rotation and in eigvalsh is a few 1e-16 here)."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=_SEEDS,
        dim=st.sampled_from([4, 8]),
        plants=st.lists(
            st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-14, 1e-11)), min_size=1, max_size=6
        ),
    )
    def test_decides_by_the_side_of_the_threshold(self, seed, dim, plants):
        rng = np.random.default_rng(seed)
        dims = {4: (2, 2), 8: (2, 2, 2)}[dim]
        mats = [_planted(dim, side, delta, rng) for side, delta in plants]
        outcomes = [_raised(_validate, m[None], dims) for m in mats]
        for (side, _), got in zip(plants, outcomes):
            if side > 0:
                assert got is None
            else:
                assert got[0] is NotPSDError
        # A stack decides as its states alone: the first rejected one raises.
        want = next((o for o in outcomes if o is not None), None)
        assert _raised(_validate, np.array(mats), dims) == want


def _three_qubit_states():
    rng = np.random.default_rng(14)
    out = [DensityMatrix(random_psd(8, rng), (2, 2, 2)) for _ in range(30)]
    # An X-form (0, 1) marginal beside two that are not.
    out += [DensityMatrix(kron(singlet().mat, random_psd(2, rng)), (2, 2, 2)) for _ in range(3)]
    for T in (0.0, 0.5, 1.0, 1 / np.sqrt(3), 1 - 1 / np.sqrt(3)):
        for p in (0.0, 0.85, 1.0):
            ps = couple(
                singlet_standard(), mixed_env(), CouplingParams(T), IndistinguishabilityModel(p)
            )
            out.append(ps.rho)
    return out


class TestPairConcurrences:
    def test_bitwise_equal_to_concurrence_of_each_marginal(self):
        for rho in _three_qubit_states():
            want = tuple(concurrence(rho.ptrace(keep)).value for keep in ((0, 1), (0, 2), (1, 2)))
            got = pair_concurrences(rho)
            assert all(type(x) is float for x in got)
            assert got == want
            assert [np.signbit(x) for x in got] == [np.signbit(x) for x in want]

    def test_rejects_other_dims(self):
        with pytest.raises(DimensionError):
            pair_concurrences(singlet_standard())
