import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entconc.errors import DimensionError, InvariantViolation, NotHermitianError, NotPSDError
from entconc.metrics import _YY, concurrence, fidelity, pair_concurrences
from entconc.qmath import (
    ATOL,
    DensityMatrix,
    _is_hermitian,
    _validate,
    herm_eigen,
    kron,
    partial_trace,
    psd_sqrt,
    random_psd,
    random_unitary,
)
from entconc.states import SIGMA_X, SIGMA_Y, mixed_env, singlet
from entconc.channel import (
    CouplingParams,
    IndistinguishabilityModel,
    couple,
    couple_mixed_indistinguishability,
)
from entconc.states import singlet_standard, werner

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

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.eye(2), np.ones((3, 2))),
            (np.ones(4), np.eye(2)),
            (np.eye(2), np.ones((2, 2, 2))),
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
    def test_diagonal(self):
        w, v = herm_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_sigma_x(self):
        w, v = herm_eigen(SIGMA_X)
        assert np.allclose(w, [1.0, -1.0])
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)))

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
    def test_werner_spectrum(self, q):
        w, _ = herm_eigen(werner(q).mat)
        expected = sorted([(1 + 3 * q) / 4] + [(1 - q) / 4] * 3, reverse=True)
        assert np.allclose(w, expected, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for dim in (2, 4, 8):
            m = random_psd(dim, rng)
            w, v = herm_eigen(m)
            assert np.abs((v * w) @ v.conj().T - m).max() < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_density_matrix_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = DensityMatrix(random_psd(4, rng), (2, 2))
            assert abs(rho.eigenvalues().sum() - 1.0) < 1e-9


class TestPsdSqrt:
    def test_scaled_identity(self):
        assert np.abs(psd_sqrt(np.eye(4) / 4) - np.eye(4) / 2).max() < 1e-12

    def test_pure_projector_idempotent(self):
        proj = singlet().mat
        assert np.abs(psd_sqrt(proj) - proj).max() < 1e-9

    def test_diagonal(self):
        out = psd_sqrt(np.diag([4.0, 1.0]) / 5)
        assert np.abs(out - np.diag([2.0, 1.0]) / np.sqrt(5)).max() < 1e-12

    def test_square_reproduces(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_psd(4, rng)
            r = psd_sqrt(m)
            assert np.abs(r @ r - m).max() < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -0.5]))


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


# --- validation against a reference implementation --------------------------


def _allclose_hermitian(m):
    return np.allclose(m, m.conj().T, atol=ATOL)


def _reference_validation(mat, dims):
    """Reference checks DensityMatrix must agree with: np.allclose for
    Hermiticity and eigvalsh for positivity, no kept decomposition."""
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
            herm_eigen(m)


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
        ],
    )
    def test_explicit_examples(self, m, dims, error):
        reference, error = error if isinstance(error, tuple) else (error, error)
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


class TestKeptDecomposition:
    def test_psd_sqrt_and_herm_eigen_bitwise_equal(self):
        for rho in _states(np.random.default_rng(7)):
            w, v = herm_eigen(rho.mat)
            w_kept, v_kept = herm_eigen(rho)
            assert np.array_equal(w, w_kept) and np.array_equal(v, v_kept)
            assert np.array_equal(psd_sqrt(rho), psd_sqrt(rho.mat))
            assert np.array_equal(rho.eigenvalues(), w)

    def test_concurrence_bitwise_equal(self):
        for rho in _states(np.random.default_rng(8)):
            root = psd_sqrt(rho.mat)
            lam = np.sort(np.linalg.svd(root @ _YY @ root.T, compute_uv=False))[::-1]
            value = min(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0), 1.0)
            got = concurrence(rho)
            assert got.value == float(value)
            assert got.lambdas == tuple(float(x) for x in lam)

    def test_reversal_is_the_old_argsort_order(self):
        # Descending order is eigh's output reversed; on the degenerate
        # spectra of the channel's marginals and Werner states that is the
        # order argsort gave.
        for rho in _states(np.random.default_rng(12)):
            w, v = np.linalg.eigh(rho.mat)
            order = np.argsort(w)[::-1]
            assert np.array_equal(order, np.arange(len(w))[::-1])
            w_kept, v_kept = rho.eig
            assert np.array_equal(w_kept, w[order]) and np.array_equal(v_kept, v[:, order])

    def test_fidelity_bitwise_equal(self):
        states = _states(np.random.default_rng(9))
        for rho, sigma in zip(states, states[1:]):
            root = psd_sqrt(rho.mat)
            inner = root @ sigma.mat @ root
            w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
            want = min(max(float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2), 0.0), 1.0)
            assert fidelity(rho, sigma) == want

    def test_mat_is_read_only(self):
        rho = DensityMatrix(random_psd(4, np.random.default_rng(10)), (2, 2))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0
        w, v = rho.eig
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    def test_mat_is_an_owned_copy(self):
        src = random_psd(4, np.random.default_rng(11))
        rho = DensityMatrix(src, (2, 2))
        before = rho.mat.copy()
        src[0, 0] += 1.0
        assert np.array_equal(rho.mat, before)


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
            w, v = _validate(stack, dims)
            for i, m in enumerate(mats):
                w_one, v_one = DensityMatrix(m, dims).eig
                assert np.array_equal(w[i], w_one) and np.array_equal(v[i], v_one)
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


def _three_qubit_states():
    rng = np.random.default_rng(14)
    out = [DensityMatrix(random_psd(8, rng), (2, 2, 2)) for _ in range(30)]
    for T in (0.0, 0.5, 1.0, 1 / np.sqrt(3), 1 - 1 / np.sqrt(3)):
        for p in (0.0, 0.85, 1.0):
            ps = couple_mixed_indistinguishability(
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
