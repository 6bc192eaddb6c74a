import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconc.errors import ConfigError, DimensionError
from entconc.metrics import concurrence, fidelity
from entconc.protocol import sigma3_closed_form
from entconc.qmath import DensityMatrix
from entconc.states import singlet, singlet_standard, werner
from entconc.tomography import BASIS, PROJECTORS, reconstruct, simulate_counts
from helpers import KET_H, born_probabilities_per_projector, random_psd, random_unitary, sigma2


class TestSettings:
    def test_default_is_complete(self):
        # 16 rank-one product projectors, HH first.
        assert PROJECTORS.shape == (16, 4, 4)
        hh = np.kron(np.outer(KET_H, KET_H), np.outer(KET_H, KET_H))
        assert np.array_equal(PROJECTORS[0], hh)
        for p in PROJECTORS:
            assert np.allclose(p @ p, p, atol=1e-15)
            assert np.allclose(p, p.conj().T, atol=0)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-15)

    def test_basis_is_informationally_complete(self):
        # The 16 settings span the 4x4 matrices: their Gram matrix is
        # nonsingular, so linear inversion has a unique solution.
        gram = (BASIS.conj() @ BASIS.T).real
        assert abs(np.linalg.det(gram)) > 1e-12
        assert np.linalg.matrix_rank(BASIS) == 16

    def test_constants_are_read_only(self):
        with pytest.raises(ValueError):
            PROJECTORS[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            BASIS[0, 0] = 0.0

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_stacked_born_probabilities_are_bitwise_the_per_projector_trace(self, seed, rank):
        # A seeded Poisson draw can move with the last bit of its mean, so
        # the stacked trace must reproduce the per-projector loop exactly.
        rng = np.random.default_rng(seed)
        u = random_unitary(4, rng)[:, :rank]
        w = rng.dirichlet(np.ones(rank))
        rho = DensityMatrix((u * w) @ u.conj().T, (2, 2))
        want = np.clip(born_probabilities_per_projector(rho), 0.0, 1.0)
        assert np.array_equal(simulate_counts(rho), want)


class TestArguments:
    def test_negative_shots_rejected(self):
        with pytest.raises(ConfigError, match="shots must be >= 0, got -5"):
            simulate_counts(singlet_standard(), -5)

    def test_wrong_dims_rejected(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 4))
        with pytest.raises(DimensionError):
            simulate_counts(rho)


class TestIdealReconstruction:
    @pytest.mark.parametrize(
        "rho",
        [
            singlet(),
            singlet_standard(),
            werner(0.3),
            sigma2(0.4),
            sigma3_closed_form(0.4, 0.25),
        ],
        ids=["singlet", "singlet_std", "werner", "sigma2", "sigma3"],
    )
    def test_exact_round_trip(self, rho):
        rec = reconstruct(simulate_counts(rho))
        assert np.abs(rec.mat - rho.mat).max() < 1e-10
        assert fidelity(rec, rho) == pytest.approx(1.0, abs=1e-10)

    def test_random_states(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            rho = DensityMatrix(random_psd(4, rng), (2, 2))
            rec = reconstruct(simulate_counts(rho))
            assert np.abs(rec.mat - rho.mat).max() < 1e-10


class TestFiniteShots:
    def test_seeded_counts_reproducible(self):
        rho = sigma2(0.4)
        c1 = simulate_counts(rho, 5000, np.random.default_rng(7))
        c2 = simulate_counts(rho, 5000, np.random.default_rng(7))
        assert np.array_equal(c1, c2)

    def test_counts_are_poisson_scale(self):
        counts = simulate_counts(singlet_standard(), 10000, np.random.default_rng(8))
        assert counts.max() <= 11000
        assert counts.min() >= 0

    def test_high_shot_fidelity(self):
        rho = sigma2(0.4)
        counts = simulate_counts(rho, 10**5, np.random.default_rng(9))
        rec = reconstruct(counts, 10**5)
        assert fidelity(rec, rho) > 0.99

    def test_reconstruction_always_physical(self):
        # Even at low shot counts the output passes the density-matrix
        # invariants (construction would raise otherwise).
        rng = np.random.default_rng(10)
        for _ in range(10):
            counts = simulate_counts(singlet_standard(), 50, rng)
            rec = reconstruct(counts, 50)
            assert np.linalg.eigvalsh(rec.mat).min() >= -1e-12

    def test_concurrence_estimate_near_truth(self):
        rho = sigma2(0.4)
        counts = simulate_counts(rho, 10**5, np.random.default_rng(11))
        rec = reconstruct(counts, 10**5)
        assert concurrence(rec).value == pytest.approx(
            concurrence(rho).value, abs=0.05
        )
