import numpy as np
import pytest

from entconc.errors import ConfigError
from entconc.metrics import concurrence, fidelity
from entconc.protocol import sigma3_closed_form
from entconc.qmath import DensityMatrix
from entconc.states import singlet, singlet_standard, werner
from entconc.tomography import (
    TomographySettings,
    default_settings,
    reconstruct,
    simulate_counts,
)
from helpers import random_psd, sigma2


class TestSettings:
    def test_default_is_complete(self):
        settings = default_settings()
        assert len(settings.projectors) == 16
        assert settings.labels[0] == "HH"

    def test_incomplete_set_rejected(self):
        base = default_settings()
        # Duplicating one projector 16 times is clearly not informationally
        # complete.
        with pytest.raises(ConfigError):
            TomographySettings(base.labels, (base.projectors[0],) * 16)


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
        settings = default_settings()
        counts = simulate_counts(rho, settings)
        rec = reconstruct(counts, settings)
        assert np.abs(rec.mat - rho.mat).max() < 1e-10
        assert fidelity(rec, rho) == pytest.approx(1.0, abs=1e-10)

    def test_random_states(self):
        rng = np.random.default_rng(60)
        settings = default_settings()
        for _ in range(10):
            rho = DensityMatrix(random_psd(4, rng), (2, 2))
            rec = reconstruct(simulate_counts(rho, settings), settings)
            assert np.abs(rec.mat - rho.mat).max() < 1e-10


class TestFiniteShots:
    def test_seeded_counts_reproducible(self):
        settings = default_settings(shots=5000)
        rho = sigma2(0.4)
        c1 = simulate_counts(rho, settings, np.random.default_rng(7))
        c2 = simulate_counts(rho, settings, np.random.default_rng(7))
        assert np.array_equal(c1, c2)

    def test_counts_are_poisson_scale(self):
        settings = default_settings(shots=10000)
        counts = simulate_counts(singlet_standard(), settings, np.random.default_rng(8))
        assert counts.max() <= 11000
        assert counts.min() >= 0

    def test_high_shot_fidelity(self):
        settings = default_settings(shots=10**5)
        rho = sigma2(0.4)
        counts = simulate_counts(rho, settings, np.random.default_rng(9))
        rec = reconstruct(counts, settings)
        assert fidelity(rec, rho) > 0.99

    def test_reconstruction_always_physical(self):
        # Even at low shot counts the output passes the density-matrix
        # invariants (construction would raise otherwise).
        settings = default_settings(shots=50)
        rng = np.random.default_rng(10)
        for _ in range(10):
            counts = simulate_counts(singlet_standard(), settings, rng)
            rec = reconstruct(counts, settings)
            assert rec.eig[0].min() >= -1e-12

    def test_concurrence_estimate_near_truth(self):
        settings = default_settings(shots=10**5)
        rho = sigma2(0.4)
        counts = simulate_counts(rho, settings, np.random.default_rng(11))
        rec = reconstruct(counts, settings)
        assert concurrence(rec).value == pytest.approx(
            concurrence(rho).value, abs=0.05
        )
