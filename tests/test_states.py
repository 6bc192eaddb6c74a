import numpy as np
import pytest

from entconc.cascade import CascadeParams, simulate_cascade
from entconc.channel import CouplingParams, couple
from entconc.metrics import concurrence, purity
from entconc.protocol import apply_filter, run_protocol
from entconc.qmath import DensityMatrix, kron
from entconc.states import (
    MIXED_ENV,
    SINGLET_STANDARD,
    classify_werner,
    mixed_env,
    singlet,
    singlet_standard,
    werner,
)
from helpers import is_x_form, sigma2


class TestSinglet:
    def test_populations(self):
        m = singlet().mat
        assert abs(m[1, 1] - 0.5) < 1e-12
        assert abs(m[2, 2] - 0.5) < 1e-12

    def test_cross_phase(self):
        # (HV, VH) entry of the -i-phase ket projector is +i/2.
        assert abs(singlet().mat[1, 2] - 0.5j) < 1e-12

    def test_maximally_entangled(self):
        assert abs(concurrence(singlet()).value - 1.0) < 1e-12
        assert abs(concurrence(singlet_standard()).value - 1.0) < 1e-12

    def test_phase_conventions_differ_by_local_phase(self):
        u = kron(np.diag([1.0, -1.0j]), np.eye(2))
        rotated = u @ singlet().mat @ u.conj().T
        assert np.abs(rotated - singlet_standard().mat).max() < 1e-12

    def test_identity_filter_leaves_singlet_fixed(self):
        out = apply_filter(singlet(), (1.0, 1.0), (1.0, 1.0))
        assert np.abs(out.rho.mat - singlet().mat).max() < 1e-12
        assert abs(out.success_prob - 1.0) < 1e-12


class TestMixedEnv:
    def test_trace(self):
        assert abs(np.trace(mixed_env().mat) - 1.0) < 1e-12

    def test_purity(self):
        assert abs(purity(mixed_env()) - 0.5) < 1e-12

    def test_product_of_mixed_is_unentangled(self):
        rho = DensityMatrix(kron(mixed_env().mat, mixed_env().mat), (2, 2))
        assert concurrence(rho).value == 0.0


class TestConstantInputs:
    @pytest.mark.parametrize(
        "constant, build", [(SINGLET_STANDARD, singlet_standard), (MIXED_ENV, mixed_env)]
    )
    def test_bitwise_the_fresh_state(self, constant, build):
        fresh = build()
        assert fresh is not constant and fresh is not build()
        assert constant.dims == fresh.dims
        got, want = constant.mat, fresh.mat
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_protocol_and_cascade_start_from_the_constant(self):
        assert run_protocol(0.4, eps=0.25, p=0.85).steps[0].state is SINGLET_STANDARD
        steps = simulate_cascade(CascadeParams((0.4, 0.7)), p=0.85).steps
        assert steps[0].state is SINGLET_STANDARD


class TestClassifyWerner:
    def test_maximally_mixed(self):
        dec = classify_werner(DensityMatrix(np.eye(4) / 4, (2, 2)))
        assert dec.singlet_weight == pytest.approx(0.0, abs=1e-12)
        assert dec.residual < 1e-12

    def test_pure_singlet(self):
        dec = classify_werner(singlet())
        assert dec.singlet_weight == pytest.approx(1.0, abs=1e-12)
        assert dec.residual < 1e-12

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
    def test_round_trip(self, q):
        dec = classify_werner(werner(q))
        assert dec.singlet_weight == pytest.approx(q, abs=1e-12)
        assert dec.residual < 1e-12

    def test_channel_output_at_t06(self):
        ps = couple(singlet_standard(), mixed_env(), CouplingParams(0.6))
        dec = classify_werner(ps.rho.ptrace((0, 1)))
        assert dec.residual < 1e-10
        # The chain uses the standard-phase singlet, so the fallback fit wins.
        assert dec.phase_convention == "standard"


class TestIsXForm:
    def test_post_measurement_state(self):
        assert is_x_form(sigma2(0.4))

    def test_maximally_mixed(self):
        assert is_x_form(DensityMatrix(np.eye(4) / 4, (2, 2)))

    def test_diagonal_coherence_rejected(self):
        d = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = DensityMatrix(kron(np.outer(d, d), np.diag([1.0, 0.0])).astype(complex), (2, 2))
        assert not is_x_form(rho)
