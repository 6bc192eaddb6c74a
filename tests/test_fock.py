import io
import json

import numpy as np
import pytest

from entconc import fock
from entconc.channel import CouplingParams, couple, hom_coincidence
from entconc.cli import cmd_hom, read_config
from entconc.states import mixed_env, singlet_standard


def _single_photon(spatial="B", pol=0, tag="s"):
    return {fock.occ_key([(spatial, pol, tag)]): 1.0}


class TestBeamSplitterUnitary:
    def test_single_photon_transparent(self):
        out = fock.bs_unitary_apply(_single_photon(), 1.0)
        assert out == {fock.occ_key([("B", 0, "s")]): pytest.approx(1.0)}

    def test_norm_preserved(self):
        rng = np.random.default_rng(30)
        keys = [
            fock.occ_key([("B", 0, "s"), ("E", 0, "s")]),
            fock.occ_key([("B", 0, "s"), ("E", 1, "s")]),
            fock.occ_key([("B", 1, "e"), ("E", 0, "s")]),
            fock.occ_key([("B", 0, "s")]),
            fock.occ_key([("B", 0, "s"), ("B", 0, "s")]),
        ]
        for T in rng.uniform(0, 1, 10):
            amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
            state = dict(zip(keys, amps))
            norm_in = fock.state_norm(state)
            norm_out = fock.state_norm(fock.bs_unitary_apply(state, float(T)))
            assert abs(norm_in - norm_out) < 1e-12

    def test_photon_number_conserved(self):
        state = {fock.occ_key([("B", 0, "s"), ("E", 1, "e")]): 1.0}
        out = fock.bs_unitary_apply(state, 0.3)
        for key in out:
            assert sum(n for _, n in key) == 2

    def test_hom_bunching(self):
        # Identical photons, one per port, balanced BS: no coincidences.
        assert hom_coincidence(0.5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_distinguishable_coincidence(self):
        assert hom_coincidence(0.5, 0.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 0.85, 1.0])
    def test_coincidence_closed_form_matches_fock_space(self, p):
        # hom_coincidence is the closed form; mixing the Fock simulator's
        # identical and orthogonal-tag coincidences with weight p must give
        # the same probability.
        for T in np.linspace(0.0, 1.0, 101):
            fock_space = {}
            for tag in ("s", "e"):
                state = {fock.occ_key([("B", 0, "s"), ("E", 0, tag)]): 1.0}
                out = fock.bs_unitary_apply(state, float(T))
                fock_space[tag] = sum(
                    abs(a) ** 2 for k, a in out.items() if fock._one_per_spatial_mode(k)
                )
            want = p * fock_space["s"] + (1 - p) * fock_space["e"]
            assert abs(hom_coincidence(float(T), p) - want) <= 1e-15

    def test_coincidence_rejects_bad_transmittivity(self):
        with pytest.raises(fock.EntconcError, match="transmittivity 1.5"):
            hom_coincidence(1.5, 1.0)
        with pytest.raises(fock.EntconcError, match="indistinguishability 1.5"):
            hom_coincidence(0.5, 1.5)

    def test_two_photon_rule_coefficients(self):
        # One photon per port, same polarization and tag: the
        # one-per-output amplitude is T - R.
        for T in (0.2, 0.7):
            state = {fock.occ_key([("B", 0, "s"), ("E", 0, "s")]): 1.0}
            out = fock.bs_unitary_apply(state, T)
            amp = out.get(fock.occ_key([("B", 0, "s"), ("E", 0, "s")]), 0.0)
            assert amp == pytest.approx(2 * T - 1, abs=1e-12)


class TestPostselection:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for T in rng.uniform(0, 1, 10):
            cf = couple(singlet_standard(), mixed_env(), CouplingParams(float(T)))
            orc = fock.oracle_couple(singlet_standard(), mixed_env(), float(T))
            assert np.abs(cf.rho.mat - orc.rho.mat).max() < 1e-10
            assert abs(cf.success_prob - orc.success_prob) < 1e-10

    def test_bunching_excluded_at_half(self):
        state = {fock.occ_key([("B", 0, "s"), ("E", 0, "s")]): 1.0}
        out = fock.bs_unitary_apply(state, 0.5)
        coincidence = sum(
            abs(a) ** 2 for k, a in out.items() if fock._one_per_spatial_mode(k)
        )
        assert coincidence < 1e-24

    def test_orthogonal_tags_transparent(self):
        state = {fock.occ_key([("B", 0, "s"), ("E", 0, "e")]): 1.0}
        out = fock.bs_unitary_apply(state, 1.0)
        coincidence = sum(
            abs(a) ** 2 for k, a in out.items() if fock._one_per_spatial_mode(k)
        )
        assert coincidence == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_signalled(self):
        from entconc.errors import ZeroProbabilityError
        from entconc.qmath import normalize

        block, prob = fock.postselect_one_per_mode({})
        assert prob == 0.0
        with pytest.raises(ZeroProbabilityError):
            normalize(block, (2, 2, 2))


def _hom_rows(T, overlaps):
    """The rows ``entconc hom`` prints for this T and overlap grid."""
    out = io.StringIO()
    sets = [f"t={T!r}", "overlap_grid=" + ",".join(map(repr, overlaps))]
    cmd_hom(read_config("hom", sets=sets), out, "json")
    return json.loads(out.getvalue())


class TestHomScan:
    """``entconc hom`` over an overlap grid, from the closed-form dip."""

    def test_perfect_dip(self):
        (row,) = _hom_rows(0.5, [1.0])
        assert row["dip_rate"] == pytest.approx(0.0, abs=1e-12)
        assert row["visibility"] == pytest.approx(1.0, abs=1e-12)

    def test_no_overlap(self):
        (row,) = _hom_rows(0.5, [0.0])
        assert row["visibility"] == pytest.approx(0.0, abs=1e-12)

    def test_estimator_round_trip(self):
        for row in _hom_rows(0.5, [0.85, 0.3, 0.999]):
            assert row["p_recovered"] == pytest.approx(row["overlap"], abs=1e-12)

    def test_round_trip_off_balanced(self):
        (row,) = _hom_rows(0.4, [0.6])
        assert row["dip_rate"] == hom_coincidence(0.4, 0.6)
        assert row["p_recovered"] == pytest.approx(0.6, abs=1e-12)
