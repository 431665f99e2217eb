"""Canonical-weight invariance and curvature sign for Inoue surfaces."""

import numpy as np
import pytest

from biherm.errors import ConstraintViolation, GroupDataError
from biherm.exterior import J_STD, invariant_part, metric_from_form, wedge_to_volume
from biherm.inoue import (
    InoueGenerator,
    InoueGroupData,
    curvature_closed_form,
    curvature_form,
    degree_sign_report,
    inoue_data_from_json,
    inoue_samples,
    verify_weight_invariance,
)

# S_M reference: gamma0 = (4w, beta z) with |beta|^2 = 1/4, plus translations
SM_DATA = InoueGroupData("SM", (
    InoueGenerator(p=4.0, q=0.0, r=0.5j),
    InoueGenerator(p=1.0, q=1.3, r=1.0, u=0.7 + 0.2j),
    InoueGenerator(p=1.0, q=-0.4, r=1.0, u=-1.1 + 0.9j),
))

# S+ reference: gamma0 = (alpha w, z + t) and shear generators
SPLUS_DATA = InoueGroupData("S+", (
    InoueGenerator(p=3.0, q=0.0, r=1.0, u=0.25),
    InoueGenerator(p=1.0, q=0.8, r=1.0, s=0.6, u=0.3),
    InoueGenerator(p=1.0, q=-1.2, r=1.0, s=-0.2, u=1.1),
))

SMINUS_DATA = InoueGroupData("S-", (
    InoueGenerator(p=2.0, q=0.0, r=-1.0, u=0.4),
    InoueGenerator(p=1.0, q=0.5, r=1.0, s=1.0, u=0.0),
))


class TestWeightInvariance:
    def test_sm_reference_values(self):
        # direct substitution for gamma0 = (4w, beta z): Im(4w) = 4 Im(w)
        # and |det|^2 = (4 |beta|)^2 = 4, so the tensor law gives equality
        w = np.array([0.3 + 1.7j])
        z = np.array([0.2 - 0.1j])
        g0 = SM_DATA.generators[0]
        assert np.imag(g0.apply(w, z)[0])[0] == pytest.approx(4 * 1.7)
        assert abs(g0.holomorphic_det) ** 2 == pytest.approx(4.0)
        res = verify_weight_invariance(SM_DATA, w, z)
        assert np.max(res) < 1e-12

    @pytest.mark.parametrize("data", (SM_DATA, SPLUS_DATA, SMINUS_DATA))
    def test_families_invariant(self, data):
        w, z = inoue_samples(5, 100)
        assert np.max(verify_weight_invariance(data, w, z)) < 1e-12

    def test_translations_trivially_invariant(self):
        w, z = inoue_samples(6, 50)
        data = InoueGroupData("SM", (
            InoueGenerator(p=4.0, q=0.0, r=0.5),
            InoueGenerator(p=1.0, q=2.2, r=1.0, u=1.0 + 1.0j),
        ))
        assert np.max(verify_weight_invariance(data, w, z)) < 1e-14

    def test_sm_constraint_violation(self):
        data = InoueGroupData("SM", (InoueGenerator(p=4.0, q=0.0, r=0.7),))
        with pytest.raises(ConstraintViolation, match="alpha"):
            data.validate()

    def test_spm_multiplier_constraint(self):
        data = InoueGroupData("S+", (InoueGenerator(p=2.0, q=0.0, r=0.5j),))
        with pytest.raises(ConstraintViolation):
            data.validate()


class TestCurvature:
    def test_sm_value_at_i(self):
        c = curvature_form(SM_DATA, np.array([1j]))
        assert c[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
        off = np.array(c[0])
        off[0, 1] = off[1, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-12

    def test_splus_value_at_2i(self):
        c = curvature_form(SPLUS_DATA, np.array([2j]))
        assert c[0, 0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_translation_invariance_of_coefficient(self):
        w = np.array([0.0 + 1.3j, 2.5 + 1.3j, -1.1 + 1.3j])
        c = curvature_form(SM_DATA, w)
        assert np.max(np.abs(c - c[0])) < 1e-13

    @pytest.mark.parametrize("data", (SM_DATA, SPLUS_DATA))
    def test_jet_matches_closed_form_on_samples(self, data):
        w, _ = inoue_samples(11, 100)
        curv = curvature_form(data, w)
        closed = curvature_closed_form(data, w)
        assert np.max(np.abs(curv - closed)) < 1e-8

    def test_nonnegative_one_one_form(self):
        w, _ = inoue_samples(13, 50)
        c = curvature_form(SM_DATA, w)
        g = metric_from_form(c, J_STD)
        eigs = np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g, -1, -2)))
        assert np.min(eigs) > -1e-14          # nonnegative
        assert np.min(np.max(eigs, axis=-1)) > 0.0  # positive in w-plane
        assert np.max(np.abs(invariant_part(c, J_STD) - c)) < 1e-13

    def test_pairing_with_positive_forms_nonnegative(self):
        rng = np.random.default_rng(17)
        w, _ = inoue_samples(17, 30)
        c = curvature_form(SPLUS_DATA, w)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            spd = a @ a.T + 0.3 * np.eye(4)
            spd = 0.5 * (spd + np.einsum("ji,jk,kl->il", J_STD, spd, J_STD))
            omega = J_STD.T @ spd  # positive (1,1)-form of the metric spd
            pairing = wedge_to_volume(c, omega)
            assert np.min(pairing) > 0.0


class TestVerdict:
    @pytest.mark.parametrize("data", (SM_DATA, SPLUS_DATA, SMINUS_DATA))
    def test_exclusion(self, data):
        report = degree_sign_report(data)
        assert report["excluded"]
        assert "no bihermitian structure" in report["verdict"]
        assert report["evidence"]["invariance_max_residual"] < 1e-10
        assert report["evidence"]["curvature_max_residual"] < 1e-8

    def test_invalid_constraints_refuse(self):
        data = InoueGroupData("SM", (InoueGenerator(p=4.0, q=0.0, r=0.9),))
        with pytest.raises(ConstraintViolation):
            degree_sign_report(data)


class TestParsing:
    def test_roundtrip(self):
        doc = {
            "family": "SM",
            "generators": [
                {"p": 4.0, "r": {"re": 0.0, "im": 0.5}},
                {"p": 1.0, "q": 1.3, "r": 1.0, "u": {"re": 0.7, "im": 0.2}},
            ],
        }
        data = inoue_data_from_json(doc)
        assert data.family == "SM"
        assert data.generators[0].r == 0.5j
        assert data.weight_exponent == 1

    def test_bad_family(self):
        with pytest.raises(GroupDataError):
            inoue_data_from_json({"family": "X", "generators": [{"p": 1.0}]})

    def test_missing_generators(self):
        with pytest.raises(GroupDataError, match="generators"):
            inoue_data_from_json({"family": "SM"})
