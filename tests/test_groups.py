"""Group closure, real-type criterion, classification, group actions."""

import numpy as np
import pytest

from biherm.errors import GroupDataError, NotFinite
from biherm.hopf_groups import (
    CaseLabel,
    ContractionParams,
    ContractionPower,
    HopfGroupData,
    UnitaryElement,
    apply_group_element,
    classify,
    group_closure,
    group_data_from_json,
    jacobian,
)
from biherm import hopf_groups

from support import canonical_multiplier

EPS3 = np.exp(2j * np.pi / 3)


def diag_h(eps):
    return np.diag([eps, 1.0 / eps])


class TestGroupClosure:
    def test_minus_identity(self):
        closure = group_closure([-np.eye(2)])
        assert len(closure) == 2

    def test_cyclic_of_order_three(self):
        closure = group_closure([diag_h(EPS3)])
        assert len(closure) == 3

    def test_irrational_rotation_not_finite(self):
        with pytest.raises(NotFinite):
            group_closure([np.diag([np.exp(1j), np.exp(-1j)])])

    def test_quaternion_group(self):
        gens = [np.array([[0, 1], [-1, 0]], dtype=complex), np.diag([1j, -1j])]
        closure = group_closure(gens)
        assert len(closure) == 8

    def test_contains_identity_and_closed(self):
        closure = group_closure([diag_h(EPS3)])
        assert np.allclose(closure[0], np.eye(2))
        for a in closure:
            for b in closure:
                prod = a @ b
                assert any(np.max(np.abs(prod - c)) < 1e-8 for c in closure)

    def test_non_unitary_rejected(self):
        with pytest.raises(GroupDataError):
            group_closure([np.diag([2.0, 0.5])])


class TestRealType:
    """Real type (alpha*beta a positive real, det h = 1 on the closure of H),
    as classify decides it."""

    def test_conjugate_pair_with_center(self):
        data = HopfGroupData(ContractionParams(0.3 + 0.4j, 0.3 - 0.4j),
                             (-np.eye(2),))
        label = classify(data)
        assert label.kind == "a" and label.ell == 2

    def test_determinant_minus_one_rejected(self):
        data = HopfGroupData(ContractionParams(0.5, 0.7), (np.diag([1j, 1j]),))
        label = classify(data)
        assert label.kind == "not_real_type" and "SU(2)" in label.reason

    def test_imaginary_product_rejected(self):
        data = HopfGroupData(ContractionParams(0.5j, 0.6))
        label = classify(data)
        assert label.kind == "not_real_type" and "positive real" in label.reason

    def test_invariant_under_normal_form_conjugation(self):
        # conjugating H by a diagonal unitary preserves det, hence the verdict
        u = np.diag([np.exp(0.3j), np.exp(-0.7j)])
        h = diag_h(EPS3)
        data1 = HopfGroupData(ContractionParams(0.5, 0.6), (h,))
        data2 = HopfGroupData(ContractionParams(0.5, 0.6),
                              (u @ h @ u.conj().T,))
        assert classify(data1) == classify(data2)


class TestClassify:
    def test_case_b_reference(self):
        label = classify(HopfGroupData(ContractionParams(0.5, 0.6),
                                       (diag_h(EPS3),)))
        assert label.kind == "b"
        assert label.a == pytest.approx(0.3)
        assert label.ell == 3

    def test_case_b_chain_margin(self):
        # |alpha|^2 = 0.2916 < a = 0.3: accepted
        ok = classify(HopfGroupData(ContractionParams(0.54, 0.3 / 0.54),
                                    (diag_h(EPS3),)))
        assert ok.kind == "b"
        # the rejected twin |alpha| = 0.55 has |alpha| > |beta|: normal form fails
        bad = classify(HopfGroupData(ContractionParams(0.55, 0.3 / 0.55),
                                     (diag_h(EPS3),)))
        assert bad.kind == "invalid"

    def test_case_c_reference(self):
        label = classify(HopfGroupData(
            ContractionParams(0.6, 0.6, lam=0.1, m=1), (-np.eye(2),)))
        assert label.kind == "c"
        assert label.ell == 2 and label.k == 1
        assert label.a == pytest.approx(0.36)

    def test_case_c_commutation_violation(self):
        label = classify(HopfGroupData(
            ContractionParams(0.6, 0.6, lam=0.1, m=1), (diag_h(1j),)))
        assert label.kind == "invalid"
        assert "k*ell - 1" in label.reason

    def test_case_a_complex_multiplier(self):
        label = classify(HopfGroupData(
            ContractionParams(0.3 + 0.4j, 0.3 - 0.4j), (-np.eye(2),)))
        assert label.kind == "a"
        assert label.a == pytest.approx(0.25)

    def test_case_a_binary_group(self):
        gens = (np.array([[0, 1], [-1, 0]], dtype=complex), np.diag([1j, -1j]))
        label = classify(HopfGroupData(ContractionParams(0.5, 0.5), gens))
        assert label.kind == "a" and label.ell == 8

    def test_not_real_type_labels(self):
        label = classify(HopfGroupData(ContractionParams(0.5j, 0.6)))
        assert label.kind == "not_real_type"
        label = classify(HopfGroupData(ContractionParams(0.5, 0.7),
                                       (np.diag([1j, 1j]),)))
        assert label.kind == "not_real_type"

    def test_invalid_contraction(self):
        label = classify(HopfGroupData(ContractionParams(0.9, 0.6)))
        assert label.kind == "invalid"
        label = classify(HopfGroupData(ContractionParams(0.5, 1.2)))
        assert label.kind == "invalid"
        # lambda without resonance
        label = classify(HopfGroupData(ContractionParams(0.5, 0.6, lam=0.1, m=1)))
        assert label.kind == "invalid"

    def test_case_b_requires_diagonal_h(self):
        gens = (np.array([[0, 1], [-1, 0]], dtype=complex),)
        label = classify(HopfGroupData(ContractionParams(0.5, 0.6), gens))
        assert label.kind == "invalid"

    def test_totality_every_label_has_reason_or_accepts(self):
        inputs = [
            ContractionParams(0.5, 0.6),
            ContractionParams(0.9, 0.1),
            ContractionParams(0.5j, 0.6),
            ContractionParams(0.6, 0.6, lam=0.5, m=1),
        ]
        for params in inputs:
            label = classify(HopfGroupData(params))
            assert isinstance(label, CaseLabel)
            assert label.accepted or label.reason

    @pytest.mark.parametrize("params, h, kind", [
        (ContractionParams(0.3 + 0.4j, 0.3 - 0.4j), (-np.eye(2),), "a"),
        (ContractionParams(0.5, 0.6), (diag_h(EPS3),), "b"),
        (ContractionParams(0.6, 0.6, lam=0.1, m=1), (-np.eye(2),), "c"),
        (ContractionParams(0.5, 0.7), (np.diag([1j, 1j]),), "not_real_type"),
    ])
    def test_builds_the_closure_once(self, monkeypatch, params, h, kind):
        calls = []

        def counting(gens):
            calls.append(gens)
            return group_closure(gens)

        monkeypatch.setattr(hopf_groups, "group_closure", counting)
        assert classify(HopfGroupData(params, h)).kind == kind
        assert len(calls) == 1

    @pytest.mark.parametrize("params, h, kind, reason", [
        (ContractionParams(0.9, 0.6), (), "invalid",
         "normal form requires 0 < |alpha| <= |beta|, got 0.9, 0.6"),
        (ContractionParams(0.5, 1.2), (), "invalid",
         "normal form requires |beta| < 1, got 1.2"),
        (ContractionParams(0.5, 0.6, m=0), (), "invalid",
         "m must be a positive integer, got 0"),
        (ContractionParams(0.5, 0.6, lam=0.1, m=1), (), "invalid",
         "resonance constraint lambda*(alpha - beta^m) = 0 violated "
         "(residual 1.000e-02)"),
        (ContractionParams(2.0**-1074, 0.5, lam=1.0, m=1074), (), "invalid",
         "lambda / beta^m is beyond double precision"),
        (ContractionParams(0.5, 0.6), (np.diag([2.0, 0.5]),), "invalid",
         "generator 0 is not unitary within 1e-10"),
        (ContractionParams(0.5, 0.6), (np.diag([np.exp(1j), np.exp(-1j)]),),
         "invalid", "closure exceeded cap of 1000 elements; generators do "
         "not span a finite group"),
        (ContractionParams(0.5j, 0.6), (), "not_real_type",
         "alpha*beta is not a positive real"),
        (ContractionParams(0.5, 0.6), (np.diag([1j, 1j]),), "not_real_type",
         "H is not contained in SU(2) (det(h) != 1)"),
        (ContractionParams(0.6, 0.6, lam=0.1, m=1),
         (np.array([[0, 1], [-1, 0]]),), "invalid",
         "lambda != 0 requires H to be the standard cyclic subgroup of "
         "S(U(1)xU(1))"),
        (ContractionParams(0.6, 0.6, lam=0.1, m=1), (np.diag([1j, -1j]),),
         "invalid", "H does not commute with the contraction: m = 1 is not "
         "of the form k*ell - 1 for ell = 4"),
        (ContractionParams(0.5, 0.6), (np.array([[0, 1], [-1, 0]]),),
         "invalid", "|alpha| != |beta| requires H inside U(1)xU(1) "
         "(all elements diagonal)"),
        (ContractionParams(1e-200, 0.6), (), "invalid",
         "parameter chain 0 < |alpha|^2 < a < |alpha| < 1 fails: "
         "(0.0, 5.999999999999999e-201, 1e-200)"),
    ])
    def test_refusal_reasons(self, params, h, kind, reason):
        label = classify(HopfGroupData(params, h))
        assert label.to_json() == {"case": kind, "reason": reason}


class TestGroupAction:
    def test_contraction_image_and_jacobian(self):
        gamma = ContractionPower(ContractionParams(0.5, 0.6), 1)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(apply_group_element(gamma, x), [0.5, 0, 0, 0])
        jac = jacobian(gamma, x)
        assert np.allclose(jac, np.diag([0.5, 0.5, 0.6, 0.6]))

    def test_shear_contraction_image(self):
        gamma = ContractionPower(ContractionParams(0.6, 0.6, lam=0.1, m=1), 1)
        x = np.array([0.0, 0.0, 1.0, 0.0])  # z = (0, 1)
        assert np.allclose(apply_group_element(gamma, x), [0.1, 0, 0.6, 0])

    def test_canonical_multipliers(self):
        params = ContractionParams(0.5, 0.6)
        assert canonical_multiplier(ContractionPower(params, 1)) == pytest.approx(0.3)
        assert canonical_multiplier(ContractionPower(params, -2)) == pytest.approx(0.3**-2)
        assert canonical_multiplier(UnitaryElement(diag_h(EPS3))) == pytest.approx(1.0)
        assert canonical_multiplier(UnitaryElement(np.diag([1j, 1j]))) == pytest.approx(-1.0)

    def test_jacobian_det_is_squared_modulus(self):
        params = ContractionParams(0.49, 0.7, lam=0.05, m=2)
        gamma = ContractionPower(params, 1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 4))
        det = np.linalg.det(jacobian(gamma, x))
        z2 = x[..., 2] + 1j * x[..., 3]
        hol_det = params.alpha * params.beta  # triangular holomorphic Jacobian
        del z2
        assert np.allclose(det, abs(hol_det) ** 2)

    @pytest.mark.parametrize("params", [
        ContractionParams(0.5, 0.6),
        ContractionParams(0.49, 0.7, lam=0.05, m=2),
    ])
    def test_jacobian_chain_rule(self, params):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 4))
        for n in (1, 2, -1):
            whole = ContractionPower(params, n + 1)
            step = ContractionPower(params, n)
            gamma = ContractionPower(params, 1)
            lhs = jacobian(whole, x)
            mid = apply_group_element(gamma, x)
            rhs = np.einsum("...ij,...jk->...ik", jacobian(step, mid),
                            jacobian(gamma, x))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            image = apply_group_element(step, mid)
            assert np.max(np.abs(image - apply_group_element(whole, x))) < 1e-12

    def test_unitary_round(self):
        h = UnitaryElement(diag_h(EPS3))
        x = np.array([[0.3, 0.5, -0.2, 0.1]])
        thrice = x
        for _ in range(3):
            thrice = apply_group_element(h, thrice)
        assert np.allclose(thrice, x, atol=1e-12)


class TestJsonParsing:
    def test_full_document(self):
        root3_half = float(np.sqrt(3) / 2)
        doc = {
            "alpha": {"re": 0.5, "im": 0.0},
            "beta": {"re": 0.6},
            "lambda": 0.0,
            "m": 1,
            "H": [[{"re": -0.5, "im": -root3_half}, 0, 0,
                   {"re": -0.5, "im": root3_half}]],
        }
        data = group_data_from_json(doc)
        assert data.contraction.alpha == 0.5
        assert len(data.h_generators) == 1

    def test_missing_required_field(self):
        with pytest.raises(GroupDataError, match="alpha"):
            group_data_from_json({"beta": 0.6})

    def test_bad_generator_row(self):
        with pytest.raises(GroupDataError, match=r"H\[0\]"):
            group_data_from_json({"alpha": 0.5, "beta": 0.6, "H": [[1, 2, 3]]})

    def test_bad_complex_entry(self):
        with pytest.raises(GroupDataError, match=r"H\[0\]\[2\]"):
            group_data_from_json(
                {"alpha": 0.5, "beta": 0.6, "H": [[1, 0, "x", 1]]})

    def test_bad_m(self):
        with pytest.raises(GroupDataError, match="m"):
            group_data_from_json({"alpha": 0.5, "beta": 0.6, "m": 0})
