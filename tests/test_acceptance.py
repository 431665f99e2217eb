"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; every tolerance is pinned here, nothing is deferred.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from biherm.certificate import (
    CertificateConfig,
    StructureField,
    assemble_from_triple,
    check_gamma_equivariance,
    check_pointwise_algebra,
    deck_images,
    run_certificate,
)
from biherm.cli import main
from biherm.deformation import (
    integrate_flow,
    quotient_triple,
    select_deformation_time,
)
from biherm.exterior import HOLO_RE, J_STD, KAHLER_STD, wedge_to_volume
from biherm.hopf_groups import (
    ContractionParams,
    ContractionPower,
    HopfGroupData,
    UnitaryElement,
    group_closure,
)
from biherm.inoue import InoueGenerator, InoueGroupData, curvature_closed_form, curvature_form, degree_sign_report, inoue_samples, verify_weight_invariance
from biherm.oracles import rotation_flow
from biherm.potentials import (
    PotentialField,
    flow_apply,
    flow_spec_for,
    fundamental_annulus_sample,
    verify_h_invariance,
    verify_rescaling,
)
from support import check_integrability, t_zero_derivative_check

EPS3 = np.exp(2j * np.pi / 3)

CASE_A = ContractionParams(0.3 + 0.4j, 0.3 - 0.4j)
CASE_B = ContractionParams(0.5, 0.6)
CASE_C = ContractionParams(0.6, 0.6, lam=0.1, m=1)

H_A = (np.array([[0, 1], [-1, 0]], dtype=complex), np.diag([1j, -1j]))
H_B = (np.diag([EPS3, 1 / EPS3]),)
H_C = (np.diag([-1.0 + 0j, -1.0]),)

GROUPS = {
    "a": HopfGroupData(CASE_A, H_A),
    "b": HopfGroupData(CASE_B, H_B),
    "c": HopfGroupData(CASE_C, H_C),
}


def report_line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_oracle_suite():
    start = time.time()
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100, 4))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    x *= rng.uniform(0.7, 1.0, size=(100, 1))

    spec_a = flow_spec_for(ContractionParams(0.5, 0.5))
    state = integrate_flow(spec_a, 0.3, x)
    rotation_residual = np.max(np.abs(state.x_t - rotation_flow(0.3, x)))

    spec_c = flow_spec_for(CASE_C)
    s, t = rng.uniform(-2, 2, 100), rng.uniform(-2, 2, 100)
    group_law = np.max(np.abs(
        flow_apply(spec_c, s, flow_apply(spec_c, t, x)) - flow_apply(spec_c, s + t, x)))

    pot = PotentialField(spec_a).potential(x)
    norm2 = np.sum(x**2, axis=-1)
    closed_form = max(
        float(np.max(np.abs(pot.f - norm2) / norm2)),
        float(np.max(np.abs(pot.r - np.log(norm2) / (2 * np.log(0.5))))),
    )
    elapsed = time.time() - start
    ok = (rotation_residual < 1e-9 and group_law < 1e-12
          and closed_form < 1e-12 and elapsed < 5.0)
    report_line(1, ok, f"rotation {rotation_residual:.2e} (<1e-9), "
                       f"group law {group_law:.2e} (<1e-12), "
                       f"closed form {closed_form:.2e} (<1e-12), {elapsed:.1f}s (<5s)")


def test_criterion_2_potential_properties():
    start = time.time()
    worst_rescale = worst_invariance = 0.0
    worst_margin = np.inf
    for name, data in GROUPS.items():
        spec = flow_spec_for(data.contraction)
        samples = fundamental_annulus_sample(7, data.contraction, 1000)
        pot = PotentialField(spec).potential(samples)
        rescale = np.max(verify_rescaling(
            spec, ContractionPower(data.contraction, 1), pot))
        invariance = np.max(verify_h_invariance(
            spec, group_closure(data.h_generators), pot))
        margin = float(np.min(pot.margin))
        worst_rescale = max(worst_rescale, float(rescale))
        worst_invariance = max(worst_invariance, float(invariance))
        worst_margin = min(worst_margin, margin)
    elapsed = time.time() - start
    ok = (worst_rescale < 1e-10 and worst_invariance < 1e-10
          and worst_margin > 0.0 and elapsed < 30.0)
    report_line(2, ok, f"rescaling {worst_rescale:.2e} (<1e-10), "
                       f"H-invariance {worst_invariance:.2e} (<1e-10), "
                       f"ddc margin {worst_margin:.3f} (>0) at 1000 samples x3 cases, "
                       f"{elapsed:.1f}s (<30s)")


def test_criterion_3_deformation_invariants():
    start = time.time()
    spec = flow_spec_for(CASE_B)
    samples = fundamental_annulus_sample(7, CASE_B, 50)
    pf = PotentialField(spec)
    pot = pf.potential(samples)
    f0 = pot.f
    t_star = select_deformation_time(spec, pot)[0].t

    worst_f = worst_phi = worst_sq = worst_mixed = 0.0
    for t in (0.01, 0.05, t_star):
        state = integrate_flow(spec, t, samples)
        f1 = pf.f_value(state.x_t)
        worst_f = max(worst_f, float(np.max(np.abs(f1 - f0) / f0)))
        pulled = np.einsum("...ji,jk,...kl->...il", state.jac, HOLO_RE, state.jac)
        worst_phi = max(worst_phi, float(np.max(np.abs(pulled - HOLO_RE))))
        triple = quotient_triple(spec, state)
        phi2 = wedge_to_volume(triple.phi, triple.phi)
        psi2 = wedge_to_volume(triple.psi_minus, triple.psi_minus)
        mixed = wedge_to_volume(triple.phi, triple.psi_minus)
        worst_sq = max(worst_sq, float(np.max(np.abs(psi2 - phi2))))
        worst_mixed = max(worst_mixed, float(np.max(np.abs(mixed))))

    slope = float(np.max(t_zero_derivative_check(spec, samples, h_t=1e-4)))
    elapsed = time.time() - start
    ok = (worst_f < 1e-8 and worst_phi < 1e-7 and worst_sq < 1e-7
          and worst_mixed < 1e-7 and slope < 1e-5 and elapsed < 60.0)
    report_line(3, ok, f"f-invariance {worst_f:.2e} (<1e-8), "
                       f"phi pullback {worst_phi:.2e} (<1e-7), "
                       f"wedge {max(worst_sq, worst_mixed):.2e} (<1e-7), "
                       f"t-slope {slope:.2e} (<1e-5), t*={t_star}, "
                       f"{elapsed:.1f}s (<60s)")


def test_criterion_4_full_certificate():
    start = time.time()
    failures = []
    details = []
    for name, data in GROUPS.items():
        report = run_certificate(CertificateConfig(data=data, n=200, seed=7))
        payload = report.to_json_dict()
        for family, stats in payload["identities"].items():
            if not stats["pass"]:
                failures.append((name, family, stats["max"]))
        details.append(f"case {name}: t*={report.t}, "
                       f"excluded={report.excluded_samples}")
    elapsed = time.time() - start
    ok = not failures and elapsed < 180.0
    report_line(4, ok, f"{'; '.join(details)}; all families at tier "
                       f"across 3 cases x 200 samples, {elapsed:.1f}s (<180s)"
                       + (f"; FAILURES {failures}" if failures else ""))


CLASSIFY_TABLE = [
    # (document, expected case, expected exit code)
    ({"alpha": {"re": 0.3, "im": 0.4}, "beta": {"re": 0.3, "im": -0.4},
      "H": [[-1, 0, 0, -1]]}, "a", 0),
    ({"alpha": 0.5, "beta": 0.5,
      "H": [[0, 1, -1, 0], [{"im": 1}, 0, 0, {"im": -1}]]}, "a", 0),
    ({"alpha": {"re": 0.55, "im": 0.2}, "beta": {"re": 0.55, "im": -0.2}}, "a", 0),
    ({"alpha": 0.5, "beta": 0.6,
      "H": [[{"re": -0.5, "im": 0.8660254037844386}, 0, 0,
             {"re": -0.5, "im": -0.8660254037844386}]]}, "b", 0),
    ({"alpha": 0.5, "beta": 0.6}, "b", 0),
    ({"alpha": {"re": 0.4, "im": 0.1}, "beta": {"re": 0.66482488897, "im": -0.16620622224}},
     "b", 0),
    ({"alpha": 0.6, "beta": 0.6, "lambda": 0.1, "m": 1,
      "H": [[-1, 0, 0, -1]]}, "c", 0),
    ({"alpha": 0.49, "beta": 0.7, "lambda": 0.05, "m": 2,
      "H": [[{"re": -0.5, "im": 0.8660254037844386}, 0, 0,
             {"re": -0.5, "im": -0.8660254037844386}]]}, "c", 0),
    ({"alpha": 0.216, "beta": 0.6, "lambda": 0.01, "m": 3,
      "H": [[-1, 0, 0, -1]]}, "c", 0),
    # rejections: alpha*beta not in R+*, det(h) != 1, m != k*ell - 1
    ({"alpha": {"im": 0.5}, "beta": 0.6}, "not_real_type", 2),
    ({"alpha": 0.5, "beta": 0.7, "H": [[{"im": 1}, 0, 0, {"im": 1}]]},
     "not_real_type", 2),
    ({"alpha": 0.6, "beta": 0.6, "lambda": 0.1, "m": 1,
      "H": [[{"im": 1}, 0, 0, {"im": -1}]]}, "invalid", 2),
]


def test_criterion_5_classification_table(tmp_path, capsys):
    assert len(CLASSIFY_TABLE) >= 12
    rows = []
    for i, (doc, expected_case, expected_code) in enumerate(CLASSIFY_TABLE):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        code = main(["classify", "--config", str(path)])
        payload = json.loads(capsys.readouterr().out)
        rows.append((payload["case"], code))
        assert payload["case"] == expected_case, (i, payload)
        assert code == expected_code, (i, code)
    with capsys.disabled():
        report_line(5, True, f"{len(CLASSIFY_TABLE)} curated inputs "
                             f"(9 accepts, 3 rejections) all labelled and "
                             f"exit-coded as expected")


def test_criterion_6_inoue_exclusion():
    start = time.time()
    sm = InoueGroupData("SM", (
        InoueGenerator(p=4.0, q=0.0, r=0.5j),
        InoueGenerator(p=1.0, q=1.3, r=1.0, u=0.7 + 0.2j),
    ))
    spm = InoueGroupData("S+", (
        InoueGenerator(p=3.0, q=0.0, r=1.0, u=0.25),
        InoueGenerator(p=1.0, q=0.8, r=1.0, s=0.6, u=0.3),
    ))
    worst_inv = worst_curv = 0.0
    verdicts = []
    for data in (sm, spm):
        w, z = inoue_samples(11, 200)
        worst_inv = max(worst_inv, float(np.max(verify_weight_invariance(data, w, z))))
        worst_curv = max(worst_curv, float(np.max(np.abs(
            curvature_form(data, w) - curvature_closed_form(data, w)))))
        verdicts.append(degree_sign_report(data)["verdict"])
    elapsed = time.time() - start
    ok = (worst_inv < 1e-10 and worst_curv < 1e-8
          and all("no bihermitian structure" in v for v in verdicts)
          and elapsed < 5.0)
    report_line(6, ok, f"invariance {worst_inv:.2e} (<1e-10), "
                       f"curvature vs closed form {worst_curv:.2e} (<1e-8), "
                       f"verdicts emitted for S_M and S+, {elapsed:.1f}s (<5s)")


def test_criterion_7_negative_controls():
    # (i) eps^{m+1} != 1 trips both the potential invariance and the
    # equivariance detectors
    spec_c = flow_spec_for(CASE_C)
    samples = fundamental_annulus_sample(7, CASE_C, 12)
    bad_eps = np.diag([1j, -1j])
    inv = float(np.max(verify_h_invariance(
        spec_c, [bad_eps], PotentialField(spec_c).potential(samples))))
    field = StructureField(spec_c, 0.25)
    bad_h = [UnitaryElement(bad_eps)]
    equi = check_gamma_equivariance(
        field.assemble(samples[:6]),
        field.assemble(deck_images(bad_h, samples[:6])), bad_h)
    equi_res = float(np.max(equi["equivariance_metric"]))
    control_1 = inv > 10 * 1e-10 and equi_res > 10 * 1e-7

    # (ii) psi_minus perturbed by 1e-3 * Kaehler form trips the pointwise
    # battery (the perturbation is first-order visible to the square of
    # j_minus, the volume identities and the invariant-part identity)
    spec_b = flow_spec_for(CASE_B)
    x = fundamental_annulus_sample(7, CASE_B, 20)
    state = integrate_flow(spec_b, 0.2, x)
    triple = quotient_triple(spec_b, state)
    bad = replace(triple, psi_minus=triple.psi_minus + 1e-3 * KAHLER_STD)
    res = check_pointwise_algebra(
        assemble_from_triple(bad, state))
    fired = {name: float(np.max(res[name]))
             for name in ("j_minus_square", "volume_psi_minus",
                          "invariant_part_psi_minus")}
    control_2 = all(v > 10 * 1e-9 for v in fired.values())

    # (iii) a synthetic non-integrable field trips the Nijenhuis detector
    def jfield(points):
        angle = 0.3 * np.sin(points[..., 0] + 2.0 * points[..., 3])
        c, s = np.cos(angle), np.sin(angle)
        zero, one = np.zeros_like(c), np.ones_like(c)
        rot = np.stack([
            np.stack([c, zero, -s, zero], axis=-1),
            np.stack([zero, one, zero, zero], axis=-1),
            np.stack([s, zero, c, zero], axis=-1),
            np.stack([zero, zero, zero, one], axis=-1),
        ], axis=-2)
        return np.einsum("...ji,jk,...kl->...il", rot, J_STD, rot)

    nij = float(np.max(check_integrability(jfield, np.array([[0.4, 0.0, 0.3, 0.2]]))))
    control_3 = nij > 10 * 1e-5

    ok = control_1 and control_2 and control_3
    report_line(7, ok, f"eps detector {inv:.2e}/{equi_res:.2e} (>=10x tiers), "
                       f"perturbation detector {min(fired.values()):.2e} (>=1e-8), "
                       f"nijenhuis detector {nij:.2e} (>=1e-4)")


def test_criterion_8_determinism(tmp_path):
    doc = {"alpha": 0.5, "beta": 0.6,
           "H": [[{"re": -0.5, "im": 0.8660254037844386}, 0, 0,
                  {"re": -0.5, "im": -0.8660254037844386}]]}
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps(doc))
    payloads = []
    for run, threads in ((0, "1"), (1, "1"), (2, "3")):
        out = tmp_path / f"rep{run}.json"
        old = os.environ.get("BIHERM_THREADS")
        os.environ["BIHERM_THREADS"] = threads
        try:
            code = main(["certify", "--config", str(cfg), "--samples", "16",
                         "--seed", "5", "--out", str(out)])
        finally:
            if old is None:
                os.environ.pop("BIHERM_THREADS", None)
            else:
                os.environ["BIHERM_THREADS"] = old
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    report_line(8, ok, "byte-identical reports across two runs and two "
                       "thread-pool sizes (1 and 3 workers)")
