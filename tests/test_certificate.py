"""Assembly of the bihermitian structure and the identity batteries."""

import json
import math
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import biherm.certificate
import biherm.reporting
from biherm.certificate import (
    CertificateConfig,
    StructureField,
    assemble_from_triple,
    check_differential_identities,
    check_field_families,
    check_gamma_equivariance,
    check_pointwise_algebra,
    deck_images,
    lee_differentials,
    lee_theta_from_cloud,
    run_certificate,
)
from biherm.deformation import integrate_flow, quotient_triple
from biherm.errors import GroupDataError
from biherm.exterior import J_STD, KAHLER_STD, StencilCloud, stencil_step
from biherm.hopf_groups import (
    ContractionParams,
    ContractionPower,
    HopfGroupData,
    UnitaryElement,
)
from biherm.potentials import (
    PotentialField,
    flow_spec_for,
    fundamental_annulus_sample,
)
from biherm.reporting import CHUNK, chunked_map
from support import (
    check_integrability,
    cloud_lee_forms,
    d_one_form,
    d_three_form,
    hodge_star_one,
    solve_lee_form,
    three_from_dense,
)

CASE_A = ContractionParams(0.5, 0.5)
CASE_B = ContractionParams(0.5, 0.6)
CASE_C = ContractionParams(0.6, 0.6, lam=0.1, m=1)
SHEAR_M2 = ContractionParams(0.36, 0.6, lam=0.05, m=2)
EPS3 = np.exp(2j * np.pi / 3)
# gamma and the generator of H = <diag(eps, 1/eps)>, eps^3 = 1, for CASE_B
CASE_B_DECK = [ContractionPower(CASE_B, 1),
               UnitaryElement(np.diag([EPS3, 1 / EPS3]))]
#: rows of one mixed stencil cloud
CLOUD_ROWS = StencilCloud(np.zeros((1, 4)), np.ones(1),
                          mixed=True).points.shape[-2]


def build_sample(params, t, n=20, seed=3):
    spec = flow_spec_for(params)
    x = fundamental_annulus_sample(seed, params, n)
    state = integrate_flow(spec, t, x)
    sample = assemble_from_triple(quotient_triple(spec, state), state)
    # every sample of a flowed structure is positive in these tests
    assert t == 0.0 or np.all(sample.margin > 0.0)
    return sample, spec, x


class TestAssembly:
    def test_unflowed_structure_is_degenerate_boundary(self):
        # t = 0: j_minus = J_STD exactly, p = 1, and no sample is positive
        sample, _, _ = build_sample(CASE_B, 0.0)
        assert np.max(np.abs(sample.j_minus - J_STD)) < 1e-14
        assert np.max(np.abs(sample.p - 1.0)) < 1e-14
        assert np.all(sample.margin <= 0.0)

    def test_case_a_pullback_oracle(self):
        sample, spec, x = build_sample(CASE_A, 0.25)
        state = integrate_flow(spec, 0.25, x)
        expected = np.einsum("...ij,jk,...kl->...il",
                             np.linalg.inv(state.jac), J_STD, state.jac)
        assert np.max(np.abs(sample.j_minus - expected)) < 1e-8
        assert np.max(np.abs(sample.p - np.cos(1.0))) < 1e-9

    @pytest.mark.parametrize("params,t", [(CASE_A, 0.3), (CASE_B, 0.3), (CASE_C, 0.3)])
    def test_angle_function_strictly_inside(self, params, t):
        sample, _, _ = build_sample(params, t)
        assert np.max(np.abs(sample.p)) < 1.0
        # strongly bihermitian: j_minus stays away from +-J_STD
        dist_plus = np.max(np.abs(sample.j_minus - J_STD), axis=(-2, -1))
        dist_minus = np.max(np.abs(sample.j_minus + J_STD), axis=(-2, -1))
        assert np.min(dist_plus) > 0.01 and np.min(dist_minus) > 0.01

    def test_assemble_structure_includes_lee_forms(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(5, CASE_B, 3)
        state = integrate_flow(spec, 0.2, x)
        triple = quotient_triple(spec, state)
        sample = assemble_from_triple(triple, state)
        lee = cloud_lee_forms(StructureField(spec, 0.2), sample)
        assert lee.theta_plus.shape == (3, 4)
        # on the quotient construction theta_+ + theta_- = 2 tau
        total = lee.theta_plus + lee.theta_minus
        assert np.max(np.abs(total - 2.0 * sample.tau)) < 1e-5


def nested_lee_differentials(field, center, outer_scale=10.0):
    """Reference route to (delta theta_+, delta theta_-, d(theta_+ +
    theta_-)): theta_pm from a Richardson cloud around every point of an
    outer Richardson cloud (step outer_scale * fd_step), then one more
    finite-difference layer on theta_pm.  288 flow points per sample."""
    outer = StencilCloud(center.x,
                         stencil_step(center.x, outer_scale * field.fd_step))
    so = field.assemble(outer.points)
    inner = StencilCloud(outer.points, stencil_step(outer.points, field.fd_step))
    lee = lee_theta_from_cloud(so, inner, field.assemble(inner.points))
    thetas = (lee.theta_plus, lee.theta_minus)
    vol = np.sqrt(np.linalg.det(center.g))
    deltas = [-d_three_form(outer, three_from_dense(hodge_star_one(so.g, theta)))
              / vol for theta in thetas]
    return deltas[0], deltas[1], d_one_form(outer, thetas[0] + thetas[1])


class TestPointwiseBattery:
    @pytest.mark.parametrize("params,t", [(CASE_A, 0.4), (CASE_B, 0.35), (CASE_C, 0.3)])
    def test_all_identities_hold(self, params, t):
        sample, _, _ = build_sample(params, t, n=40)
        res = check_pointwise_algebra(sample)
        assert len(res) >= 10
        for name, values in res.items():
            tier = 1.0 if name == "angle_bound" else 1e-9
            assert np.max(values) < tier, name

    def test_synthetic_boundary_structure(self):
        # j_minus := J_STD makes the anticommutator vanish with p = 1
        sample, _, _ = build_sample(CASE_B, 0.0)
        res = check_pointwise_algebra(sample)
        assert np.max(res["anticommutator"]) < 1e-12
        assert np.max(res["angle_bound"]) == pytest.approx(1.0, abs=1e-13)

    def test_injected_error_detection(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(7, CASE_B, 20)
        state = integrate_flow(spec, 0.2, x)
        triple = quotient_triple(spec, state)
        bad = replace(triple, psi_minus=triple.psi_minus + 1e-3 * KAHLER_STD)
        res = check_pointwise_algebra(
            assemble_from_triple(bad, state))
        # first-order sensitive families must fire at >= 10x their tier
        for name in ("j_minus_square", "j_minus_orthogonality",
                     "volume_psi_minus", "invariant_part_psi_minus",
                     "exchange_f_plus"):
            assert np.max(res[name]) > 1e-8 * 10, name
            assert np.max(res[name]) > 1e-4  # actually first order


class TestLeeForms:
    def test_flat_kahler_field_has_zero_lee_forms(self):
        # constant forms: theta_pm = 0 identically
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 4))
        cloud = StencilCloud(x, np.full(5, 1e-3))
        k = cloud.points.shape[:-1]
        center = SimpleNamespace(g=np.broadcast_to(np.eye(4), (5, 4, 4)),
                                 j_minus=np.broadcast_to(J_STD, (5, 4, 4)))
        sc = SimpleNamespace(g=np.broadcast_to(np.eye(4), k + (4, 4)),
                             j_minus=np.broadcast_to(J_STD, k + (4, 4)),
                             f_plus=np.broadcast_to(KAHLER_STD, k + (4, 4)),
                             f_minus=np.broadcast_to(KAHLER_STD, k + (4, 4)))
        lee = lee_theta_from_cloud(center, cloud, sc)
        assert np.max(np.abs(lee.theta_plus)) < 1e-12
        assert np.max(np.abs(lee.theta_minus)) < 1e-12

    def test_conformally_flat_metric_recovers_exact_lee_form(self):
        # g = e^phi Id with J_STD: F = e^phi kahler, dF = dphi ^ F, so
        # theta = dphi; this pins the sign conventions of delta = -*d*
        def phi(x):
            return 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 3]) + 0.1 * x[..., 2]

        def dphi(x):
            return np.stack([
                0.3 * np.cos(x[..., 0]) * np.cos(x[..., 3]),
                np.zeros_like(x[..., 0]),
                0.1 * np.ones_like(x[..., 0]),
                -0.3 * np.sin(x[..., 0]) * np.sin(x[..., 3]),
            ], axis=-1)

        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 4)) * 0.7
        # the certificate's one cloud: mixed corners at 3 * fd_step
        cloud = StencilCloud(x, np.full(6, 3e-3), mixed=True)

        def data_at(points):
            scale = np.exp(phi(points))[..., None, None]
            return SimpleNamespace(
                x=points,
                g=scale * np.eye(4),
                f_plus=scale * KAHLER_STD,
                f_minus=scale * KAHLER_STD,
                j_minus=np.broadcast_to(J_STD, points.shape[:-1] + (4, 4)),
            )

        center = data_at(x)
        lee = lee_theta_from_cloud(center, cloud, data_at(cloud.points))
        expected = dphi(x)
        assert np.max(np.abs(lee.theta_plus - expected)) < 1e-7
        assert np.max(np.abs(lee.theta_minus - expected)) < 1e-7

        # partials of theta: delta theta = -e^-phi (laplacian phi + |d phi|^2),
        # and d theta = dd phi = 0
        delta_plus, delta_minus, d_sum = lee_differentials(center, lee)
        laplacian = -0.6 * np.sin(x[..., 0]) * np.cos(x[..., 3])
        expected = -np.exp(-phi(x)) * (laplacian + np.sum(dphi(x)**2, axis=-1))
        assert np.max(np.abs(delta_plus - expected)) < 1e-6
        assert np.max(np.abs(delta_minus - expected)) < 1e-6
        assert np.max(np.abs(d_sum)) < 1e-6

    def test_dual_route_agreement_on_pipeline(self):
        # theta from J(delta F) must agree with the wedge-solve of
        # dF = theta ^ F evaluated by independent finite differences
        spec = flow_spec_for(CASE_B)
        field = StructureField(spec, 0.25)
        x = fundamental_annulus_sample(10, CASE_B, 4)
        center = field.assemble(x)
        theta_plus = cloud_lee_forms(field, center).theta_plus
        for i in range(len(x)):
            y = x[i:i + 1]
            cloud = StencilCloud(y, stencil_step(y, 1e-3))
            d_comps = cloud.d_two_form(field.assemble(cloud.points).f_plus)[0]
            tau = solve_lee_form(center.f_plus[i], d_comps)
            assert np.max(np.abs(tau - theta_plus[i])) < 1e-6

    def test_conformal_covariance(self):
        # rescaling g by e^phi shifts both Lee forms by d phi
        def phi(points):
            return 0.2 * np.sin(points[..., 1] + points[..., 2])

        def dphi(points):
            c = 0.2 * np.cos(points[..., 1] + points[..., 2])
            zero = np.zeros_like(c)
            return np.stack([zero, c, c, zero], axis=-1)

        class RescaledField(StructureField):
            def assemble(self, pts):
                s = StructureField.assemble(self, pts)
                scale = np.exp(phi(pts))[..., None, None]
                return replace(s, g=scale * s.g, f_plus=scale * s.f_plus,
                               f_minus=scale * s.f_minus)

        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(11, CASE_B, 5)
        base = StructureField(spec, 0.25)
        scaled = RescaledField(spec, 0.25)
        lee0 = cloud_lee_forms(base, base.assemble(x))
        lee1 = cloud_lee_forms(scaled, scaled.assemble(x))
        shift = dphi(x)
        assert np.max(np.abs(lee1.theta_plus - lee0.theta_plus - shift)) < 1e-6
        assert np.max(np.abs(lee1.theta_minus - lee0.theta_minus - shift)) < 1e-6


class TestDifferentialBattery:
    @pytest.mark.parametrize("params,t", [(CASE_A, 0.4), (CASE_B, 0.3), (CASE_C, 0.25)])
    def test_identities_pass_their_tiers(self, params, t):
        spec = flow_spec_for(params)
        field = StructureField(spec, t)
        x = fundamental_annulus_sample(12, params, 6)
        center = field.assemble(x)
        res = check_differential_identities(center,
                                            cloud_lee_forms(field, center))
        tiers = {
            "quotient_leibniz_phi": 1e-6,
            "quotient_leibniz_psi_plus": 1e-6,
            "quotient_leibniz_psi_minus": 1e-6,
            "canonical_factor": 1e-4,
            "type_one_two_part": 1e-5,
            "nijenhuis_j_minus": 1e-5,
            "lee_scalar": 1e-3,
            "lee_sum_selfdual": 1e-4,
            "lee_sum_closed": 1e-4,
            "lee_sum_tau": 1e-6,
        }
        for name, tier in tiers.items():
            assert np.max(res[name]) < tier, (name, np.max(res[name]))

    @pytest.mark.parametrize("params", [CASE_A, CASE_B, CASE_C, SHEAR_M2])
    def test_second_order_stencil_matches_nested_route(self, params):
        spec = flow_spec_for(params)
        field = StructureField(spec, 0.3)
        center = field.assemble(fundamental_annulus_sample(12, params, 6))
        new = lee_differentials(center, cloud_lee_forms(field, center))
        reference = nested_lee_differentials(field, center)
        for name, a, b in zip(("delta_plus", "delta_minus", "d_sum"),
                              new, reference):
            gap = np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))
            assert gap < 1e-5, (name, gap)

    def test_second_partials_centre_is_on_the_cloud(self):
        # the Richardson diagonal weights its centre by 10/H^2 (about 1e6):
        # a centre from another step sequence than the arms (the base
        # assembly's) moved delta theta by 3.9e-5 under a 1e-11 relative
        # change of F_pm at the base points; the cloud's own base row does
        # not see the base assembly's F_pm at all
        spec = flow_spec_for(CASE_B)
        field = StructureField(spec, 0.3)
        center = field.assemble(fundamental_annulus_sample(12, CASE_B, 4))
        lee = cloud_lee_forms(field, center)
        nudged = replace(center, f_plus=center.f_plus * (1.0 + 1e-11),
                         f_minus=center.f_minus * (1.0 + 1e-11))
        for a, b in zip(lee_differentials(center, lee),
                        lee_differentials(nudged, lee)):
            assert np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))) < 1e-9

    @pytest.mark.parametrize("shape, slices", [
        ((CHUNK + 1, 4), [CHUNK, 1]),
        # whole clouds up to CHUNK = 8192 rows, then the rest
        ((CHUNK // CLOUD_ROWS + 1, CLOUD_ROWS, 4), [CHUNK // CLOUD_ROWS, 1]),
        ((3, 2, CLOUD_ROWS, 4), [3]),
    ])
    def test_chunks_hold_whole_entries_of_the_leading_axis(self, shape,
                                                           slices):
        seen = []

        def record(part):
            seen.append(part.shape[0])
            return {"x": part}

        x = np.arange(math.prod(shape), dtype=float).reshape(shape)
        assert np.array_equal(chunked_map(record, x, threads=2)["x"], x)
        assert sorted(seen, reverse=True) == slices

    def test_no_cloud_straddles_two_chunks(self):
        # each chunk of rows is one integration with its own step sequence;
        # clouds do not tile CHUNK = 8192 rows (41 rows each: the last of
        # 200 samples would put its first arms in one chunk and its centre in
        # the next).  Whole clouds per chunk: it is integrated as if alone.
        spec = flow_spec_for(CASE_B)
        field = StructureField(spec, 0.3)
        n = CHUNK // CLOUD_ROWS + 1
        assert CLOUD_ROWS * n > CHUNK > CLOUD_ROWS * (n - 1)
        center = field.assemble(fundamental_annulus_sample(12, CASE_B, n))
        together = lee_differentials(center, cloud_lee_forms(field, center))
        last = center.subset([n - 1])
        alone = lee_differentials(last, cloud_lee_forms(field, last))
        for a, b in zip(together, alone):
            a = a[n - 1:]
            assert np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))) < 1e-9

    def test_no_sample_straddles_two_chunks(self):
        # a certificate's batch at t holds each sample's cloud rows and its
        # k deck images as one entry; these entries (43 rows) do not tile
        # CHUNK, and the last of 191 samples would otherwise have its cloud
        # in one chunk and its images in the next
        spec = flow_spec_for(CASE_B)
        field = StructureField(spec, 0.3)
        elements = CASE_B_DECK
        rows = CLOUD_ROWS + len(elements)
        n = CHUNK // rows + 1
        assert rows * (n - 1) < CHUNK < rows * n
        center = field.assemble(fundamental_annulus_sample(12, CASE_B, n))
        together = check_field_families(field, center, elements, True)
        alone = check_field_families(field, center.subset([n - 1]), elements,
                                     True)
        assert len(together) == 12
        for name, value in together.items():
            assert abs(value[n - 1] - alone[name][0]) < 1e-9, name

    def test_flow_points_per_sample(self, monkeypatch):
        # one integration of each sample's mixed cloud (its base
        # row the centre of the second differences) and its k deck images
        # serves the first and second partials and equivariance
        import biherm.deformation

        spec = flow_spec_for(CASE_B)
        field = StructureField(spec, 0.3)
        elements = CASE_B_DECK
        n = 3
        center = field.assemble(fundamental_annulus_sample(12, CASE_B, n))
        points = []
        flow_states = biherm.deformation._flow_states

        def counting(spec, t_values, x, *args):
            points.append(math.prod(np.atleast_2d(x).shape[:-1]))
            return flow_states(spec, t_values, x, *args)

        monkeypatch.setattr(biherm.deformation, "_flow_states", counting)
        check_field_families(field, center, elements, True)
        assert points == [(CLOUD_ROWS + len(elements)) * n]

    @pytest.mark.parametrize("params", (CASE_A, CASE_B, CASE_C, SHEAR_M2),
                             ids=("a", "b", "c", "shear_m2"))
    def test_stencil_scale_keeps_derivative_families_in_tier(self, params):
        # the grid that STENCIL_SCALE's comment quotes: at t = 0.15, 0.3 and
        # 0.45 every derivative family stays within 0.1 of its tier (the
        # worst, lee_sum_tau on the shear at t = 0.45, reads 0.036)
        families = ("quotient_leibniz_phi", "quotient_leibniz_psi_plus",
                    "quotient_leibniz_psi_minus", "canonical_factor",
                    "type_one_two_part", "nijenhuis_j_minus", "lee_scalar",
                    "lee_sum_selfdual", "lee_sum_closed", "lee_sum_tau")
        for t in (0.15, 0.3, 0.45):
            report = run_certificate(CertificateConfig(
                data=HopfGroupData(params), t=t, n=32, seed=7))
            kept = report.n - report.excluded_samples
            for name in families:
                stats = report.identities[name]
                assert stats.count == kept > 0, (name, t)
                assert stats.max <= 0.1 * report.tolerances[name], (name, t)


class TestIntegrabilityDetector:
    def test_pipeline_j_minus_is_integrable(self):
        spec = flow_spec_for(CASE_B)
        field = StructureField(spec, 0.3)
        x = fundamental_annulus_sample(13, CASE_B, 5)

        def jfield(points):
            return field.assemble(points).j_minus

        res = check_integrability(jfield, x)
        assert np.max(res) < 1e-5

    def test_case_a_pullback_field(self):
        spec = flow_spec_for(CASE_A)
        field = StructureField(spec, 0.3)
        x = fundamental_annulus_sample(14, CASE_A, 5)

        def jfield(points):
            return field.assemble(points).j_minus

        res = check_integrability(jfield, x)
        assert np.max(res) < 1e-6

    def test_non_integrable_bump_fires(self):
        def jfield(points):
            angle = 0.3 * np.sin(points[..., 0] + 2.0 * points[..., 3])
            c, s = np.cos(angle), np.sin(angle)
            zero = np.zeros_like(c)
            one = np.ones_like(c)
            rot = np.stack([
                np.stack([c, zero, -s, zero], axis=-1),
                np.stack([zero, one, zero, zero], axis=-1),
                np.stack([s, zero, c, zero], axis=-1),
                np.stack([zero, zero, zero, one], axis=-1),
            ], axis=-2)
            return np.einsum("...ji,jk,...kl->...il", rot, J_STD, rot)

        res = check_integrability(jfield, np.array([[0.4, 0.0, 0.3, 0.2]]))
        assert np.max(res) > 1e-2


class TestEquivariance:
    @pytest.mark.parametrize("params,gens", [
        (CASE_B, (np.diag([EPS3, 1 / EPS3]),)),
        (CASE_C, (-np.eye(2),)),
    ])
    def test_deck_transformations(self, params, gens):
        spec = flow_spec_for(params)
        field = StructureField(spec, 0.25)
        x = fundamental_annulus_sample(15, params, 8)
        elements = [ContractionPower(params, 1)]
        elements += [UnitaryElement(g) for g in gens]
        res = check_gamma_equivariance(
            field.assemble(x), field.assemble(deck_images(elements, x)),
            elements)
        assert np.max(res["equivariance_metric"]) < 1e-7
        assert np.max(res["equivariance_j_minus"]) < 1e-7

    def test_constraint_violation_detector(self):
        # eps = i with m = 1 has eps^{m+1} != 1; equivariance must fail loudly
        spec = flow_spec_for(CASE_C)
        field = StructureField(spec, 0.25)
        x = fundamental_annulus_sample(16, CASE_C, 8)
        elements = [UnitaryElement(np.diag([1j, -1j]))]
        res = check_gamma_equivariance(
            field.assemble(x), field.assemble(deck_images(elements, x)),
            elements)
        assert np.max(res["equivariance_metric"]) > 1e-3


class TestRunCertificate:
    def test_case_b_small_run_passes(self):
        data = HopfGroupData(CASE_B, (np.diag([EPS3, 1 / EPS3]),))
        report = run_certificate(CertificateConfig(data=data, n=12, seed=7))
        assert report.passed
        assert report.case["case"] == "b"
        assert len(report.identities) >= 10
        assert report.excluded_samples == 0
        payload = report.to_json_dict()
        assert payload["pass"] is True
        assert all(v["pass"] for v in payload["identities"].values())

    def test_pool_sizes_give_identical_report_bytes(self, monkeypatch):
        # at CHUNK = 8192 a small run is one chunk and the pool never runs;
        # at 130 each chunk holds three samples' 43 rows (each a 41-point
        # cloud and 2 deck images), so the batch at t of 5 samples takes two
        # chunks and threads = 2 runs them in the pool
        monkeypatch.setattr(biherm.reporting, "CHUNK", 130)
        chunk_threads = []
        chunked = biherm.certificate.chunked_map

        def recording(fn, x, threads=1):
            def chunk(part):
                chunk_threads.append(threading.get_ident())
                return fn(part)
            return chunked(chunk, x, threads)

        monkeypatch.setattr(biherm.certificate, "chunked_map", recording)
        data = HopfGroupData(CASE_B, (np.diag([EPS3, 1 / EPS3]),))
        reports, counts = [], []
        for threads in (1, 2):
            chunk_threads.clear()
            reports.append(run_certificate(CertificateConfig(
                data=data, n=5, seed=7, threads=threads)).to_json())
            counts.append(len(chunk_threads))
            pooled = set(chunk_threads) - {threading.get_ident()}
            assert bool(pooled) == (threads > 1)
        assert counts[0] == counts[1] >= 2
        assert reports[0] == reports[1]

    def test_not_real_type_refusal(self):
        data = HopfGroupData(ContractionParams(0.5j, 0.6))
        report = run_certificate(CertificateConfig(data=data, n=5))
        assert not report.passed
        assert "real type" in report.refusal
        assert "alpha*beta in R+*" in report.refusal

    @pytest.mark.parametrize("t", [1e6, math.nan])
    def test_time_beyond_bound_is_refused_before_the_flow(self, t):
        # a bad time is a data error, not an analytic refusal after a long
        # integration
        data = HopfGroupData(CASE_B)
        start = time.perf_counter()
        with pytest.raises(GroupDataError, match="finite with"):
            run_certificate(CertificateConfig(data=data, t=t, n=1,
                                              with_differential=False))
        assert time.perf_counter() - start < 1.0

    def test_fixed_t_skips_sweep(self):
        data = HopfGroupData(CASE_B)
        report = run_certificate(CertificateConfig(
            data=data, t=0.2, n=6, with_differential=False))
        assert report.t == 0.2
        assert report.sweep is None
        assert report.passed

    def test_each_base_point_is_integrated_once(self, monkeypatch):
        # base assembly integrates the n samples once (one chain from their
        # radial time); with a fixed t and no differential families the only
        # other flow is equivariance, the n samples' images under each deck
        # element, (n, k, 4)
        gens = (np.diag([EPS3, 1 / EPS3]),)
        data = HopfGroupData(CASE_B, gens)
        points = []

        def counting(orig):
            def wrapper(spec, t, x, *args, **kwargs):
                points.append(math.prod(np.atleast_2d(x).shape[:-1]))
                return orig(spec, t, x, *args, **kwargs)
            return wrapper

        for name in ("integrate_flow", "integrate_flow_chain"):
            monkeypatch.setattr(biherm.certificate, name,
                                counting(getattr(biherm.certificate, name)))
        n = 4
        report = run_certificate(CertificateConfig(
            data=data, t=0.2, n=n, with_differential=False))
        assert report.excluded_samples == 0
        assert sum(points) == n * (1 + 1 + len(gens))

    def test_selected_t_integrates_the_samples_once(self, monkeypatch):
        # the sweep hands over its state at t*, so the samples are not
        # integrated again for the base assembly
        import biherm.deformation

        data = HopfGroupData(CASE_B, (np.diag([EPS3, 1 / EPS3]),))
        cfg = CertificateConfig(data=data, n=4, with_differential=False)
        samples = fundamental_annulus_sample(cfg.seed, flow_spec_for(CASE_B),
                                             cfg.n)
        of_samples = []

        def counting(orig):
            def wrapper(spec, t, x, *args, **kwargs):
                of_samples.append(np.array_equal(x, samples))
                return orig(spec, t, x, *args, **kwargs)
            return wrapper

        for module, name in ((biherm.certificate, "integrate_flow"),
                             (biherm.certificate, "integrate_flow_chain"),
                             (biherm.deformation, "integrate_flow"),
                             (biherm.deformation, "integrate_flow_chain")):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        report = run_certificate(cfg)
        assert report.passed and report.sweep is not None
        assert sum(of_samples) == 1

    @pytest.mark.parametrize("with_differential", (True, False))
    def test_two_flow_integrations_per_certificate(self, monkeypatch,
                                                   with_differential):
        # the sweep's one trajectory through its grid, then one batch at t*:
        # each kept sample's cloud rows (with the differential families)
        # and its k deck images
        import biherm.deformation

        gens = (np.diag([EPS3, 1 / EPS3]),)
        cfg = CertificateConfig(data=HopfGroupData(CASE_B, gens), n=4,
                                with_differential=with_differential)
        batches = []
        flow_states = biherm.deformation._flow_states

        def counting(spec, t_values, x, *args):
            batches.append(np.atleast_2d(x).shape[:-1])
            return flow_states(spec, t_values, x, *args)

        monkeypatch.setattr(biherm.deformation, "_flow_states", counting)
        report = run_certificate(cfg)
        assert report.passed and report.sweep is not None
        kept = cfg.n - report.excluded_samples
        rows = CLOUD_ROWS * with_differential + 1 + len(gens)
        assert batches == [(cfg.n,), (kept, rows)]

    @pytest.mark.parametrize("t", (None, 0.2))
    def test_samples_are_solved_once(self, monkeypatch, t):
        # one potential evaluation serves the margin, the invariance
        # families, the slope floor and the flow of the samples (the image
        # of the samples under the identity of H is another array)
        data = HopfGroupData(CASE_B, (np.diag([EPS3, 1 / EPS3]),))
        cfg = CertificateConfig(data=data, t=t, n=4, with_differential=False)
        drawn = []
        of_samples = []
        solve = PotentialField.solve

        def sampling(*args):
            drawn.append(fundamental_annulus_sample(*args))
            return drawn[-1]

        def counting(self, x):
            of_samples.append(x is drawn[0])
            return solve(self, x)

        monkeypatch.setattr(biherm.certificate, "fundamental_annulus_sample",
                            sampling)
        monkeypatch.setattr(PotentialField, "solve", counting)
        assert run_certificate(cfg).passed
        assert len(drawn) == 1 and sum(of_samples) == 1

    def test_non_finite_residual_fails_its_family(self, monkeypatch):
        # a degenerate metric makes the selfduality residuals infinite; the
        # report must still serialize, and those families must fail
        pointwise = biherm.certificate.check_pointwise_algebra

        def degenerate(s):
            return pointwise(replace(s, g=np.zeros_like(s.g)))

        monkeypatch.setattr(biherm.certificate, "check_pointwise_algebra",
                            degenerate)
        report = run_certificate(CertificateConfig(
            data=HopfGroupData(CASE_B), t=0.2, n=3, with_differential=False))
        families = json.loads(report.to_json())["identities"]
        assert not report.passed
        assert families["selfdual_phi"]["non_finite"] == 3
        assert families["selfdual_phi"]["count"] == 3
        assert families["selfdual_phi"]["pass"] is False
        assert "non_finite" not in families["anticommutator"]
        assert families["anticommutator"]["pass"] is True

    def test_family_on_no_sample_fails_the_pass(self, monkeypatch):
        # a family evaluated on no sample sits at tier vacuously (max 0) and
        # must still fail the certificate
        def unevaluated(s0, images, elements):
            return {"equivariance_metric": np.zeros(0),
                    "equivariance_j_minus": np.zeros(0)}

        monkeypatch.setattr(biherm.certificate, "check_gamma_equivariance",
                            unevaluated)
        report = run_certificate(CertificateConfig(
            data=HopfGroupData(CASE_B), t=0.2, n=5, with_differential=False))
        assert report.identities["equivariance_metric"].count == 0
        assert report.identities["anticommutator"].count == 5
        assert not report.passed
