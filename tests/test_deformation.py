"""Hamiltonian field, variational flow, pullbacks, sweeps."""

import time

import numpy as np
import pytest

import biherm.deformation as deformation
from biherm.deformation import (
    DEFAULT_T_GRID,
    hamiltonian_field,
    integrate_flow,
    integrate_flow_chain,
    positivity_sweep,
    pullback_psi,
    quotient_triple,
    select_deformation_time,
)
from biherm.errors import GroupDataError
from biherm.exterior import (
    HOLO_IM,
    HOLO_RE,
    KAHLER_STD,
    StencilCloud,
    stencil_step,
    to_complex,
    wedge_to_volume,
)
from biherm.hopf_groups import ContractionParams
from biherm.oracles import rotation_flow
from biherm.potentials import PotentialField, flow_spec_for, fundamental_annulus_sample
from support import t_zero_derivative_check

CASE_A = ContractionParams(0.5, 0.5)
CASE_B = ContractionParams(0.5, 0.6)
CASE_C = ContractionParams(0.6, 0.6, lam=0.1, m=1)
SHEAR_M2 = ContractionParams(0.36, 0.6, lam=0.05, m=2)

#: The nodes c_i of DOP853 (Hairer and Wanner's dop853.f).  The flow is
#: autonomous, so the integrator never reads them; they check its tableau.
DOP853_NODES = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)


class TestHamiltonianField:
    def test_reference_point(self):
        x_vec = hamiltonian_field(flow_spec_for(CASE_A),
                                  np.array([[1.0, 0, 0, 0]]))
        assert np.allclose(x_vec, [[0.0, 0.0, -2.0, 0.0]], atol=1e-12)

    def test_complex_form_of_equal_moduli_field(self):
        # for f = |z|^2 the field reads zdot1 = 2 conj(z2), zdot2 = -2 conj(z1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 4))
        x_vec = hamiltonian_field(flow_spec_for(CASE_A), x)
        z = to_complex(x)
        dz = to_complex(x_vec)
        assert np.max(np.abs(dz[:, 0] - 2 * np.conj(z[:, 1]))) < 1e-11
        assert np.max(np.abs(dz[:, 1] + 2 * np.conj(z[:, 0]))) < 1e-11

    def test_contraction_reproduces_gradient(self):
        # i_X Phi = df is a linear solve: check the 1-form i_X Phi directly
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(1, CASE_B, 20)
        x_vec = hamiltonian_field(spec, x)
        pf = PotentialField(spec)
        _, grad, _ = pf.value_grad_hess(x, pf.potential(x).r)
        contraction = np.einsum("...i,ij->...j", x_vec, HOLO_RE)
        assert np.max(np.abs(contraction - grad)) < 1e-12

    def test_zero_gradient_gives_zero_field(self):
        # linearity sanity on a synthetic critical point (grad = 0 cannot
        # occur for the radial potentials away from the origin)
        assert np.allclose(np.einsum("ij,j->i", HOLO_RE, np.zeros(4)), 0.0)


class TestIntegrateFlow:
    def test_time_zero(self):
        x = np.array([[0.3, -0.1, 0.8, 0.2]])
        state = integrate_flow(flow_spec_for(CASE_B), 0.0, x)
        assert np.array_equal(state.x_t, x)
        assert np.allclose(state.jac, np.eye(4))

    def test_matches_rotation_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 4))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        state = integrate_flow(flow_spec_for(CASE_A), 0.3, x)
        assert np.max(np.abs(state.x_t - rotation_flow(0.3, x))) < 1e-9

    @pytest.mark.parametrize("params", (CASE_A, CASE_B, CASE_C))
    def test_flow_preserves_potential(self, params):
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(2, params, 30)
        pf = PotentialField(spec)
        f0 = pf.potential(x).f
        for t in (0.1, 0.5):
            state = integrate_flow(spec, t, x)
            f1 = pf.f_value(state.x_t)
            assert np.max(np.abs(f1 - f0) / f0) < 1e-8

    @pytest.mark.parametrize("params", (CASE_B, CASE_C))
    def test_flow_preserves_base_form(self, params):
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(3, params, 30)
        state = integrate_flow(spec, 0.4, x)
        pulled = np.einsum("...ji,jk,...kl->...il", state.jac, HOLO_RE, state.jac)
        assert np.max(np.abs(pulled - HOLO_RE)) < 1e-9
        assert np.min(np.linalg.det(state.jac)) > 0.0

    def test_group_law_of_deformation_flow(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(4, CASE_B, 10)
        one_shot = integrate_flow(spec, 0.35, x)
        first = integrate_flow(spec, 0.15, x)
        second = integrate_flow(spec, 0.2, first.x_t)
        assert np.max(np.abs(second.x_t - one_shot.x_t)) < 1e-9
        chained = np.einsum("...ij,...jk->...ik", second.jac, first.jac)
        assert np.max(np.abs(chained - one_shot.jac)) < 1e-8

    def test_chain_matches_direct(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(5, CASE_B, 8)
        states = integrate_flow_chain(spec, (0.1, 0.25), x,
                                      PotentialField(spec).solve(x))
        direct = integrate_flow(spec, 0.25, x)
        assert np.max(np.abs(states[-1].x_t - direct.x_t)) < 1e-9
        assert np.max(np.abs(states[-1].jac - direct.jac)) < 1e-8

    @pytest.mark.parametrize("params", (CASE_C, SHEAR_M2))
    def test_jacobian_is_derivative_of_flow_map(self, params):
        # D must differentiate the true flow map, whose radial time moves
        # with the starting point; central differences of x_t over points
        # integrated in one batch (one step sequence) measure that
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(20, params, 20)
        h = 1e-5
        shifts = h * np.eye(4)[:, None, :]
        points = np.concatenate([x[None], x + shifts, x - shifts])
        state = integrate_flow(spec, 0.3, points)
        fd = (state.x_t[1:5] - state.x_t[5:]) / (2 * h)  # (column, sample, row)
        assert np.max(np.abs(state.jac[0] - np.moveaxis(fd, 0, -1))) < 1e-8

    def test_root_solves_do_not_grow_with_time(self, monkeypatch):
        # the radial time is solved once, at the starting points, so the
        # root-solver work is the same for a short and a long integration
        import biherm.potentials as potentials

        calls = []
        value_slope = potentials._RadialEquation.__call__

        def counting(self, r, *args):
            calls.append(np.size(r))
            return value_slope(self, r, *args)

        monkeypatch.setattr(potentials._RadialEquation, "__call__", counting)
        spec = flow_spec_for(CASE_C)
        x = fundamental_annulus_sample(21, CASE_C, 8)
        counts = []
        for t in (0.1, 0.5):
            calls.clear()
            integrate_flow(spec, t, x)
            counts.append(sum(calls))
        assert counts[0] == counts[1] > 0

    def test_quotient_forms_and_sweep_reuse_the_radial_time(self, monkeypatch):
        # the state carries r, so the quotient forms solve nothing, and the
        # sweep starts from the r of the samples' potential evaluation
        solved = []
        solve = PotentialField.solve

        def counting(self, x):
            solved.append(x.shape)
            return solve(self, x)

        monkeypatch.setattr(PotentialField, "solve", counting)
        spec = flow_spec_for(CASE_C)
        x = fundamental_annulus_sample(22, CASE_C, 6)
        state = integrate_flow(spec, 0.2, x)
        assert solved == [x.shape]
        quotient_triple(spec, state)
        assert solved == [x.shape]
        pot = PotentialField(spec).potential(x)
        assert solved == [x.shape, x.shape]
        positivity_sweep(spec, (0.1, 0.2), pot)
        assert solved == [x.shape, x.shape]

    def test_negative_time(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(6, CASE_B, 8)
        back = integrate_flow(spec, -0.2, integrate_flow(spec, 0.2, x).x_t)
        assert np.max(np.abs(back.x_t - x)) < 1e-9


def counting_rhs(monkeypatch):
    """Record the state argument of every flow right-hand-side evaluation,
    which the integrator holds batch-last (20, N), in the caller's (N, 20)
    layout."""
    seen = []
    rhs = deformation._flow_rhs

    def counting(pf, level, y):
        seen.append(y.T.copy())
        return rhs(pf, level, y)

    monkeypatch.setattr(deformation, "_flow_rhs", counting)
    return seen


class TestDop853:
    def test_tableau_is_consistent(self):
        # row i of A sums to its node c_i, the weights b to 1, and both error
        # estimators (differences of weights) to 0
        c, a = DOP853_NODES, deformation._DOP_A
        assert len(c) == len(a) == len(deformation._DOP_B) == 12
        for ci, row in zip(c, a):
            assert sum(row) == pytest.approx(ci, abs=1e-14)
        assert sum(deformation._DOP_B) == pytest.approx(1.0, abs=1e-14)
        for e in (deformation._DOP_E5, deformation._DOP_E3):
            assert len(e) == 12
            assert sum(e) == pytest.approx(0.0, abs=1e-14)

    def test_stencil_cloud_to_half_takes_ten_steps(self, monkeypatch):
        # a case-b mixed cloud (41 points per sample) integrated to t = 0.5:
        # one start-up evaluation and 12 per step, at most ten steps
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(7, CASE_B, 4)
        cloud = StencilCloud(x, stencil_step(x, 3e-3), mixed=True)
        assert cloud.points.shape == (4, 41, 4)
        seen = counting_rhs(monkeypatch)
        integrate_flow(spec, 0.5, cloud.points)
        assert len(seen) <= 121

    def test_chain_makes_one_start_up_evaluation(self, monkeypatch):
        # the chain continues one trajectory through the grid times: the
        # last stage of each accepted step is the first of the next, also
        # across a grid time, so only the initial state is evaluated on its
        # own and no state is evaluated twice
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(7, CASE_B, 6)
        seen = counting_rhs(monkeypatch)
        states = integrate_flow_chain(spec, DEFAULT_T_GRID, x,
                                      PotentialField(spec).solve(x))
        assert [s.t for s in states] == list(DEFAULT_T_GRID)
        y0 = np.concatenate([x, np.broadcast_to(np.eye(4).reshape(16),
                                                (6, 16))], axis=-1)
        assert np.array_equal(seen[0], y0)
        assert len({y.tobytes() for y in seen}) == len(seen)

    def test_chain_through_negative_and_zero_times(self):
        # the first grid time may lie behind the start; the trajectory then
        # turns round and continues forward
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(8, CASE_B, 4)
        r = PotentialField(spec).solve(x)
        states = integrate_flow_chain(spec, (-0.1, 0.0, 0.2), x, r)
        back = integrate_flow(spec, -0.1, x)
        assert np.max(np.abs(states[0].x_t - back.x_t)) < 1e-9
        assert np.max(np.abs(states[1].x_t - x)) < 1e-9
        assert np.max(np.abs(states[2].x_t
                             - integrate_flow(spec, 0.2, x).x_t)) < 1e-9


class TestPullback:
    def test_t_zero_is_base_form(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(7, CASE_B, 5)
        state = integrate_flow(spec, 0.0, x)
        assert np.allclose(pullback_psi(state), HOLO_IM)

    @pytest.mark.parametrize("params", (CASE_A, CASE_B, CASE_C))
    def test_wedge_identities(self, params):
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(8, params, 40)
        state = integrate_flow(spec, 0.3, x)
        psi_t = pullback_psi(state)
        phi2 = wedge_to_volume(HOLO_RE, HOLO_RE)
        assert np.max(np.abs(wedge_to_volume(psi_t, psi_t) - phi2)) < 1e-8
        assert np.max(np.abs(wedge_to_volume(
            np.broadcast_to(HOLO_RE, psi_t.shape), psi_t))) < 1e-8

    def test_case_a_closed_form_pullback(self):
        # the equal-moduli deformation is the explicit rotation, giving
        # psi_minus(t) = cos(4t) Im(Omega) + sin(4t) Kaehler form exactly
        spec = flow_spec_for(CASE_A)
        x = fundamental_annulus_sample(9, CASE_A, 25)
        t = 0.3
        state = integrate_flow(spec, t, x)
        expected = np.cos(4 * t) * HOLO_IM + np.sin(4 * t) * KAHLER_STD
        assert np.max(np.abs(pullback_psi(state) - expected)) < 1e-9


class TestQuotientTriple:
    def test_leibniz_rule_analytic(self):
        # d(psi_plus/f) = tau ^ (psi_plus/f) holds exactly by the product
        # rule; check via the finite-difference exterior derivative
        from biherm.exterior import StencilCloud, stencil_step, wedge_one_two

        spec = flow_spec_for(CASE_A)
        pf = PotentialField(spec)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        cloud = StencilCloud(x.reshape(1, 4), stencil_step(x.reshape(1, 4), 1e-3))
        f_cloud = pf.f_value(cloud.points)
        d = cloud.d_two_form(HOLO_IM / f_cloud[..., None, None])[0]
        pot = pf.potential(x.reshape(1, 4))
        f, grad, _ = pf.value_grad_hess(pot.x, pot.r)
        tau = -grad[0] / f[0]
        target = wedge_one_two(tau, HOLO_IM / f[0])
        assert np.max(np.abs(d - target)) < 1e-8

    def test_gamma_invariance_of_quotient_forms(self):
        from biherm.hopf_groups import ContractionPower, apply_group_element, jacobian

        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(10, CASE_B, 15)
        gamma = ContractionPower(CASE_B, 1)
        state_x = integrate_flow(spec, 0.25, x)
        trip_x = quotient_triple(spec, state_x)
        y = apply_group_element(gamma, x)
        state_y = integrate_flow(spec, 0.25, y)
        trip_y = quotient_triple(spec, state_y)
        dg = jacobian(gamma, x)
        for name in ("phi", "psi_plus", "psi_minus"):
            pulled = np.einsum("...ji,...jk,...kl->...il", dg,
                               getattr(trip_y, name), dg)
            assert np.max(np.abs(pulled - getattr(trip_x, name))) < 1e-8, name

    def test_h_invariance_of_quotient_forms(self):
        from biherm.hopf_groups import UnitaryElement, apply_group_element, jacobian

        spec = flow_spec_for(CASE_C)
        x = fundamental_annulus_sample(11, CASE_C, 15)
        h = UnitaryElement(-np.eye(2))
        state_x = integrate_flow(spec, 0.25, x)
        trip_x = quotient_triple(spec, state_x)
        y = apply_group_element(h, x)
        state_y = integrate_flow(spec, 0.25, y)
        trip_y = quotient_triple(spec, state_y)
        dg = jacobian(h, x)
        pulled = np.einsum("...ji,...jk,...kl->...il", dg, trip_y.psi_minus, dg)
        assert np.max(np.abs(pulled - trip_x.psi_minus)) < 1e-8


class TestSlopeAtZero:
    def test_case_a_against_closed_form(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((20, 4))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        res = t_zero_derivative_check(flow_spec_for(CASE_A), x, h_t=1e-4)
        assert np.max(res) < 1e-5
        # and the slope itself equals 4*kahler/|z|^2 on the sphere
        spec = flow_spec_for(CASE_A)
        pot = PotentialField(spec).potential(x)
        assert np.max(np.abs(pot.lck_form - 4 * KAHLER_STD)) < 1e-10

    @pytest.mark.parametrize("params", (CASE_B, CASE_C))
    def test_sampled_cases(self, params):
        x = fundamental_annulus_sample(13, params, 50)
        res = t_zero_derivative_check(flow_spec_for(params), x, h_t=1e-4)
        assert np.max(res) < 1e-5

    def test_check_solves_the_points_once(self, monkeypatch):
        # both flows and the target dd^c f / f share one radial time
        solved = []
        solve = PotentialField.solve

        def counting(self, x):
            solved.append(x.shape)
            return solve(self, x)

        monkeypatch.setattr(PotentialField, "solve", counting)
        x = fundamental_annulus_sample(13, CASE_C, 5)
        t_zero_derivative_check(flow_spec_for(CASE_C), x, h_t=1e-4)
        assert solved == [x.shape]

    def test_unflowed_invariant_part_vanishes(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(14, CASE_B, 10)
        state = integrate_flow(spec, 0.0, x)
        from biherm.exterior import J_STD, invariant_part

        inv = invariant_part(pullback_psi(state), J_STD)
        assert np.max(np.abs(inv)) == 0.0


class TestSweep:
    def test_zero_row(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(15, CASE_B, 20)
        rows = positivity_sweep(spec, (0.0, 0.05),
                                PotentialField(spec).potential(x))
        assert rows[0].t == 0.0
        assert abs(rows[0].min_margin) < 1e-12
        assert rows[0].p_min == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", (CASE_A, CASE_B, CASE_C))
    def test_small_t_margins_positive_and_linear(self, params):
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(16, params, 30)
        rows = positivity_sweep(spec, (0.01, 0.02, 0.04),
                                PotentialField(spec).potential(x))
        margins = [r.min_margin for r in rows]
        assert all(m > 0 for m in margins)
        # near-linear growth: margin(2t)/margin(t) close to 2
        assert margins[1] / margins[0] == pytest.approx(2.0, rel=0.05)
        assert all(r.p_max < 1.0 for r in rows)

    def test_case_a_margin_closed_form(self):
        # margin(t) = sin(4t) / max |z|^2 over the samples, p = cos(4t)
        spec = flow_spec_for(CASE_A)
        x = fundamental_annulus_sample(17, CASE_A, 40)
        rows = positivity_sweep(spec, (0.1, 0.3),
                                PotentialField(spec).potential(x))
        norm2 = np.sum(x**2, axis=-1)
        for row in rows:
            assert row.min_margin == pytest.approx(
                np.sin(4 * row.t) / np.max(norm2), abs=1e-8)
            assert row.p_min == pytest.approx(np.cos(4 * row.t), abs=1e-9)
            assert row.p_max == pytest.approx(np.cos(4 * row.t), abs=1e-9)

    def test_large_t_negative_margin_is_reported_not_raised(self):
        # the equal-moduli margin is sin(4t)/max|z|^2, negative at t = 0.9;
        # sweeps only report, selection is what enforces positivity
        spec = flow_spec_for(CASE_A)
        x = fundamental_annulus_sample(19, CASE_A, 10)
        rows = positivity_sweep(spec, (0.9,),
                                PotentialField(spec).potential(x))
        assert rows[0].min_margin < 0.0
        norm2 = np.sum(x**2, axis=-1)
        assert rows[0].min_margin == pytest.approx(
            float(np.min(np.sin(3.6) / norm2)), abs=1e-7)

    def test_grid_beyond_bound_is_refused_before_the_flow(self):
        spec = flow_spec_for(CASE_B)
        pot = PotentialField(spec).potential(fundamental_annulus_sample(15, CASE_B, 4))
        start = time.perf_counter()
        with pytest.raises(GroupDataError, match="t = 11.0"):
            positivity_sweep(spec, (0.1, 11.0), pot)
        assert time.perf_counter() - start < 1.0

    def test_select_deformation_time(self):
        spec = flow_spec_for(CASE_B)
        x = fundamental_annulus_sample(18, CASE_B, 25)
        state, rows, slope = select_deformation_time(
            spec, PotentialField(spec).potential(x))
        t_star = state.t
        assert t_star > 0
        assert slope > 0
        lookup = {r.t: r for r in rows}
        assert lookup[t_star].min_margin >= 0.1 * t_star * slope
        # the state handed over is the flow of the samples to t*
        direct = integrate_flow(spec, t_star, x)
        assert np.array_equal(state.x, x) and np.array_equal(state.r, direct.r)
        assert np.max(np.abs(state.x_t - direct.x_t)) < 1e-9
        assert np.max(np.abs(state.jac - direct.jac)) < 1e-8
