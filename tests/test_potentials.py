"""Radial time, potentials, their derivatives, and the invariance
diagnostics."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import biherm.potentials as potentials

from biherm.deformation import integrate_flow
from biherm.errors import (
    AmbiguousRadialTime,
    GroupDataError,
    NotPlurisubharmonic,
)
from biherm.exterior import J_STD, KAHLER_STD, invariant_part, metric_from_form, min_metric_eigenvalue
from biherm.hopf_groups import (
    ContractionParams,
    ContractionPower,
    UnitaryElement,
    apply_group_element,
    group_closure,
)
from biherm.potentials import (
    MIN_MULTIPLIER,
    FlowSpec,
    PotentialField,
    flow_apply,
    flow_spec_for,
    fundamental_annulus_sample,
    verify_h_invariance,
    verify_rescaling,
)
from support import g_jet5

CASE_A = ContractionParams(0.5, 0.5)
CASE_A_CPLX = ContractionParams(0.3 + 0.4j, 0.3 - 0.4j)
CASE_B = ContractionParams(0.5, 0.6)
CASE_C = ContractionParams(0.6, 0.6, lam=0.1, m=1)
SHEAR_M2 = ContractionParams(0.49, 0.7, lam=0.05, m=2)
SMALL_MULTIPLIER = ContractionParams(0.01, 0.01)
# alpha = beta^3; the radial time only reads log|beta|, m and lhat
SHEAR_M3 = FlowSpec("shear", complex(3 * np.log(0.7), 0.3),
                    complex(np.log(0.7), 0.1), 3, 0.04 - 0.03j)
ALL_CASES = (CASE_A, CASE_A_CPLX, CASE_B, CASE_C)
# diagonal flows from equal moduli down to |alpha| / |beta| = 1e-8
UNEQUAL_MODULI = tuple(ContractionParams(alpha, beta)
                       for beta in (0.5, 0.9, 0.99)
                       for alpha in (1e-8, 1e-6, 1e-3, 0.1, beta))


def _count_g_evaluations(monkeypatch) -> list:
    """Radial times at which the solve evaluates log(G + 1) and its slope,
    per point, one entry per evaluation."""
    per_point = []
    value_slope = potentials._RadialEquation.__call__

    def counting(self, r, *args):
        per_point.append(np.size(r) / self.log_p0.size)
        return value_slope(self, r, *args)

    monkeypatch.setattr(potentials._RadialEquation, "__call__", counting)
    return per_point


def _transverse_shear(m: int, ratio: float) -> FlowSpec:
    """A shear with |beta| = 0.7 whose |lhat| is ratio times the
    transversality bound |log|beta|| F_m, with the phases of beta and lhat
    away from 0."""
    bound = -np.log(0.7) * potentials._transversality_factor(m)
    return FlowSpec("shear", complex(m * np.log(0.7), 0.2),
                    complex(np.log(0.7), 0.1), m, ratio * bound * (0.6 + 0.8j))


def _mpmath_radial_time(mp, spec: FlowSpec, xi, guess):
    """The 40-digit root of G(r) = |phi_{-r}(x)|^2 - 1 nearest guess."""
    z1, z2 = mp.mpc(xi[0], xi[1]), mp.mpc(xi[2], xi[3])
    lam_hat = mp.mpc(spec.lam_hat.real, spec.lam_hat.imag)
    la, lb = mp.mpf(spec.log_alpha.real), mp.mpf(spec.log_beta.real)

    def g(t):
        if spec.kind == "diagonal":
            return (abs(z1) ** 2 * mp.exp(-2 * t * la)
                    + abs(z2) ** 2 * mp.exp(-2 * t * lb) - 1)
        w = z1 - t * lam_hat * z2**spec.m
        return (abs(w) ** 2 * mp.exp(-2 * spec.m * t * lb)
                + abs(z2) ** 2 * mp.exp(-2 * t * lb) - 1)

    return mp.findroot(g, mp.mpf(float(guess)))


class TestFlow:
    def test_time_one_is_contraction_diagonal(self):
        spec = flow_spec_for(CASE_B)
        assert np.allclose(flow_apply(spec, 1.0, np.array([1.0, 1.0, 1.0, 0.0])),
                           [0.5, 0.5, 0.6, 0.0])

    def test_time_one_is_contraction_shear(self):
        spec = flow_spec_for(CASE_C)
        assert np.allclose(flow_apply(spec, 1.0, np.array([0.0, 0.0, 1.0, 0.0])),
                           [0.1, 0.0, 0.6, 0.0])

    def test_time_zero_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        for params in ALL_CASES:
            spec = flow_spec_for(params)
            assert np.array_equal(flow_apply(spec, 0.0, x), x)

    @pytest.mark.parametrize("params", ALL_CASES)
    def test_group_law(self, params):
        rng = np.random.default_rng(1)
        spec = flow_spec_for(params)
        x = rng.standard_normal((50, 4))
        s = rng.uniform(-2, 2, 50)
        t = rng.uniform(-2, 2, 50)
        lhs = flow_apply(spec, s, flow_apply(spec, t, x))
        rhs = flow_apply(spec, s + t, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRadialTime:
    def test_equal_moduli_closed_form(self):
        r = PotentialField(flow_spec_for(CASE_A)).solve(np.array([2.0, 0, 0, 0]))
        assert r == pytest.approx(np.log(2) / np.log(0.5), abs=1e-12)

    def test_case_b_half_point(self):
        r = PotentialField(flow_spec_for(CASE_B)).solve(np.array([0.5, 0, 0, 0]))
        assert r == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", ALL_CASES)
    def test_unit_sphere_has_time_zero(self, params):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 4))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        r = PotentialField(flow_spec_for(params)).solve(x)
        assert np.max(np.abs(r)) < 1e-12

    @pytest.mark.parametrize("params", ALL_CASES)
    def test_flowed_point_lands_on_sphere(self, params):
        spec = flow_spec_for(params)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 4)) * 1.3
        r = PotentialField(spec).solve(x)
        back = flow_apply(spec, -r, x)
        assert np.max(np.abs(np.linalg.norm(back, axis=-1) - 1.0)) < 1e-12

    def test_branch_independence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 4))
        base = flow_spec_for(CASE_B)
        shifted = flow_spec_for(ContractionParams(
            0.5, 0.6, arg_alpha=2 * np.pi, arg_beta=-4 * np.pi))
        r1, r2 = (PotentialField(spec).potential(x).r for spec in (base, shifted))
        _, grad1, _ = PotentialField(base).value_grad_hess(x, r1)
        _, grad2, _ = PotentialField(shifted).value_grad_hess(x, r2)
        assert np.max(np.abs(r1 - r2)) < 1e-12
        assert np.max(np.abs(grad1 - grad2)) < 1e-12

    def test_derivative_routes_agree(self):
        # the kernel's grad f and Hess f . D against the 2-jet of G taken
        # through the implicit-function formula, at radial times off the
        # level set of x and a random D
        rng = np.random.default_rng(5)
        for params in ALL_CASES + (SHEAR_M2, SHEAR_M3):
            spec = params if isinstance(params, FlowSpec) else flow_spec_for(params)
            pf = PotentialField(spec)
            x = rng.standard_normal((30, 4)) * 1.4
            r = rng.uniform(-2, 2, 30)
            d = rng.standard_normal((30, 4, 4))
            jet = g_jet5(spec, r, x)
            g_r, g_x = jet.grad[..., 0], jet.grad[..., 1:]
            h_rr, h_rx, h_xx = (jet.hess[..., 0, 0], jet.hess[..., 0, 1:],
                                jet.hess[..., 1:, 1:])
            rho = -g_x / g_r[..., None]
            cross = h_rx[..., :, None] * rho[..., None, :]
            rho_rho = rho[..., :, None] * rho[..., None, :]
            r_xx = -(h_xx + cross + np.swapaxes(cross, -1, -2)
                     + h_rr[..., None, None] * rho_rho) / g_r[..., None, None]
            ln_a = spec.log_multiplier
            lf = ln_a * np.exp(ln_a * r)
            grad_ref = lf[..., None] * rho
            hess_ref = lf[..., None, None] * (r_xx + ln_a * rho_rho)

            grad, hess_d = pf.grad_hess_dot(pf.level(r), x.T,
                                            d.transpose(1, 2, 0))
            assert np.max(np.abs(grad.T - grad_ref)) < 1e-11
            assert np.max(np.abs(hess_d.transpose(2, 0, 1)
                                 - hess_ref @ d)) < 1e-11

            f, grad, hess = pf.value_grad_hess(x.reshape(5, 6, 4),
                                               r.reshape(5, 6))
            assert (f.shape, grad.shape, hess.shape) == (
                (5, 6), (5, 6, 4), (5, 6, 4, 4))
            assert np.max(np.abs(grad.reshape(30, 4) - grad_ref)) < 1e-11
            assert np.max(np.abs(hess.reshape(30, 4, 4) - hess_ref)) < 1e-11

    @pytest.mark.parametrize("params", (CASE_B, CASE_C))
    @pytest.mark.parametrize("bad", ([0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0],
                                     [0.5, -np.inf, 0.0, 0.0]))
    def test_points_without_radial_time_are_refused(self, params, bad):
        # the origin and non-finite points are bad input, not a shear with
        # multiple roots; refused before the bracket doubles G to overflow
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(4, params, 5)
        x[3] = bad
        for call in (lambda: PotentialField(spec).solve(x),
                     lambda: integrate_flow(spec, 0.2, x)):
            start = time.perf_counter()
            with pytest.raises(GroupDataError, match=r"sample indices \[3\]"):
                call()
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("params", (CASE_A, CASE_B, CASE_C, SHEAR_M2))
    def test_g_evaluations_per_solve(self, monkeypatch, params):
        # radial times at which log(G + 1) is evaluated, per point.
        # Diagonal: the closed-form upper end, then monotone Newton (2 on
        # case a, 5 on case b).  Shear: the doubled bracket (2, more where
        # doubling moves an end), then Newton from its upper end (8 in all
        # on case c and on the m = 2 shear).
        per_point = _count_g_evaluations(monkeypatch)
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(3, params, 200)
        PotentialField(spec).solve(x)
        assert sum(per_point) <= (5 if spec.kind == "diagonal" else 10)

    @pytest.mark.parametrize("params", (CASE_A, CASE_A_CPLX))
    def test_equal_moduli_solve_takes_under_three_evaluations(
            self, monkeypatch, params):
        # |alpha| = |beta|: the closed-form upper end is the root.  log(G + 1)
        # is evaluated there, and once more after the one Newton step that
        # settles every point, including those that rounding put below the
        # root
        per_point = _count_g_evaluations(monkeypatch)
        x = fundamental_annulus_sample(3, params, 200) * np.exp(
            np.linspace(-3, 3, 200))[:, None]
        PotentialField(flow_spec_for(params)).solve(x)
        assert per_point == [1.0, 1.0]

    def test_doubling_bracket_evaluates_only_unbracketed_points(
            self, monkeypatch):
        # most of these case c samples hold the root in [-1, 1]; only the
        # ones above it (about 15%) take a further round of G at the upper
        # end, where every point took it before
        per_point = _count_g_evaluations(monkeypatch)
        x = fundamental_annulus_sample(7, CASE_C, 400) * np.exp(
            np.linspace(-0.3, 0.3, 400))[:, None]
        g = potentials._RadialEquation(flow_spec_for(CASE_C), x)
        potentials._doubling_bracket(g)
        assert per_point[:2] == [1.0, 1.0]
        assert len(per_point) == 3 and 0.0 < per_point[2] < 0.5

    @pytest.mark.parametrize("x, side, indices", (
        # G = |z1 - r z2|^2 + |z2|^2 - 1 grows without bound below
        (np.array([[0.5, 0.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0]]), "below",
         "[1]"),
        # G = |x|^2 - 1 < 0 for every r
        (np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 0.3, 0.0, 0.0]]), "above",
         "[0, 1]"),
    ))
    def test_failed_doubling_bracket_names_the_samples(self, x, side, indices):
        # |beta| = 1 is outside every contraction: G no longer falls to -1
        # below or grows above, so doubling never brackets the root.  The
        # solve refuses the surface first (the transversality bound
        # |lhat| < 0 fails, whatever the points); the bracket itself stops
        # after 200 rounds, at 2^200, with exactly these samples still
        # lacking the sign they need on that side
        spec = FlowSpec("shear", complex(0.0), complex(0.0), 1, 1.0 + 0j)
        with pytest.raises(NotPlurisubharmonic, match="not transverse"):
            PotentialField(spec).solve(x)
        g = potentials._RadialEquation(spec, x)
        lo, hi = potentials._doubling_bracket(g)
        if side == "below":
            end, unbracketed = lo, g(lo)[0] >= 0.0
        else:
            end, unbracketed = hi, g(hi)[0] <= 0.0
        assert str(potentials._indices(unbracketed)) == indices
        assert np.all(np.abs(end[unbracketed]) == 2.0**200)

    @pytest.mark.parametrize("params", (CASE_B, CASE_C, SHEAR_M2, CASE_A_CPLX,
                                        SMALL_MULTIPLIER))
    def test_matches_mpmath_root(self, params):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(9, params, 8)
        r = PotentialField(spec).solve(x)
        for xi, ri in zip(x, r):
            root = _mpmath_radial_time(mp, spec, xi, ri)
            assert abs(float(root) - ri) < 1e-15

    @pytest.mark.parametrize("params", UNEQUAL_MODULI,
                             ids=lambda p: f"{p.alpha:g}-{p.beta:g}")
    def test_unequal_moduli_solve_in_few_evaluations(self, monkeypatch,
                                                     params):
        # Newton on log(G + 1) from the closed-form upper end: its slope
        # lies between 2 |log|beta|| and 2 |log|alpha||, so even at
        # |alpha| / |beta| = 1e-8 and |x| scaled by e^{+-3} every point
        # settles in a few steps (at most 10 here; Newton on G from the same
        # end ran out of its 64 at some of these points).  A few points
        # match the 40-digit root
        # to 1e-15 (1 + |r|) times its condition number 1 / slope under
        # the rounding of |z1|^2, |z2|^2, where that slope is below 1.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        per_point = _count_g_evaluations(monkeypatch)
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(7, spec, 200) * np.exp(
            np.linspace(-3, 3, 200))[:, None]
        r = PotentialField(spec).solve(x)
        assert sum(per_point) <= 12
        la, lb = mp.mpf(spec.log_alpha.real), mp.mpf(spec.log_beta.real)
        for xi, ri in zip(x[::50], r[::50]):
            m1 = mp.mpf(xi[0]) ** 2 + mp.mpf(xi[1]) ** 2
            m2 = mp.mpf(xi[2]) ** 2 + mp.mpf(xi[3]) ** 2

            def terms(t):
                return m1 * mp.exp(-2 * t * la), m2 * mp.exp(-2 * t * lb)

            root = mp.findroot(lambda t: sum(terms(t)) - 1, mp.mpf(float(ri)))
            e1, e2 = terms(root)  # e1 + e2 = 1: the shares of the terms
            slope = float(-2 * (la * e1 + lb * e2))
            assert abs(float(root) - ri) <= 1e-15 * (1 + abs(ri)) / min(
                1.0, slope)

    def test_failed_polish_names_the_samples(self, monkeypatch):
        # no Newton step leaves r at the upper end of the bracket
        monkeypatch.setattr(potentials, "_NEWTON_ITERS", 0)
        x = fundamental_annulus_sample(3, CASE_B, 4)
        with pytest.raises(AmbiguousRadialTime,
                           match=r"Newton polish failed at sample indices \[0, 1, 2, 3\]"):
            PotentialField(flow_spec_for(CASE_B)).solve(x)

    def test_non_transverse_m3_surface_is_refused(self):
        # |lhat| = 4.71 |log|beta|| against F_3 = 4.28: refused per surface,
        # before this point (which a 64-point scan once solved) is looked at
        spec = flow_spec_for(ContractionParams(
            0.024008653317216758 + 0.02986386399101742j,
            0.32228494078826436 + 0.0989485882158624j,
            lam=0.18887293088847298 - 0.053856476377135455j, m=3))
        x = np.array([[0.4201743341002648, -0.11164715363458058,
                       0.9002882907661116, -0.6240144992124141]])
        assert abs(spec.lam_hat) / -spec.log_beta.real == pytest.approx(
            4.71, abs=0.01)
        with pytest.raises(NotPlurisubharmonic, match=r"reduce \|lambda\|"):
            PotentialField(spec).solve(x)

    def test_shear_coefficient_beyond_doubles_is_refused(self):
        # |lhat| = 2.4e308 overflows abs() of the complex; the surface is
        # refused like any other past the bound, not with an OverflowError
        spec = flow_spec_for(ContractionParams(0.6, 0.6, lam=1e308 + 1e308j))
        with pytest.raises(NotPlurisubharmonic, match=r"= inf is not below"):
            PotentialField(spec).solve(np.array([0.5, 0.0, 0.5, 0.0]))

    def test_newton_is_kept_in_the_doubled_bracket(self, monkeypatch):
        # the same m = 3 surface with lambda scaled to 0.88 of the bound:
        # Newton from the bracket's upper end 1 would land at -3.7, below
        # its lower end -1, and must bisect instead
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        spec = flow_spec_for(ContractionParams(
            0.024008653317216758 + 0.02986386399101742j,
            0.32228494078826436 + 0.0989485882158624j,
            lam=0.8 * (0.18887293088847298 - 0.053856476377135455j), m=3))
        x = np.array([[-0.1346, -0.1781, 0.337, -0.1137]])
        equation = potentials._RadialEquation
        g = equation(spec, x)
        lo, hi = potentials._doubling_bracket(g)
        value, slope = g(hi)
        assert (lo[0], hi[0]) == (-1.0, 1.0) and hi - value / slope < lo
        seen = []
        value_slope = equation.__call__

        def recording(self, r, *args):
            seen.append(np.copy(r))
            return value_slope(self, r, *args)

        # every evaluation of the solve: the bracket's ends, its upper end
        # again, then each Newton or bisection iterate
        monkeypatch.setattr(equation, "__call__", recording)
        r = PotentialField(spec).solve(x)
        iterates = np.concatenate(seen[2:])
        assert iterates[0] == hi[0] and len(iterates) > 3
        assert np.all((lo <= iterates) & (iterates <= hi))
        root = _mpmath_radial_time(mp, spec, x[0], r[0])
        assert r[0] == pytest.approx(float(root), abs=1e-15)

    def test_solve_is_batch_independent(self):
        # each point stops at its own Newton step, whatever else is solved
        spec = flow_spec_for(SHEAR_M2)
        x = fundamental_annulus_sample(5, SHEAR_M2, 30) * np.exp(
            np.linspace(-3, 3, 30))[:, None]
        r = PotentialField(spec).solve(x)
        alone = [PotentialField(spec).solve(xi[None]) for xi in x]
        assert np.array_equal(r, np.concatenate(alone))

    @pytest.mark.parametrize("params", (CASE_A_CPLX, CASE_B, SMALL_MULTIPLIER))
    def test_diagonal_solve_is_batch_independent(self, params):
        # the closed-form bracket moves an end out only where that point's
        # own G has the wrong sign there, and Newton stops per point
        spec = flow_spec_for(params)
        x = fundamental_annulus_sample(5, params, 30) * np.exp(
            np.linspace(-3, 3, 30))[:, None]
        x[:3, 2:] = 0.0  # zero coordinates: an end of the bracket is the root
        r = PotentialField(spec).solve(x)
        alone = [PotentialField(spec).solve(xi) for xi in x]
        assert np.array_equal(r, np.array(alone))

    @settings(max_examples=150, deadline=None)
    @given(
        log_a=st.floats(np.log(MIN_MULTIPLIER), -1e-3),
        share=st.one_of(st.just(0.5), st.floats(1e-6, 0.5)),
        direction=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                           min_size=4, max_size=4),
        log10_norm=st.floats(-150.0, 150.0),
    )
    def test_closed_form_bracket_holds_the_root(self, log_a, share, direction,
                                                log10_norm):
        # in exact arithmetic, G(hi) >= 0; the computed end carries the
        # rounding of log|x|^2 / (2 lbar), which is below 16 eps
        # (|hi| + 1 / |max l|)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        direction = np.array(direction)
        assume(np.linalg.norm(direction) > 1e-3)
        x = direction / np.linalg.norm(direction) * 10.0**log10_norm
        la, lb = (1.0 - share) * log_a, share * log_a  # |alpha| <= |beta|
        spec = FlowSpec("diagonal", complex(la, 0.0), complex(lb, 0.0))
        hi = potentials._closed_form_bracket(
            potentials._RadialEquation(spec, x[None]))[0]
        m1 = sum(mp.mpf(float(c)) ** 2 for c in x[:2])
        m2 = sum(mp.mpf(float(c)) ** 2 for c in x[2:])

        def g(t):
            return (m1 * mp.exp(-2 * t * mp.mpf(la))
                    + m2 * mp.exp(-2 * t * mp.mpf(lb)) - 1)

        slack = 16 * np.finfo(float).eps * (abs(hi) + 1 / abs(lb))
        assert g(mp.mpf(float(hi)) + mp.mpf(slack)) >= 0

    @pytest.mark.parametrize("x", (np.array([1e-150, 0.0, 0.0, 0.0]),
                                   np.array([[0.5, 0.0, 0.0, 0.0],
                                             [1e-150, 0.0, 0.0, 0.0]])))
    def test_tiny_points_solve_in_log_space(self, x):
        # z2 = 0 and a bracket doubled out to 1024, where G's exponential
        # overflows and |z1|^2 underflows toward 0: log(G + 1) is
        # log|z1|^2 - 2 r log|beta| there, finite, so the point solves.  On
        # the z1 axis r = log|z1|^2 / (2 log|beta|)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        spec = flow_spec_for(CASE_C)
        points = np.atleast_2d(x)
        r = np.atleast_1d(PotentialField(spec).solve(x))
        assert r[-1] == pytest.approx(676.136, abs=1e-3)
        closed = np.log(points[:, 0] ** 2) / (2 * np.log(0.6))
        assert np.allclose(r, closed, rtol=1e-15, atol=0.0)
        for xi, ri in zip(points, r):
            root = _mpmath_radial_time(mp, spec, xi, ri)
            assert abs(float(root) - ri) <= 1e-15 * (1 + abs(ri))

    def test_slope_stays_finite_where_w_is_tiny(self):
        # |z1 - r s| below 1e-154 near the root: e^{-2 r log|beta|} / (G + 1)
        # would overflow to an infinite slope, which stops Newton with
        # log(G + 1) still at 319; the ratios |s| / |w| and
        # (r |s| - c) / |w| stay finite.  |z2|^2 = 1e-320 would be
        # subnormal, but the solve only takes logarithms of moduli, so every
        # digit of the point reaches it
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        spec = flow_spec_for(CASE_C)
        x = np.array([1e-160, 0.0, 1e-160, 0.0])
        r = PotentialField(spec).solve(x)
        root = _mpmath_radial_time(mp, spec, x, r)
        assert abs(float(root) - r) <= 1e-15 * (1 + abs(r))

    @pytest.mark.parametrize("x, expected", (
        ([0.0, 0.0, 1e120, 0.0], -778.146),
        ([0.0, 0.0, 1e-110, 0.0], 706.751),
        ([1e100, 0.0, 1e120, 0.0], -778.146),
    ))
    def test_far_points_keep_the_shear_term(self, x, expected):
        # s = lhat z2^3 overflows (1e360) or underflows (5e-332) as a
        # double; in logarithms it is neither, so the root keeps the shear
        # term (without it the second point's root would be 710.13)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        x = np.array(x)
        r = PotentialField(SHEAR_M3).solve(x)
        assert r == pytest.approx(expected, abs=1e-3)
        root = _mpmath_radial_time(mp, SHEAR_M3, x, r)
        assert abs(float(root) - r) <= 1e-15 * (1 + abs(r))

    def test_shear_multiple_roots_rejected(self):
        # a huge shear coefficient makes |z1 - r lhat z2|^2 dip through the
        # sphere again after the first crossing (|lhat| = 240 against the
        # bound 2 |log 0.5| = 1.39).  The surface is refused whatever the
        # point, also on the z1 axis, where the radial time is unique and a
        # 64-point scan once solved it
        params = ContractionParams(0.5, 0.5, lam=120.0, m=1)
        spec = flow_spec_for(params)
        for x in ([[0.72, 0.0, 0.01, 0.0]], [[0.72, 0.0, 0.0, 0.0]]):
            with pytest.raises(NotPlurisubharmonic, match="not transverse"):
                PotentialField(spec).solve(np.array(x))


@pytest.mark.parametrize("m", (1, 2, 3, 4))
class TestTransversalityBound:
    """The shear's radial time is unique exactly when |lhat| is below
    |log|beta|| F_m; at 0.99 of the bound every point solves, at 1.01 the
    surface is refused and some orbits cross S^3 three times."""

    def test_factor_is_the_least_of_the_quotient(self, m):
        theta = np.linspace(0.0, np.pi / 2, 200_001)[1:-1]
        c, s = np.cos(theta), np.sin(theta)
        least = np.min((m * c**2 + s**2) / (c * s**m))
        factor = potentials._transversality_factor(m)
        assert factor == pytest.approx(least, rel=1e-9)
        assert factor == pytest.approx(
            {1: 2.0, 2: 3.3302, 3: 4.2831, 4: 5.0625}[m], abs=1e-4)

    def test_solves_just_below_the_bound(self, m):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        spec = _transverse_shear(m, 0.99)
        x = fundamental_annulus_sample(7, spec, 200) * np.exp(
            np.linspace(-3, 3, 200))[:, None]
        r = PotentialField(spec).solve(x)
        g = potentials._RadialEquation(spec, x)
        _, slope = g(r)
        for i in range(0, 200, 50):
            root = _mpmath_radial_time(mp, spec, x[i], r[i])
            assert abs(float(root) - r[i]) <= 1e-15 * (1 + abs(r[i])) / min(
                1.0, slope[i])

    @pytest.mark.parametrize("n", (1, 200))
    def test_refused_just_above_the_bound(self, m, n):
        spec = _transverse_shear(m, 1.01)
        x = fundamental_annulus_sample(7, spec, n)
        with pytest.raises(NotPlurisubharmonic, match=r"reduce \|lambda\|"):
            PotentialField(spec).solve(x)

    @pytest.mark.parametrize("ratio, crossings", ((0.99, 1), (1.01, 3)))
    def test_crossings_beside_the_worst_point(self, m, ratio, crossings):
        # the worst point of S^3: |z1| = cos t, |z2| = sin t with
        # tan^2 t = u and conj(z1) lhat z2^m > 0; scaled off S^3 by 1e-6
        spec = _transverse_shear(m, ratio)
        u = m - 1 + np.hypot(m - 1, m)
        t = np.arctan(np.sqrt(u))
        z1 = np.cos(t) * spec.lam_hat / abs(spec.lam_hat) * (1 + 1e-6)
        z2 = np.sin(t) * (1 + 1e-6)
        lb = spec.log_beta.real
        r = np.linspace(-4.0, 4.0, 400_001)
        g = (np.abs(z1 - r * spec.lam_hat * z2**m) ** 2 * np.exp(-2 * m * r * lb)
             + z2**2 * np.exp(-2 * r * lb) - 1.0)
        negative = g < 0.0
        assert negative[0] and not negative[-1]
        assert np.count_nonzero(negative[1:] != negative[:-1]) == crossings


class TestPotential:
    def test_equal_moduli_derivatives(self):
        # f = |x|^2 when |alpha| = |beta|
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 4)) * 1.2
        pf = PotentialField(flow_spec_for(CASE_A))
        f, grad, hess = pf.value_grad_hess(x, pf.solve(x))
        assert np.max(np.abs(f - np.sum(x**2, axis=-1))) < 1e-12
        assert np.max(np.abs(grad - 2 * x)) < 1e-12
        assert np.max(np.abs(hess - 2 * np.eye(4))) < 1e-12

    def test_equal_moduli_is_norm_squared(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 4)) * 1.2
        pot = PotentialField(flow_spec_for(CASE_A)).potential(x)
        norm2 = np.sum(x**2, axis=-1)
        assert np.max(np.abs(pot.f - norm2) / norm2) < 1e-12
        assert np.max(np.abs(pot.ddc_f - 4 * KAHLER_STD)) < 1e-11
        margin = min_metric_eigenvalue(metric_from_form(pot.ddc_f, J_STD))
        assert np.min(margin) > 3.9

    def test_case_b_values(self):
        spec = flow_spec_for(CASE_B)
        pot = PotentialField(spec).potential(np.array([[1.0, 0, 0, 0],
                                                       [0.5, 0, 0, 0]]))
        assert pot.f[0] == pytest.approx(1.0, abs=1e-12)
        assert pot.f[1] == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("params", ALL_CASES)
    def test_unit_sphere_value_one(self, params):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 4))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        pot = PotentialField(flow_spec_for(params)).potential(x)
        assert np.max(np.abs(pot.f - 1.0)) < 1e-12

    @pytest.mark.parametrize("params", ALL_CASES)
    def test_lck_form_is_one_one_and_positive(self, params):
        samples = fundamental_annulus_sample(11, params, 100)
        pot = PotentialField(flow_spec_for(params)).potential(samples)
        assert np.max(np.abs(invariant_part(pot.ddc_f, J_STD) - pot.ddc_f)) < 1e-9
        margin = min_metric_eigenvalue(metric_from_form(pot.lck_form, J_STD))
        assert np.min(margin) > 0.0

    @pytest.mark.parametrize("params", (CASE_B, CASE_C))
    def test_evaluation_carries_points_and_margin(self, params):
        spec = flow_spec_for(params)
        pf = PotentialField(spec)
        samples = fundamental_annulus_sample(11, params, 40)
        pot = pf.potential(samples)
        assert np.array_equal(pot.x, samples)
        assert np.array_equal(pot.margin, min_metric_eigenvalue(
            metric_from_form(pot.ddc_f, J_STD)))
        assert np.array_equal(pf.f_value(samples), pot.f)

    def test_oversized_shear_not_plurisubharmonic(self):
        params = ContractionParams(0.6, 0.6, lam=100.0, m=1)
        samples = fundamental_annulus_sample(11, ContractionParams(0.6, 0.6, lam=0.1, m=1), 50)
        with pytest.raises(NotPlurisubharmonic, match="lambda"):
            PotentialField(flow_spec_for(params)).potential(samples)

    @pytest.mark.parametrize("params", ALL_CASES)
    def test_jets_match_finite_differences(self, params):
        spec = flow_spec_for(params)
        pf = PotentialField(spec)
        samples = fundamental_annulus_sample(13, params, 100)
        _, grad, _ = pf.value_grad_hess(samples, pf.potential(samples).r)

        h = 1e-3
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fp = pf.f_value(samples + e)
            fm = pf.f_value(samples - e)
            fp2 = pf.f_value(samples + e / 2)
            fm2 = pf.f_value(samples - e / 2)
            fd = (4 * (fp2 - fm2) / h - (fp - fm) / (2 * h)) / 3
            rel = np.abs(grad[:, i] - fd) / (1 + np.abs(fd))
            assert np.max(rel) < 1e-6

    def test_hessian_matches_finite_differences(self):
        spec = flow_spec_for(CASE_C)
        pf = PotentialField(spec)
        samples = fundamental_annulus_sample(17, CASE_C, 25)

        def grad_at(x):
            return pf.value_grad_hess(x, pf.potential(x).r)[1]

        _, _, hess = pf.value_grad_hess(samples, pf.potential(samples).r)
        h = 1e-3
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            gp = grad_at(samples + e)
            gm = grad_at(samples - e)
            gp2 = grad_at(samples + e / 2)
            gm2 = grad_at(samples - e / 2)
            fd = (4 * (gp2 - gm2) / h - (gp - gm) / (2 * h)) / 3
            rel = np.abs(hess[:, :, j] - fd) / (1 + np.abs(fd))
            assert np.max(rel) < 1e-6


class TestInvariances:
    @pytest.mark.parametrize("params", ALL_CASES)
    def test_radial_time_shifts_by_one(self, params):
        spec = flow_spec_for(params)
        samples = fundamental_annulus_sample(19, params, 100)
        gamma = ContractionPower(params, 1)
        from biherm.hopf_groups import apply_group_element

        pf = PotentialField(spec)
        r0 = pf.solve(samples)
        r1 = pf.solve(apply_group_element(gamma, samples))
        assert np.max(np.abs(r1 - r0 - 1.0)) < 1e-10

    @pytest.mark.parametrize("params", (CASE_B, CASE_C))
    def test_rescaling(self, params):
        spec = flow_spec_for(params)
        samples = fundamental_annulus_sample(23, params, 100)
        res = verify_rescaling(spec, ContractionPower(params, 1),
                               PotentialField(spec).potential(samples))
        assert np.max(res) < 1e-10

    def test_identity_element_detector(self):
        spec = flow_spec_for(CASE_B)
        pot = PotentialField(spec).potential(
            fundamental_annulus_sample(23, CASE_B, 50))
        res = verify_rescaling(spec, ContractionPower(CASE_B, 0), pot)
        # gamma = id makes the residual exactly |1 - a| (here a = 0.3)
        assert np.allclose(res, 0.0, atol=1e-12)
        res = verify_h_invariance(spec, [np.eye(2)], pot)
        assert np.max(res) < 1e-15
        # rescaling claim against the identity map: residual = |1 - a|
        f = pot.f
        bad = np.abs(f * spec.multiplier - f) / f
        assert np.allclose(bad, abs(1 - spec.multiplier), atol=1e-12)

    def test_diagonal_h_invariance_any_order(self):
        spec = flow_spec_for(CASE_B)
        samples = fundamental_annulus_sample(29, CASE_B, 60)
        eps = np.exp(2j * np.pi / 7)
        closure = group_closure([np.diag([eps, 1 / eps])])
        res = verify_h_invariance(spec, closure,
                                  PotentialField(spec).potential(samples))
        assert np.max(res) < 1e-12

    def test_case_a_unitary_invariance(self):
        spec = flow_spec_for(CASE_A_CPLX)
        samples = fundamental_annulus_sample(31, CASE_A_CPLX, 60)
        gens = [np.array([[0, 1], [-1, 0]], dtype=complex), np.diag([1j, -1j])]
        res = verify_h_invariance(spec, group_closure(gens),
                                  PotentialField(spec).potential(samples))
        assert np.max(res) < 1e-12

    def test_h_invariance_solves_the_samples_once(self, monkeypatch):
        solved = []
        solve = PotentialField.solve

        def counting(self, x):
            solved.append(None)
            return solve(self, x)

        monkeypatch.setattr(PotentialField, "solve", counting)
        spec = flow_spec_for(CASE_B)
        samples = fundamental_annulus_sample(29, CASE_B, 10)
        closure = group_closure([np.diag([np.exp(2j * np.pi / 3),
                                          np.exp(-2j * np.pi / 3)])])
        verify_h_invariance(spec, closure, PotentialField(spec).potential(samples))
        # the samples once, then the images under every element as one batch
        assert len(solved) == 2

    @pytest.mark.parametrize("params", (CASE_A_CPLX, CASE_C))
    def test_h_invariance_batch_equals_one_solve_per_element(self, params):
        spec = flow_spec_for(params)
        pf = PotentialField(spec)
        pot = pf.potential(fundamental_annulus_sample(31, params, 40))
        closure = group_closure(
            [np.array([[0, 1], [-1, 0]], dtype=complex), np.diag([1j, -1j])]
            if params is CASE_A_CPLX else [-np.eye(2)])
        per_element = np.zeros(pot.f.shape)
        for h in closure:
            f_img = pf.f_value(apply_group_element(UnitaryElement(h), pot.x))
            per_element = np.maximum(per_element,
                                     np.abs(f_img - pot.f) / pot.f)
        assert np.array_equal(verify_h_invariance(spec, closure, pot),
                              per_element)

    def test_shear_invariance_requires_constraint(self):
        spec = flow_spec_for(CASE_C)
        pot = PotentialField(spec).potential(
            fundamental_annulus_sample(37, CASE_C, 60))
        good = verify_h_invariance(spec, group_closure([-np.eye(2)]), pot)
        assert np.max(good) < 1e-10
        # eps = i has eps^{m+1} = -1 != 1: the detector must fire
        bad = verify_h_invariance(spec, [np.diag([1j, -1j])], pot)
        assert np.max(bad) > 0.05


class TestAnnulusSampler:
    @pytest.mark.parametrize("params", ALL_CASES)
    def test_radial_times_in_unit_interval(self, params):
        samples = fundamental_annulus_sample(41, params, 200)
        r = PotentialField(flow_spec_for(params)).solve(samples)
        assert np.min(r) >= 0.0 and np.max(r) < 1.0

    def test_equal_moduli_shell(self):
        samples = fundamental_annulus_sample(43, CASE_A, 200)
        norms = np.linalg.norm(samples, axis=-1)
        assert np.all(norms <= 1.0 + 1e-12) and np.all(norms > 0.5)

    def test_deterministic(self):
        a = fundamental_annulus_sample(47, CASE_B, 20)
        b = fundamental_annulus_sample(47, CASE_B, 20)
        assert np.array_equal(a, b)
