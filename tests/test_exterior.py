"""Exterior algebra kernel: wedge, structures from form pairs, Hodge star,
finite-difference exterior derivative (StencilCloud), Nijenhuis tensor."""

import itertools

import numpy as np
import pytest

from biherm.errors import DegenerateForm, SingularMetric
from biherm.exterior import (
    HOLO_IM,
    HOLO_RE,
    J_STD,
    KAHLER_STD,
    TRIPLES,
    StencilCloud,
    acs_from_form_pair,
    dense_from_three,
    hodge_star,
    hodge_star_three,
    invariant_part,
    metric_from_form,
    min_metric_eigenvalue,
    nijenhuis_from_partials,
    stencil_step,
    to_complex,
    from_complex,
    wedge_one_two,
    wedge_to_volume,
)
from support import d_one_form, hodge_star_one, solve_lee_form, three_from_dense

RNG = np.random.default_rng(42)


def random_two_form(rng=RNG, batch=()):
    a = rng.standard_normal(batch + (4, 4))
    return a - np.swapaxes(a, -1, -2)


def wedge_bruteforce(b, c):
    """Independent oracle: evaluate (B ^ C)(e0, e1, e2, e3) as the explicit
    permutation sum with combinatorial factor 1/(2! 2!)."""
    total = 0.0
    for perm in itertools.permutations(range(4)):
        sign = np.linalg.det(np.eye(4)[list(perm)])
        total += sign * b[perm[0], perm[1]] * c[perm[2], perm[3]]
    return total / 4.0


class TestWedge:
    def test_holo_re_squared(self):
        assert wedge_to_volume(HOLO_RE, HOLO_RE) == pytest.approx(2.0, abs=1e-14)

    def test_mixed_vanishes(self):
        assert wedge_to_volume(HOLO_RE, HOLO_IM) == pytest.approx(0.0, abs=1e-14)

    def test_kahler_squared(self):
        assert wedge_to_volume(KAHLER_STD, KAHLER_STD) == pytest.approx(2.0, abs=1e-14)

    def test_agrees_with_bruteforce_and_symmetry(self):
        for _ in range(100):
            b = random_two_form()
            c = random_two_form()
            s = wedge_to_volume(b, c)
            assert s == pytest.approx(wedge_bruteforce(b, c), abs=1e-12)
            assert s == pytest.approx(wedge_to_volume(c, b), abs=1e-13)

    def test_bilinear(self):
        b, c, d = (random_two_form() for _ in range(3))
        lhs = wedge_to_volume(b, 2.0 * c - 3.0 * d)
        rhs = 2.0 * wedge_to_volume(b, c) - 3.0 * wedge_to_volume(b, d)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def _symplectic_for(phi, rng):
    """Random matrix preserving the 2-form phi: exp of phi^{-1} S, S symmetric."""
    s = rng.standard_normal((4, 4)) * 0.4
    s = s + s.T
    gen = np.linalg.solve(phi, s)
    # matrix exponential by scaling and squaring on the series (no scipy dep)
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, 30):
        term = term @ gen / k
        out = out + term
    return out


class TestAcsFromFormPair:
    def test_standard_pair(self):
        assert np.allclose(acs_from_form_pair(HOLO_RE, HOLO_IM), J_STD, atol=1e-14)

    def test_sign_flip(self):
        assert np.allclose(acs_from_form_pair(HOLO_RE, -HOLO_IM), -J_STD, atol=1e-14)

    def test_symplectic_conjugation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = _symplectic_for(HOLO_RE, rng)
            assert np.allclose(d.T @ HOLO_RE @ d, HOLO_RE, atol=1e-10)
            j = acs_from_form_pair(HOLO_RE, d.T @ HOLO_IM @ d)
            expected = np.linalg.solve(d, J_STD @ d)
            assert np.allclose(j, expected, atol=1e-9)

    def test_reencoding_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi = random_two_form(rng)
            j = acs_from_form_pair(HOLO_RE, psi)
            again = -np.einsum("ji,jl->il", j, HOLO_RE)
            assert np.max(np.abs(again - psi)) < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateForm):
            acs_from_form_pair(np.zeros((4, 4)), HOLO_IM)


class TestInvariantPart:
    def test_anti_invariant_form_killed(self):
        assert np.allclose(invariant_part(HOLO_IM, J_STD), 0.0, atol=1e-15)

    def test_invariant_form_fixed(self):
        assert np.allclose(invariant_part(KAHLER_STD, J_STD), KAHLER_STD, atol=1e-15)

    def test_linearity_split(self):
        out = invariant_part(HOLO_IM + KAHLER_STD, J_STD)
        assert np.allclose(out, KAHLER_STD, atol=1e-15)

    def test_projector(self):
        for _ in range(20):
            b = random_two_form()
            once = invariant_part(b, J_STD)
            assert np.allclose(invariant_part(once, J_STD), once, atol=1e-15)


class TestMetricFromForm:
    def test_euclidean(self):
        assert np.allclose(metric_from_form(KAHLER_STD, J_STD), np.eye(4))

    def test_scaling(self):
        assert np.allclose(metric_from_form(4.0 * KAHLER_STD, J_STD), 4.0 * np.eye(4))

    def test_orientation_matters(self):
        g = metric_from_form(KAHLER_STD, -J_STD)
        assert np.allclose(g, -np.eye(4))
        assert min_metric_eigenvalue(g) == pytest.approx(-1.0)


EUCLID_STAR_TABLE = {
    (0, 1): (2, 3, 1.0),   # *(dx1^dy1) = dx2^dy2
    (0, 2): (1, 3, -1.0),  # *(dx1^dx2) = -dy1^dy2
    (0, 3): (1, 2, 1.0),
    (1, 2): (0, 3, 1.0),
    (1, 3): (0, 2, -1.0),
    (2, 3): (0, 1, 1.0),
}


class TestHodgeStar:
    def test_euclidean_basis_table(self):
        for (i, j), (k, l, sign) in EUCLID_STAR_TABLE.items():
            b = np.zeros((4, 4))
            b[i, j], b[j, i] = 1.0, -1.0
            star = hodge_star(np.eye(4), b)
            expected = np.zeros((4, 4))
            expected[k, l], expected[l, k] = sign, -sign
            assert np.allclose(star, expected, atol=1e-14), (i, j)

    def test_holo_re_selfdual(self):
        assert np.allclose(hodge_star(np.eye(4), HOLO_RE), HOLO_RE, atol=1e-14)

    def test_conformal_invariance(self):
        assert np.allclose(hodge_star(4.0 * np.eye(4), HOLO_RE), HOLO_RE, atol=1e-13)

    def test_star_star_identity_random_metrics(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((1000, 4, 4))
        g = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(4)
        b = random_two_form(rng, batch=(1000,))
        assert np.max(np.abs(hodge_star(g, hodge_star(g, b)) - b)) < 1e-10

    def test_one_three_star_roundtrip(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((50, 4, 4))
        g = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(4)
        alpha = rng.standard_normal((50, 4))
        back = hodge_star_three(g, hodge_star_one(g, alpha))
        assert np.max(np.abs(back + alpha)) < 1e-10  # ** = -Id on 1-forms

    def test_singular_metric_raises(self):
        with pytest.raises(SingularMetric):
            hodge_star(np.diag([1.0, 1.0, 1.0, 0.0]), HOLO_RE)


class TestThreeFormStorage:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        comps = rng.standard_normal((10, 4))
        assert np.allclose(three_from_dense(dense_from_three(comps)), comps)

    def test_dense_antisymmetry(self):
        dense = dense_from_three(np.array([1.0, 2.0, 3.0, 4.0]))
        assert dense[0, 1, 2] == 1.0
        assert dense[1, 0, 2] == -1.0
        assert dense[2, 0, 1] == 1.0
        assert dense[1, 2, 3] == 4.0


def _cloud_values(field, x, h):
    """StencilCloud around the single point x, and the per-point field
    evaluated at its points."""
    x = np.asarray(x, dtype=float)[None]
    cloud = StencilCloud(x, stencil_step(x, h))
    return cloud, np.stack([np.asarray(field(p), dtype=float)
                            for p in cloud.points[0]])[None]


def exterior_derivative(field, x, h=1e-3):
    """d of a per-point 1- or 2-form field at x: a 2-form, or the sorted-
    triple components of a 3-form."""
    cloud, values = _cloud_values(field, x, h)
    if values.ndim == 3:  # (1, rows, 4): a 1-form
        return d_one_form(cloud, values)[0]
    return cloud.d_two_form(values)[0]


def nijenhuis(jfield, x, h=1e-3):
    """Nijenhuis tensor of a per-point J-field at x, axes (i, j, k)."""
    cloud, values = _cloud_values(jfield, x, h)
    j = np.asarray(jfield(np.asarray(x, dtype=float)))[None]
    return nijenhuis_from_partials(j, cloud.partials(values))[0]


class TestExteriorDerivative:
    def test_constant_field(self):
        d = exterior_derivative(lambda x: HOLO_RE, np.array([0.3, 0.1, -0.2, 0.5]))
        assert np.max(np.abs(d)) < 1e-12

    def test_quotient_field_product_rule(self):
        # d(Psi/|z|^2) = (-d log|z|^2) ^ (Psi/|z|^2); at x = (1,0,0,0) the
        # right side is -2 dx1 ^ Psi, computed independently via wedge_one_two
        def field(x):
            return HOLO_IM / np.sum(x**2)

        x = np.array([1.0, 0.0, 0.0, 0.0])
        d = exterior_derivative(field, x, h=1e-3)
        dlog = np.array([-2.0, 0.0, 0.0, 0.0])
        expected = wedge_one_two(dlog, HOLO_IM)
        assert np.max(np.abs(d - expected)) < 1e-8

    def test_polynomial_coefficient(self):
        def field(x):
            b = np.zeros((4, 4))
            b[2, 3], b[3, 2] = x[0], -x[0]
            return b

        d = exterior_derivative(field, np.array([0.7, -0.3, 0.4, 0.2]))
        # d(x1 dx2^dy2) = dx1^dx2^dy2, the triple (0, 2, 3)
        expected = np.zeros(4)
        expected[TRIPLES.index((0, 2, 3))] = 1.0
        assert np.max(np.abs(d - expected)) < 1e-10

    def test_one_form_field(self):
        def field(x):
            return np.array([x[1] * x[2], 0.0, 0.0, x[0]])

        d = exterior_derivative(field, np.array([0.2, 0.5, -0.3, 0.9]))
        expected = np.zeros((4, 4))
        expected[0, 1] = -(-0.3)  # d_0 a_1 - d_1 a_0 = -x2
        expected[1, 0] = -0.3
        expected[0, 3], expected[3, 0] = 1.0, -1.0
        expected[2, 0] = 0.5  # d_2 a_0 = x1... entering as -(d_0 a_2 - d_2 a_0)
        expected[0, 2] = -0.5
        assert np.max(np.abs(d - expected)) < 1e-10

    def test_d_of_d_vanishes(self):
        rng = np.random.default_rng(11)
        coef = rng.standard_normal((4, 4))

        def one_form(x):
            return np.sin(coef @ x)

        def two_form(y):
            return exterior_derivative(one_form, y, h=1e-3)

        x = rng.standard_normal(4) * 0.5
        dd = exterior_derivative(two_form, x, h=1e-3)
        assert np.max(np.abs(dd)) < 1e-6


class TestSecondPartials:
    def test_quartic_hessian_is_exact(self):
        # Richardson over h and h/2 cancels the h^2 term, and a quartic has
        # no higher one: the second partials are exact up to roundoff
        rng = np.random.default_rng(13)
        coef = rng.standard_normal((4, 4, 4, 4))
        quad = rng.standard_normal((4, 4))
        sym4 = sum(np.transpose(coef, perm)
                   for perm in itertools.permutations(range(4))) / 24.0
        quad = quad + quad.T

        def field(x):  # two components: the quartic and its quadratic part
            q = np.einsum("...i,...j,ij->...", x, x, quad)
            return np.stack([np.einsum("...i,...j,...k,...l,ijkl->...",
                                       x, x, x, x, coef) + q, q], axis=-1)

        x = rng.standard_normal((3, 2, 4)) * 0.5
        cloud = StencilCloud(x, np.full((3, 2), 0.1), mixed=True)
        # 16 axial rows, 2 corners at 2 steps on each of 6 planes, the centre
        assert cloud.points.shape == (3, 2, 41, 4)
        hess = cloud.second_partials(field(cloud.points))
        exact = 12.0 * np.einsum("...k,...l,ijkl->...ij", x, x, sym4) + 2.0 * quad
        assert hess.shape == (3, 2, 4, 4, 2)
        assert np.max(np.abs(hess[..., 0] - exact)) < 1e-8
        assert np.max(np.abs(hess[..., 1] - 2.0 * quad)) < 1e-8

    def test_mixed_partials_converge_at_fourth_order(self):
        # on a smooth field that is no polynomial, halving h divides the
        # error of the seven-point mixed entries by about 2^4 = 16
        mp = pytest.importorskip("mpmath")

        def field(p):
            return (np.exp(0.3 * p[..., 0] - 0.2 * p[..., 1]
                           + 0.5 * p[..., 2] * p[..., 3])
                    * np.sin(p[..., 0] * p[..., 2] + 0.7 * p[..., 1]))

        def field_mp(a, b, c, d):
            return mp.exp(0.3 * a - 0.2 * b + 0.5 * c * d) * mp.sin(a * c + 0.7 * b)

        x = np.array([0.4, -0.3, 0.6, 0.5])
        i, j = np.triu_indices(4, 1)
        orders = [tuple(int(k == a) + int(k == b) for k in range(4))
                  for a, b in zip(i, j)]
        with mp.workdps(40):
            point = [mp.mpf(v) for v in x]
            exact = np.array([float(mp.diff(field_mp, point, order))
                              for order in orders])
        errors = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            cloud = StencilCloud(x[None], np.array([h]), mixed=True)
            hess = cloud.second_partials(field(cloud.points))[0]
            errors.append(np.max(np.abs(hess[i, j] - exact)))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios >= 12.0) & (ratios <= 20.0)), (errors, ratios)

    def test_axial_points_lead_the_mixed_cloud(self):
        # partials read the 16 axial points whichever cloud they come from
        x = np.array([[0.3, -0.2, 0.5, 0.1]])
        plain = StencilCloud(x, np.array([1e-2]))
        mixed = StencilCloud(x, np.array([1e-2]), mixed=True)
        assert np.array_equal(mixed.points[:, :16], plain.points)

        def field(p):
            return np.sin(p @ np.array([1.0, 2.0, -1.0, 0.5]))

        assert np.array_equal(mixed.partials(field(mixed.points)),
                              plain.partials(field(plain.points)))


class TestSolveLeeForm:
    def test_reconstructs_wedge_factor(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            tau = rng.standard_normal(4)
            f = KAHLER_STD + 0.2 * random_two_form(rng)
            if abs(np.linalg.det(f)) < 1e-3:
                continue
            comps = wedge_one_two(tau, f)
            assert np.allclose(solve_lee_form(f, comps), tau, atol=1e-10)


def _nonholomorphic_diffeo(x):
    """Polynomial diffeomorphism (perturbation of the identity) that does not
    commute with J; its pullback of J_STD is a nonconstant integrable field."""
    x1, y1, x2, y2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    return np.stack(
        [
            x1 + 0.1 * x2**2,
            y1 + 0.1 * x2 * y2,
            x2 + 0.05 * y1**2,
            y2 - 0.08 * x1 * x2,
        ],
        axis=-1,
    )


def _diffeo_jacobian(x):
    x1, y1, x2, y2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    zero = np.zeros_like(x1)
    one = np.ones_like(x1)
    rows = [
        [one, zero, 0.2 * x2, zero],
        [zero, one, 0.1 * y2, 0.1 * x2],
        [zero, 0.1 * y1, one, zero],
        [-0.08 * x2, zero, -0.08 * x1, one],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


class TestNijenhuis:
    def test_constant_structure(self):
        n = nijenhuis(lambda x: J_STD, np.array([0.2, 0.1, -0.4, 0.3]))
        assert np.max(np.abs(n)) < 1e-12

    def test_pullback_of_integrable_structure(self):
        # conjugating J by the Jacobian of any diffeomorphism preserves
        # integrability, even when the diffeomorphism is not holomorphic
        def jfield(x):
            d = _diffeo_jacobian(x)
            return np.linalg.solve(d, J_STD @ d)

        x = np.array([0.3, -0.2, 0.4, 0.1])
        assert np.max(np.abs(jfield(x) @ jfield(x) + np.eye(4))) < 1e-12
        n = nijenhuis(jfield, x, h=1e-3)
        assert np.max(np.abs(n)) < 1e-5

    def test_detector_fires_on_bump_field(self):
        def jfield(x):
            angle = 0.3 * np.sin(x[..., 0] + 2.0 * x[..., 3])
            c, s = np.cos(angle), np.sin(angle)
            rot = np.array([[c, 0, -s, 0], [0, 1, 0, 0], [s, 0, c, 0], [0, 0, 0, 1]])
            return rot.T @ J_STD @ rot

        n = nijenhuis(jfield, np.array([0.4, 0.0, 0.3, 0.2]), h=1e-3)
        assert np.max(np.abs(n)) > 1e-2  # detector is not blind

    def test_symmetries(self):
        def jfield(x):
            d = _diffeo_jacobian(x)
            return np.linalg.solve(d, J_STD @ d)

        x = np.array([0.1, 0.25, -0.3, 0.05])
        n = nijenhuis(jfield, x, h=1e-3)
        assert np.max(np.abs(n + np.swapaxes(n, 0, 1))) < 1e-12


class TestCoordinates:
    def test_roundtrip(self):
        x = RNG.standard_normal((7, 4))
        assert np.allclose(from_complex(to_complex(x)), x)
