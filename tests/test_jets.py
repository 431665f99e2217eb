"""Jet arithmetic against Richardson finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import ComplexJet, jet_constant, jet_variables


def fd_gradient(fn, x, h=1e-3):
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        d1 = (fn(x + e) - fn(x - e)) / (2 * h)
        d2 = (fn(x + e / 2) - fn(x - e / 2)) / h
        out[i] = (4 * d2 - d1) / 3
    return out


def fd_hessian(fn, x, h=1e-3):
    n = len(x)
    out = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h

        def partial(y, j=j, e=e):
            return (fn(y + e) - fn(y - e)) / (2 * h)

        def partial_half(y, j=j, e=e):
            return (fn(y + e / 2) - fn(y - e / 2)) / h

        d1 = fd_gradient(partial, x, h)
        d2 = fd_gradient(partial_half, x, h)
        out[:, j] = (4 * d2 - d1) / 3
    return out


def composite(x):
    """Products, exp, log, sqrt, reciprocal in one expression; domain keeps
    every intermediate bounded away from singularities."""
    a, b, c, d = x
    return (
        np.exp(0.3 * a * b) * np.sqrt(2.0 + c**2)
        + np.log(3.0 + a**2 + d**2) / (1.5 + b**2)
        - 1.0 / (2.0 + (a + c) ** 2)
    )


def composite_jet(v):
    a, b, c, d = v
    return (
        (0.3 * a * b).exp() * (2.0 + c * c).sqrt()
        + (3.0 + a * a + d * d).log() * (1.5 + b * b).reciprocal()
        - (2.0 + (a + c) * (a + c)).reciprocal()
    )


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize("seed", range(8))
    def test_composite_expression(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.5, 1.5, size=4)
        jet = composite_jet(jet_variables(x))
        assert jet.value == pytest.approx(composite(x), rel=1e-14)
        grad = fd_gradient(composite, x)
        hess = fd_hessian(composite, x)
        scale = 1.0 + np.abs(grad)
        assert np.max(np.abs(jet.grad - grad) / scale) < 1e-6
        assert np.max(np.abs(jet.hess - hess) / (1.0 + np.abs(hess))) < 1e-6

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1.0, 1.0, size=(6, 4))
        batched = composite_jet(jet_variables(xs))
        for i, x in enumerate(xs):
            single = composite_jet(jet_variables(x))
            assert np.allclose(batched.value[i], single.value)
            assert np.allclose(batched.grad[i], single.grad)
            assert np.allclose(batched.hess[i], single.hess)


class TestAlgebraicRules:
    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=0.5, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, a, b, c):
        u, v, w = jet_variables(np.array([a, b, c]))
        prod = u * v * w
        assert prod.value == pytest.approx(a * b * c, rel=1e-12, abs=1e-12)
        assert prod.grad == pytest.approx([b * c, a * c, a * b], rel=1e-12, abs=1e-12)
        # mixed second partials of a*b*c
        assert prod.hess[0, 1] == pytest.approx(c, rel=1e-12)
        assert prod.hess[0, 0] == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=0.2, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_log_exp_inverse(self, a):
        (u,) = jet_variables(np.array([a]))
        roundtrip = u.log().exp()
        assert roundtrip.value == pytest.approx(a, rel=1e-12)
        assert roundtrip.grad[0] == pytest.approx(1.0, rel=1e-10)
        assert abs(roundtrip.hess[0, 0]) < 1e-10

    def test_integer_power(self):
        (u,) = jet_variables(np.array([1.7]))
        p = u**4
        assert p.value == pytest.approx(1.7**4)
        assert p.grad[0] == pytest.approx(4 * 1.7**3)
        assert p.hess[0, 0] == pytest.approx(12 * 1.7**2)
        inv = u**-2
        assert inv.value == pytest.approx(1.7**-2)
        assert inv.grad[0] == pytest.approx(-2 * 1.7**-3)

    def test_constants_have_no_derivatives(self):
        c = jet_constant(np.array([2.0, 3.0]), 4)
        assert np.all(c.grad == 0.0) and np.all(c.hess == 0.0)

    def test_hessian_symmetry(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.1, 1.0, size=4)
        jet = composite_jet(jet_variables(x))
        assert np.allclose(jet.hess, jet.hess.T)


class TestComplexJets:
    def test_power_matches_complex_arithmetic(self):
        x = np.array([0.7, -0.4])
        jx = jet_variables(x)
        z = ComplexJet(jx[0], jx[1])
        for m in range(5):
            zm = z**m
            expected = (x[0] + 1j * x[1]) ** m
            assert zm.re.value == pytest.approx(expected.real, abs=1e-13)
            assert zm.im.value == pytest.approx(expected.imag, abs=1e-13)

    def test_abs2_gradient(self):
        x = np.array([0.3, 0.8])
        jx = jet_variables(x)
        z = ComplexJet(jx[0], jx[1])
        n = (z * z).abs2()  # |z^2|^2 = (x^2+y^2)^2

        def fn(v):
            return (v[0] ** 2 + v[1] ** 2) ** 2

        assert n.value == pytest.approx(fn(x), rel=1e-13)
        assert np.allclose(n.grad, fd_gradient(fn, x), atol=1e-7)
        assert np.allclose(n.hess, fd_hessian(fn, x), atol=1e-6)

    def test_conj_scalar_mix(self):
        x = np.array([0.5, 0.2])
        jx = jet_variables(x)
        z = ComplexJet(jx[0], jx[1])
        w = (2.0 - 1.0j) * z.conj() + (0.5 + 0.25j)
        expected = (2.0 - 1.0j) * np.conj(x[0] + 1j * x[1]) + (0.5 + 0.25j)
        assert w.re.value == pytest.approx(expected.real)
        assert w.im.value == pytest.approx(expected.imag)
