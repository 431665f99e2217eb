"""Helpers that only the tests use: independent routes that the library's
results are checked against, and detectors exercised on synthetic fields.

None of these is on a path that ``biherm certify`` runs.
"""

from dataclasses import dataclass

import numpy as np

from biherm.deformation import (
    DEFAULT_ODE_TOL,
    integrate_flow_chain,
    pullback_psi,
)
from biherm.exterior import (
    EPS4,
    TRIPLES,
    StencilCloud,
    ddc_from_hessian,
    nijenhuis_from_partials,
    stencil_step,
)
from biherm.hopf_groups import UnitaryElement
from biherm.potentials import PotentialField

# ---------------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------------


def hodge_star_one(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Hodge star of a 1-form, returned as a dense antisymmetric (4,4,4)."""
    ginv = np.linalg.inv(g)
    vol = np.sqrt(np.linalg.det(g))
    raised = np.einsum("...im,...m->...i", ginv, a)
    return vol[..., None, None, None] * np.einsum("...i,ijkl->...jkl", raised, EPS4)


def three_from_dense(c: np.ndarray) -> np.ndarray:
    """Dense antisymmetric (..., 4, 4, 4) -> sorted-triple components (..., 4)."""
    c = np.asarray(c)
    return np.stack([c[..., a, b, d] for (a, b, d) in TRIPLES], axis=-1)


def solve_lee_form(f: np.ndarray, d_comps: np.ndarray) -> np.ndarray:
    """The unique 1-form tau with tau ^ F = dF, for nondegenerate F.

    Independent route to the Lee form (the pipeline computes it as
    J(delta F)); wedging with F is an isomorphism from 1-forms onto 3-forms
    exactly when F ^ F != 0.
    """
    f = np.asarray(f, dtype=float)
    mat = np.zeros(f.shape[:-2] + (4, 4))
    for t, (a, b, c) in enumerate(TRIPLES):
        mat[..., t, a] += f[..., b, c]
        mat[..., t, b] -= f[..., a, c]
        mat[..., t, c] += f[..., a, b]
    return np.linalg.solve(mat, np.asarray(d_comps, dtype=float))


def d_one_form(cloud: StencilCloud, values: np.ndarray) -> np.ndarray:
    """Exterior derivative of a 1-form field sampled on the cloud, as a
    2-form."""
    p = cloud.partials(values)  # (..., d, j)
    return p - np.swapaxes(p, -1, -2)


def d_three_form(cloud: StencilCloud, comps: np.ndarray) -> np.ndarray:
    """Exterior derivative of a triple-component 3-form field sampled on the
    cloud (a scalar coefficient on the volume form)."""
    p = cloud.partials(comps)  # (..., d, triple)
    return p[..., 0, 3] - p[..., 1, 2] + p[..., 2, 1] - p[..., 3, 0]


# ---------------------------------------------------------------------------
# detectors on sampled fields
# ---------------------------------------------------------------------------


def cloud_lee_forms(field, center):
    """``field.lee_forms`` at an assembled sample, from the sample's stencil
    cloud integrated on its own (a certificate integrates the cloud with the
    deck images, ``check_field_families``)."""
    return field.lee_forms(center, field.assemble(field.stencil(center.x).points))


def check_integrability(jfield, x: np.ndarray) -> np.ndarray:
    """Max Nijenhuis component of an arbitrary sampled J-field at x.

    ``jfield`` maps (k, 4) points to (k, 4, 4) endomorphisms.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cloud = StencilCloud(x, stencil_step(x))
    dj = cloud.partials(np.asarray(jfield(cloud.points)))
    n_tensor = nijenhuis_from_partials(np.asarray(jfield(x)), dj)
    return np.max(np.abs(n_tensor), axis=(-3, -2, -1))


def t_zero_derivative_check(spec, x: np.ndarray, h_t: float = 1e-4,
                            ode_tol: float = DEFAULT_ODE_TOL) -> np.ndarray:
    """Relative residual of the t = 0 slope of psi_minus/f against dd^c f / f.

    The central difference in t of the quotient pullback must reproduce the
    conformally normalised Kaehler form of the potential.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pf = PotentialField(spec)
    r = pf.solve(x)
    plus, minus = (pullback_psi(integrate_flow_chain(spec, (s,), x, r, ode_tol)[0])
                   for s in (h_t, -h_t))
    f, _, hess = pf.value_grad_hess(x, r)
    slope = (plus - minus) / (2.0 * h_t * f[..., None, None])
    target = ddc_from_hessian(hess) / f[..., None, None]
    num = np.max(np.abs(slope - target), axis=(-2, -1))
    den = np.max(np.abs(target), axis=(-2, -1))
    return num / den


# ---------------------------------------------------------------------------
# second-order forward-mode jets: value, gradient and Hessian together; the
# reference route for the closed-form derivatives of G.  All fields accept
# leading batch axes and every operation broadcasts over them.
# ---------------------------------------------------------------------------


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...j->...ij", a, b)


@dataclass(frozen=True)
class JetScalar:
    """Scalar value with gradient and symmetric Hessian.

    Arithmetic obeys the product and chain rules exactly (up to floating
    point), which the tests verify against Richardson finite differences.
    """

    value: np.ndarray
    grad: np.ndarray  # (..., n)
    hess: np.ndarray  # (..., n, n)

    @property
    def nvars(self) -> int:
        return self.grad.shape[-1]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, JetScalar):
            return JetScalar(self.value + other.value, self.grad + other.grad,
                             self.hess + other.hess)
        return JetScalar(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return JetScalar(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other if isinstance(other, JetScalar) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, JetScalar):
            u, v = self, other
            uv = u.value * v.value
            grad = u.grad * v.value[..., None] + v.grad * u.value[..., None]
            cross = _outer(u.grad, v.grad)
            hess = (
                u.hess * v.value[..., None, None]
                + v.hess * u.value[..., None, None]
                + cross
                + np.swapaxes(cross, -1, -2)
            )
            return JetScalar(uv, grad, hess)
        c = np.asarray(other)
        return JetScalar(self.value * c, self.grad * c[..., None],
                         self.hess * c[..., None, None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, JetScalar):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            if exponent == 0:
                return jet_constant(np.ones_like(self.value), self.nvars)
            if exponent < 0:
                return (self ** (-exponent)).reciprocal()
            out = self
            for _ in range(exponent - 1):
                out = out * self
            return out
        return (self.log() * float(exponent)).exp()

    # -- chain rule for elementary functions --------------------------------

    def _compose(self, f0, f1, f2) -> "JetScalar":
        grad = f1[..., None] * self.grad
        hess = f1[..., None, None] * self.hess + f2[..., None, None] * _outer(
            self.grad, self.grad
        )
        return JetScalar(f0, grad, hess)

    def exp(self) -> "JetScalar":
        e = np.exp(self.value)
        return self._compose(e, e, e)

    def log(self) -> "JetScalar":
        v = self.value
        return self._compose(np.log(v), 1.0 / v, -1.0 / v**2)

    def sqrt(self) -> "JetScalar":
        s = np.sqrt(self.value)
        return self._compose(s, 0.5 / s, -0.25 / (s * self.value))

    def reciprocal(self) -> "JetScalar":
        v = self.value
        return self._compose(1.0 / v, -1.0 / v**2, 2.0 / v**3)


def jet_constant(value, nvars: int) -> JetScalar:
    value = np.asarray(value, dtype=float)
    return JetScalar(
        value,
        np.zeros(value.shape + (nvars,)),
        np.zeros(value.shape + (nvars, nvars)),
    )


def jet_variables(x: np.ndarray, nvars: int | None = None, offset: int = 0):
    """Coordinate jets for the columns of x (..., k), seeded at ``offset``.

    Returns a list of k jets in ``nvars`` variables (default k), where the
    j-th jet has unit gradient in slot offset + j.
    """
    x = np.asarray(x, dtype=float)
    k = x.shape[-1]
    n = k if nvars is None else nvars
    out = []
    for j in range(k):
        grad = np.zeros(x.shape[:-1] + (n,))
        grad[..., offset + j] = 1.0
        out.append(JetScalar(x[..., j], grad, np.zeros(x.shape[:-1] + (n, n))))
    return out


# ---------------------------------------------------------------------------
# jet route to the derivatives of G
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexJet:
    """Complex scalar tracked as a pair of real jets."""

    re: JetScalar
    im: JetScalar

    def __add__(self, other):
        if isinstance(other, ComplexJet):
            return ComplexJet(self.re + other.re, self.im + other.im)
        c = complex(other)
        return ComplexJet(self.re + c.real, self.im + c.imag)

    __radd__ = __add__

    def __neg__(self):
        return ComplexJet(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ComplexJet) else -complex(other))

    def __mul__(self, other):
        if isinstance(other, ComplexJet):
            return ComplexJet(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, JetScalar):
            return ComplexJet(self.re * other, self.im * other)
        c = complex(other)
        return ComplexJet(self.re * c.real - self.im * c.imag,
                          self.re * c.imag + self.im * c.real)

    __rmul__ = __mul__

    def conj(self) -> "ComplexJet":
        return ComplexJet(self.re, -self.im)

    def abs2(self) -> JetScalar:
        return self.re * self.re + self.im * self.im

    def __pow__(self, exponent: int) -> "ComplexJet":
        if exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = ComplexJet(jet_constant(np.ones_like(self.re.value), self.re.nvars),
                         jet_constant(np.zeros_like(self.im.value), self.im.nvars))
        for _ in range(exponent):
            out = out * self
        return out


def g_jet5(spec, r: np.ndarray, x: np.ndarray) -> JetScalar:
    """2-jet of G(r, z) = |phi_{-r}(z)|^2 - 1 in the five variables
    (r, x1, y1, x2, y2), by jet arithmetic."""
    jr = jet_variables(np.asarray(r, dtype=float)[..., None], nvars=5, offset=0)[0]
    jx = jet_variables(np.asarray(x, dtype=float), nvars=5, offset=1)
    z1 = ComplexJet(jx[0], jx[1])
    z2 = ComplexJet(jx[2], jx[3])
    if spec.kind == "diagonal":
        la, lb = spec.log_alpha.real, spec.log_beta.real
        return (
            z1.abs2() * (jr * (-2.0 * la)).exp()
            + z2.abs2() * (jr * (-2.0 * lb)).exp()
            - 1.0
        )
    lb = spec.log_beta.real
    w = z1 - (z2**spec.m * spec.lam_hat) * jr
    return (
        w.abs2() * (jr * (-2.0 * spec.m * lb)).exp()
        + z2.abs2() * (jr * (-2.0 * lb)).exp()
        - 1.0
    )


# ---------------------------------------------------------------------------
# deck group
# ---------------------------------------------------------------------------


def canonical_multiplier(elem) -> complex:
    """Multiplier of the standard holomorphic 2-form dz1^dz2 under pullback:
    (alpha*beta)^n for contraction powers, det(h) for unitary elements.
    Its positivity on the whole group is the real-type check that classify
    makes in closed form."""
    if isinstance(elem, UnitaryElement):
        return complex(np.linalg.det(elem.mat))
    p = elem.params
    return (p.alpha * p.beta) ** elem.n
