"""Radial potentials for contraction flows on C^2 minus the origin.

Every admissible contraction gamma0 embeds into an explicit one-parameter
group phi_t:

* diagonal flow  phi_t(z) = (alpha^t z1, beta^t z2)        (lambda = 0),
* shear flow     phi_t(z) = (beta^{mt}(z1 + t*lhat*z2^m), beta^t z2)
  with lhat = lambda * beta^{-m}                           (lambda != 0),

both satisfying phi_s o phi_t = phi_{s+t} exactly and phi_1 = gamma0.  The
radial time r(z) is the unique root of

    G(r, z) = |phi_{-r}(z)|^2 - 1 = 0,

found by Newton's method kept inside the one cell of a 64-point scan in
which G changes sign; its first and second derivatives follow from the
implicit function theorem applied to the gradient and Hessian of G in the
five variables (r, x).  G depends on the flow only through
moduli, so r is independent of the chosen arguments of alpha^t, beta^t.

The potential f = a^r (a = |alpha||beta| for diagonal flows, |beta|^{m+1}
for shears) satisfies f(gamma0 z) = a f(z) and is a Kaehler potential; the
positivity of dd^c f is a theorem for diagonal flows but only a runtime
check for shears, where it fails once |lambda| grows too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRadialTime,
    BeyondPrecision,
    GroupDataError,
    NotPlurisubharmonic,
)
from .exterior import (
    J_STD,
    ddc_from_hessian,
    from_complex,
    metric_from_form,
    min_metric_eigenvalue,
    to_complex,
)
from .hopf_groups import (
    ContractionParams,
    ContractionPower,
    UnitaryElement,
    apply_group_element,
)

ROOT_TOL = 1e-13
#: A point's solve stops once its Newton step is at most
#: _STEP_TOL * (1 + |r|), and after _NEWTON_ITERS steps at the latest; that
#: many bisections of a scan cell would reach the same resolution.
_NEWTON_ITERS = 64
_STEP_TOL = 1e-15
_SCAN_POINTS = 64
#: Smallest multiplier a (f(gamma0 z) = a f(z)) the numerics represent.  The
#: quotient forms scale like 1/f, with f = a^r down to a^2 on the deck
#: images of the samples, and their 4x4 determinants like a^-8, which is
#: 1e240 at the bound and overflows double precision below about 1e-38.
MIN_MULTIPLIER = 1e-30


@dataclass(frozen=True)
class FlowSpec:
    """One-parameter group containing the contraction.

    ``log_alpha``/``log_beta`` fix the branch used by ``flow_apply``; the
    radial time and the potential only see their real parts.
    """

    kind: str  # "diagonal" | "shear"
    log_alpha: complex
    log_beta: complex
    m: int = 1
    lam_hat: complex = 0j

    @property
    def multiplier(self) -> float:
        """Rescaling factor a with f(gamma0 z) = a f(z)."""
        if self.kind == "diagonal":
            return float(np.exp(self.log_alpha.real + self.log_beta.real))
        return float(np.exp((self.m + 1) * self.log_beta.real))

    @property
    def log_multiplier(self) -> float:
        return float(np.log(self.multiplier))


def flow_spec_for(params: ContractionParams) -> FlowSpec:
    """Build the flow containing gamma0 from validated contraction data.

    Valid data whose multiplier is below MIN_MULTIPLIER raises
    BeyondPrecision: the flow exists, but its potential and quotient forms
    do not fit in double precision.
    """
    reason = params.validate()
    if reason is not None:
        raise GroupDataError(reason)
    arg_a = params.arg_alpha if params.arg_alpha is not None else float(np.angle(params.alpha))
    arg_b = params.arg_beta if params.arg_beta is not None else float(np.angle(params.beta))
    log_alpha = complex(np.log(abs(params.alpha)), arg_a)
    log_beta = complex(np.log(abs(params.beta)), arg_b)
    log_a = ((params.m + 1) * log_beta.real if params.lam
             else log_alpha.real + log_beta.real)
    if not log_a >= math.log(MIN_MULTIPLIER):
        raise BeyondPrecision(
            f"multiplier a = exp({log_a:.4g}) is below {MIN_MULTIPLIER:g}: "
            "f = a^r and the quotient forms Phi/f leave double precision")
    if params.lam == 0:
        return FlowSpec("diagonal", log_alpha, log_beta, params.m)
    lam_hat = params.lam / params.beta**params.m
    return FlowSpec("shear", log_alpha, log_beta, params.m, lam_hat)


def flow_apply(spec: FlowSpec, t, x: np.ndarray) -> np.ndarray:
    """Point(s) phi_t(x); exact group law, phi_0 = Id, phi_1 = gamma0."""
    z = to_complex(x)
    t = np.asarray(t, dtype=float)
    if spec.kind == "diagonal":
        w1 = np.exp(t * spec.log_alpha) * z[..., 0]
        w2 = np.exp(t * spec.log_beta) * z[..., 1]
    else:
        w1 = np.exp(spec.m * t * spec.log_beta) * (
            z[..., 0] + t * spec.lam_hat * z[..., 1] ** spec.m
        )
        w2 = np.exp(t * spec.log_beta) * z[..., 1]
    return from_complex(np.stack([w1, w2], axis=-1))


# ---------------------------------------------------------------------------
# the radial-time equation G(r, z) = |phi_{-r}(z)|^2 - 1
# ---------------------------------------------------------------------------

def _shear_polynomials(spec: FlowSpec, z: np.ndarray):
    """Coefficients of |z1 - r lhat z2^m|^2 = P0 - 2 r P1 + r^2 P2."""
    s = spec.lam_hat * z[..., 1] ** spec.m
    p0 = np.abs(z[..., 0]) ** 2
    p1 = (np.conj(z[..., 0]) * s).real
    p2 = np.abs(s) ** 2
    return p0, p1, p2


def _g_value_slope(spec: FlowSpec, r: np.ndarray, x: np.ndarray):
    """G and dG/dr, vectorised; uses only moduli (branch independent)."""
    z = to_complex(x)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "diagonal":
            la, lb = spec.log_alpha.real, spec.log_beta.real
            a2 = np.abs(z[..., 0]) ** 2
            b2 = np.abs(z[..., 1]) ** 2
            ea = np.exp(-2.0 * r * la)
            eb = np.exp(-2.0 * r * lb)
            value = a2 * ea + b2 * eb - 1.0
            slope = -2.0 * la * a2 * ea - 2.0 * lb * b2 * eb
            return value, slope
        lb = spec.log_beta.real
        m = spec.m
        p0, p1, p2 = _shear_polynomials(spec, z)
        q = np.abs(z[..., 1]) ** 2
        em = np.exp(-2.0 * m * r * lb)
        e1 = np.exp(-2.0 * r * lb)
        poly = p0 - 2.0 * r * p1 + r**2 * p2
        value = poly * em + q * e1 - 1.0
        slope = (-2.0 * p1 + 2.0 * r * p2) * em - 2.0 * m * lb * poly * em - 2.0 * lb * q * e1
        return value, slope


def _g_derivatives(spec: FlowSpec, r: np.ndarray, x: np.ndarray):
    """Gradient and Hessian of G in (r, x1, y1, x2, y2), in closed form.

    Same quantities as jet arithmetic on G, which the tests keep as the
    reference route; the closed form avoids per-call temporaries on the
    flow integrator's hot path.
    """
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    batch = r.shape
    grad = np.zeros(batch + (5,))
    hess = np.zeros(batch + (5, 5))
    z = to_complex(x)
    if spec.kind == "diagonal":
        la, lb = spec.log_alpha.real, spec.log_beta.real
        a2 = np.abs(z[..., 0]) ** 2
        b2 = np.abs(z[..., 1]) ** 2
        ea = np.exp(-2.0 * r * la)
        eb = np.exp(-2.0 * r * lb)
        grad[..., 0] = -2.0 * la * a2 * ea - 2.0 * lb * b2 * eb
        grad[..., 1] = 2.0 * x[..., 0] * ea
        grad[..., 2] = 2.0 * x[..., 1] * ea
        grad[..., 3] = 2.0 * x[..., 2] * eb
        grad[..., 4] = 2.0 * x[..., 3] * eb
        hess[..., 0, 0] = 4.0 * la**2 * a2 * ea + 4.0 * lb**2 * b2 * eb
        for i, (coef, ex) in enumerate(((la, ea), (la, ea), (lb, eb), (lb, eb))):
            cross = -4.0 * coef * x[..., i] * ex
            hess[..., 0, i + 1] = cross
            hess[..., i + 1, 0] = cross
            hess[..., i + 1, i + 1] = 2.0 * ex
        return grad, hess

    lb = spec.log_beta.real
    m = spec.m
    # w = z1 - r*s with s = lhat*z2^m; P = |w|^2, Q = |z2|^2
    z2_pow = z[..., 1] ** (m - 1)
    s = spec.lam_hat * z2_pow * z[..., 1]
    s_x = m * spec.lam_hat * z2_pow
    s_xx = (m * (m - 1) * spec.lam_hat * z[..., 1] ** (m - 2)) if m >= 2 else 0.0
    w = z[..., 0] - r * s
    wbar = np.conj(w)
    p_val = np.abs(w) ** 2
    q_val = np.abs(z[..., 1]) ** 2
    em = np.exp(-2.0 * m * r * lb)
    e1 = np.exp(-2.0 * r * lb)

    # first derivatives of w in (r, x1, y1, x2, y2): (-s, 1, i, -r s_x, -i r s_x)
    dw = np.stack([-s, np.ones_like(s), 1j * np.ones_like(s),
                   -r * s_x, -1j * r * s_x], axis=-1)
    # P_ab = 2 Re(conj(dw_a) dw_b) + 2 Re(wbar ddw_ab); the first term from
    # real and imaginary parts, so that no complex (5, 5) batch exists
    np.multiply(dw.real[..., :, None], dw.real[..., None, :], out=hess)
    hess += dw.imag[..., :, None] * dw.imag[..., None, :]
    ws, wss = wbar * s_x, r * wbar * s_xx
    hess[..., 0, 3] -= ws.real  # ddw_{r x2} = -s_x
    hess[..., 0, 4] += ws.imag  # ddw_{r y2} = -i s_x
    hess[..., 3, 3] -= wss.real  # ddw_{x2 x2} = -r s_xx
    hess[..., 3, 4] += wss.imag  # ddw_{x2 y2} = -i r s_xx
    hess[..., 4, 4] += wss.real  # ddw_{y2 y2} = r s_xx
    hess[..., 3, 0], hess[..., 4, 0], hess[..., 4, 3] = (
        hess[..., 0, 3], hess[..., 0, 4], hess[..., 3, 4])
    hess *= 2.0 * em[..., None, None]
    grad[...] = 2.0 * (wbar[..., None] * dw).real * em[..., None]

    # grad and hess hold the derivatives of P em so far
    cm, c1 = -2.0 * m * lb, -2.0 * lb
    hess[..., 0, :] += cm * grad
    hess[..., :, 0] += cm * grad
    grad[..., 0] += cm * p_val * em + c1 * q_val * e1
    grad[..., 3] += 2.0 * x[..., 2] * e1
    grad[..., 4] += 2.0 * x[..., 3] * e1

    hess[..., 0, 0] += cm**2 * p_val * em + c1**2 * q_val * e1
    hess[..., 0, 3] += c1 * 2.0 * x[..., 2] * e1
    hess[..., 3, 0] += c1 * 2.0 * x[..., 2] * e1
    hess[..., 0, 4] += c1 * 2.0 * x[..., 3] * e1
    hess[..., 4, 0] += c1 * 2.0 * x[..., 3] * e1
    hess[..., 3, 3] += 2.0 * e1
    hess[..., 4, 4] += 2.0 * e1
    return grad, hess


def _bracket(spec: FlowSpec, x: np.ndarray):
    """Expand [-1, 1] by doubling until G changes sign across the bracket."""
    batch = np.asarray(x, dtype=float).shape[:-1]
    lo = -np.ones(batch)
    hi = np.ones(batch)
    for _ in range(200):
        glo, _ = _g_value_slope(spec, lo, x)
        need = glo >= 0.0
        if not np.any(need):
            break
        lo = np.where(need, 2.0 * lo, lo)
    else:
        raise AmbiguousRadialTime("failed to bracket the radial time from below")
    for _ in range(200):
        ghi, _ = _g_value_slope(spec, hi, x)
        need = ghi <= 0.0
        if not np.any(need):
            break
        hi = np.where(need, 2.0 * hi, hi)
    else:
        raise AmbiguousRadialTime("failed to bracket the radial time from above")
    return lo, hi


def _sign_change_cell(spec: FlowSpec, lo, hi, x):
    """The cell of a _SCAN_POINTS grid on the bracket [lo, hi] in which G
    changes sign, with G < 0 at its lower and G >= 0 at its upper end.

    Rejects brackets in which G changes sign more than once (possible only
    for shear flows with large |lambda|).
    """
    grid = np.linspace(0.0, 1.0, _SCAN_POINTS)
    values = np.stack(
        [_g_value_slope(spec, lo + s * (hi - lo), x)[0] for s in grid], axis=0
    )
    signs = np.sign(values)
    signs[signs == 0.0] = 1.0
    changed = signs[1:] != signs[:-1]
    changes = np.sum(changed, axis=0)
    if np.any(changes > 1):
        idx = np.argwhere(changes > 1).ravel().tolist()
        raise AmbiguousRadialTime(
            f"radial-time equation has multiple roots at sample indices {idx}; "
            "the shear coefficient |lambda| is too large"
        )
    cell = np.argmax(changed, axis=0)
    return lo + grid[cell] * (hi - lo), lo + grid[cell + 1] * (hi - lo)


# ---------------------------------------------------------------------------
# the radial time r, the potential f = a^r and its derived forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialEval:
    """Potential data at a point set x, checked once: radial time r,
    potential f, dd^c f, the conformally normalised form dd^c f / f, and
    margin, the least eigenvalue of the metric of dd^c f (positive at every
    point).  The derivatives of f are ``PotentialField.value_grad_hess`` at
    (x, r)."""

    x: np.ndarray
    r: np.ndarray
    f: np.ndarray
    ddc_f: np.ndarray
    lck_form: np.ndarray
    margin: np.ndarray


class PotentialField:
    """The radial time r and the potential f = a^r of one flow.

    ``solve`` performs the guarded cold start (bracket, multiple-root scan,
    safeguarded Newton); ``value_grad_hess`` takes f and its derivatives at a
    known r with no root solve; ``f_value`` is f alone; ``potential``
    evaluates and checks a point set once.
    """

    def __init__(self, spec: FlowSpec):
        self.spec = spec

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Radial time r at x: Newton from the upper end of G's sign-change
        cell, with a bisection step wherever Newton would leave the cell
        (rtsafe; Press et al., Numerical Recipes, sec. 9.4).  Each point
        stops at its own small Newton step, so its r does not depend on the
        batch.  The root must meet |G| <= ROOT_TOL and dG/dr > 0."""
        lo, hi = _sign_change_cell(self.spec, *_bracket(self.spec, x), x)
        r = hi
        moving = np.ones(np.shape(r), dtype=bool)
        for _ in range(_NEWTON_ITERS):
            value, slope = _g_value_slope(self.spec, r, x)
            lo = np.where(value < 0.0, r, lo)
            hi = np.where(value < 0.0, hi, r)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = r - value / slope
            newton = (lo <= step) & (step <= hi)
            settled = newton & (np.abs(step - r) <= _STEP_TOL * (1.0 + np.abs(r)))
            r = np.where(moving, np.where(newton, step, 0.5 * (lo + hi)), r)
            moving &= ~settled
            if not np.any(moving):
                break
        value, slope = _g_value_slope(self.spec, r, x)
        unpolished = np.abs(value) > ROOT_TOL
        if np.any(unpolished):
            raise AmbiguousRadialTime(
                f"Newton polish failed at sample indices "
                f"{np.argwhere(unpolished).ravel().tolist()}, "
                f"max |G| = {np.max(np.abs(value)):.3e}"
            )
        if np.any(slope <= 0.0):
            raise AmbiguousRadialTime(
                f"dG/dr <= 0 at the roots of sample indices "
                f"{np.argwhere(slope <= 0.0).ravel().tolist()}; "
                "monotonicity certificate failed"
            )
        return r

    def f_value(self, x: np.ndarray) -> np.ndarray:
        """f = a^r at x: one root solve, no derivatives, no positivity check."""
        return np.exp(self.spec.log_multiplier
                      * self.solve(np.asarray(x, dtype=float)))

    def value_grad_hess(self, x: np.ndarray, r: np.ndarray):
        """(f, grad f, hess f) at points x of radial time r, without
        positivity checks and without a root solve.

        The derivatives of r follow from the implicit function theorem on
        G(r(x), x) = 0, those of f = a^r from the chain rule; both use the
        one outer product grad r grad r^T.
        """
        grad, hess = _g_derivatives(self.spec, r, x)
        g_r = grad[..., 0]
        r_x = -grad[..., 1:] / g_r[..., None]
        cross = hess[..., 0, 1:, None] * r_x[..., None, :]
        r_x_r_x = r_x[..., :, None] * r_x[..., None, :]
        r_xx = -(
            hess[..., 1:, 1:]
            + cross
            + np.swapaxes(cross, -1, -2)
            + hess[..., 0, 0, None, None] * r_x_r_x
        ) / g_r[..., None, None]
        ln_a = self.spec.log_multiplier
        f = np.exp(ln_a * np.asarray(r, dtype=float))
        return (f, ln_a * f[..., None] * r_x,
                ln_a * f[..., None, None] * (r_xx + ln_a * r_x_r_x))

    def potential(self, x: np.ndarray) -> PotentialEval:
        """r, f and dd^c f at x; raises unless dd^c f is positive definite at
        every point: NotPlurisubharmonic for a shear (|lambda| too large),
        BeyondPrecision for a diagonal flow (where it is roundoff)."""
        x = np.asarray(x, dtype=float)
        r = self.solve(x)
        f, _, hess = self.value_grad_hess(x, r)
        ddc = ddc_from_hessian(hess)
        lck = ddc / f[..., None, None]
        margin = min_metric_eigenvalue(metric_from_form(ddc, J_STD))
        if np.any(margin <= 0.0):
            found = ("dd^c f is not positive definite at a sample point "
                     f"(min eigenvalue {float(np.min(margin)):.3e})")
            if self.spec.kind == "diagonal":
                raise BeyondPrecision(
                    f"{found}; for a diagonal flow it is in exact arithmetic, "
                    "so this is roundoff beyond double precision")
            raise NotPlurisubharmonic(f"{found}; reduce |lambda| and rerun")
        return PotentialEval(x, r, f, ddc, lck, margin)


# ---------------------------------------------------------------------------
# invariance diagnostics and sampling
# ---------------------------------------------------------------------------

def verify_rescaling(spec: FlowSpec, element, pot: PotentialEval) -> np.ndarray:
    """Per-sample relative residual of f(gamma z) = a^n f(z) at the points
    of pot."""
    n = element.n if isinstance(element, ContractionPower) else 0
    f_x = pot.f
    f_img = PotentialField(spec).f_value(apply_group_element(element, pot.x))
    return np.abs(f_img - spec.multiplier**n * f_x) / f_x


def verify_h_invariance(spec: FlowSpec, elements, pot: PotentialEval) -> np.ndarray:
    """Per-sample worst relative residual of f(h z) = f(z) over the closure,
    at the points of pot.

    For shear flows this passes exactly when eps^{m+1} = 1, i.e. under the
    m = k*ell - 1 constraint; the residual is order one otherwise.
    """
    pf = PotentialField(spec)
    f_x = pot.f
    worst = np.zeros(f_x.shape)
    for h in elements:
        elem = h if isinstance(h, UnitaryElement) else UnitaryElement(h)
        f_img = pf.f_value(apply_group_element(elem, pot.x))
        worst = np.maximum(worst, np.abs(f_img - f_x) / f_x)
    return worst


def fundamental_annulus_sample(rng_seed: int, contraction: ContractionParams | FlowSpec,
                               n: int) -> np.ndarray:
    """Deterministic sample of n points with radial time in [0, 1).

    Draws directions uniformly on the unit sphere and flows them forward by a
    uniform time u in [0, 1); since the sphere has r = 0 and the flow shifts
    r by its time, the samples land exactly at r = u.
    """
    spec = contraction if isinstance(contraction, FlowSpec) else flow_spec_for(contraction)
    rng = np.random.default_rng(rng_seed)
    raw = rng.standard_normal((n, 4))
    sphere = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    u = rng.uniform(0.0, 1.0, size=n)
    return flow_apply(spec, u, sphere)
