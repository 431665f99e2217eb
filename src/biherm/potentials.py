"""Radial potentials for contraction flows on C^2 minus the origin.

Every admissible contraction gamma0 embeds into an explicit one-parameter
group phi_t:

* diagonal flow  phi_t(z) = (alpha^t z1, beta^t z2)        (lambda = 0),
* shear flow     phi_t(z) = (beta^{mt}(z1 + t*lhat*z2^m), beta^t z2)
  with lhat = lambda * beta^{-m}                           (lambda != 0),

both satisfying phi_s o phi_t = phi_{s+t} exactly and phi_1 = gamma0.  The
radial time r(z) is the unique root of

    L(r) = log(G(r, z) + 1) = log|phi_{-r}(z)|^2 = 0,

found for both kinds of flow by one safeguarded Newton (``_rtsafe``) on
L, evaluated in log space from G's r-independent moduli, formed once per
solve, so that nothing overflows.  For a diagonal flow G + 1 is a sum of
two exponentials linear in r, so L is increasing and convex: Newton from
a closed-form upper end of the root decreases monotonically to it and needs
no lower end.  For a shear, |z1 - r lhat z2^m|^2 is a sum of two squares, so
L is never NaN; Newton is kept inside a doubled bracket on L's sign.
The shear's root is unique exactly when the flow is transverse to S^3,
|lhat| < |log|beta|| F_m, a closed-form bound decided once per surface
(``_transversality_factor``).  G depends on the flow only through moduli,
so r is independent of the chosen arguments of alpha^t, beta^t.

The derivatives of f at a known r come from one batch-last kernel,
``PotentialField.grad_hess_dot``: the implicit function theorem makes
Hess f . D a product with the small G_xx plus rank-one updates, so no 5x5
Hessian of G is formed.  ``value_grad_hess`` is that kernel at D = Id, and
the flow's right-hand side is the kernel at its variational Jacobian D.

The potential f = a^r (a = |alpha||beta| for diagonal flows, |beta|^{m+1}
for shears) satisfies f(gamma0 z) = a f(z) and is a Kaehler potential; the
positivity of dd^c f is a theorem for diagonal flows but only a runtime
check for shears, where it fails once |lambda| grows too large; it is
already lost inside the transversality bound, so a shear past that bound
is refused as NotPlurisubharmonic.
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
#: A point's solve stops once its Newton or bisection step is at most
#: _STEP_TOL * (1 + |r|), and after _NEWTON_ITERS steps at the latest.
_NEWTON_ITERS = 64
_STEP_TOL = 1e-15
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
# the radial-time equation log(G(r, z) + 1) = log|phi_{-r}(z)|^2 = 0
# ---------------------------------------------------------------------------

def _transversality_factor(m: int) -> float:
    """F_m, the least of (m cos^2 t + sin^2 t) / (cos t sin^m t) on
    0 < t < pi/2.

    The derivative of |phi_t(z)|^2 at t = 0 on S^3 is 2 (m log|beta| |z1|^2
    + log|beta| |z2|^2 + Re(conj(z1) lhat z2^m)); with |z1| = cos t,
    |z2| = sin t and the phases aligned, the shear flow points into the ball
    at every point of S^3 exactly when |lhat| < |log|beta|| F_m.  Setting
    the derivative of the quotient to zero puts the least at tan^2 t = u with
    u = m - 1 + sqrt((m - 1)^2 + m^2), where it is
    (m + u) (1 + u)^((m - 1)/2) / u^(m/2): F_1 = 2, F_2 = 3.3302,
    F_3 = 4.2831, F_4 = 5.0625.  Evaluated in logarithms, so that no power
    overflows at large m.
    """
    u = m - 1 + math.hypot(m - 1, m)
    return math.exp(math.log(m + u) + 0.5 * (m - 1) * math.log1p(u)
                    - 0.5 * m * math.log(u))


class _RadialEquation:
    """L(r) = log(G(r) + 1) = log|phi_{-r}(x)|^2 at N fixed points x, and
    its r-derivative, in log space from the moduli of x that do not depend
    on r, formed once per solve.  A diagonal flow keeps log|z1|^2 and
    log|z2|^2.  A shear keeps, with s = lhat z2^m and e^K the larger of
    |z1| and |s|, the scaled |s| e^{-K} and c + i d = conj(z1) e^{-K} s / |s|
    (conj(z1) e^{-K} where s = 0), so that

        |z1 - r s|^2 = e^{2K} ((r |s| e^{-K} - c)^2 + d^2)

    is a sum of two squares, which never rounds below 0, and log|z2|^2.
    Every modulus is carried as a logarithm (log|s| = log|lhat| +
    m log|z2|), so no term of G over- or underflows far from S^3.  G sees the flow only through moduli, so r
    does not depend on the chosen arguments of alpha^t, beta^t.  The radial
    times r have shape (N,), or that of the points ``at`` (an index of the
    N points) selects."""

    def __init__(self, spec: FlowSpec, x: np.ndarray):
        z = to_complex(x)
        self.spec = spec
        # |z1|, |z2| by hypot: no square under- or overflows
        self.abs_z = abs_z = np.abs(z)
        with np.errstate(divide="ignore"):  # a zero coordinate: -inf
            log_abs = np.log(abs_z)
        self.log_p0, self.log_q = 2.0 * log_abs[:, 0], 2.0 * log_abs[:, 1]
        if spec.kind == "shear":
            with np.errstate(divide="ignore"):
                log_s = math.log(abs(spec.lam_hat)) + spec.m * log_abs[:, 1]
            scale = np.maximum(log_abs[:, 0], log_s)
            self.log_scale2 = 2.0 * scale
            self.abs_s = np.exp(log_s - scale)
            unit = np.divide(z, abs_z, out=np.ones_like(z), where=abs_z > 0.0)
            proj = (np.conj(unit[:, 0]) * np.exp(log_abs[:, 0] - scale)
                    * spec.lam_hat / abs(spec.lam_hat) * unit[:, 1] ** spec.m)
            self.c, self.d = proj.real, proj.imag

    def __call__(self, r: np.ndarray, at=slice(None)):
        """L and dL/dr at r.  With w_1, w_2 the shares of the two terms
        of G + 1 = |w|^2 e^{-2 m r l_1} + |z2|^2 e^{-2 r l_2} in their sum
        (m = 1, w = z1 for a diagonal flow; l_1 = l_2 = log|beta| for a
        shear), dL/dr = -2 (m l_1 w_1 + l_2 w_2), plus
        w_1 d log|w|^2 / dr for a shear, formed from the ratios |s| / |w|
        and (r |s| - c) / |w| so that nothing overflows where |w| is tiny."""
        spec = self.spec
        if spec.kind == "diagonal":
            la, lb = spec.log_alpha.real, spec.log_beta.real
            u1 = self.log_p0[at] - 2.0 * la * r
            u2 = self.log_q[at] - 2.0 * lb * r
            value = np.logaddexp(u1, u2)
            slope = -2.0 * (la * np.exp(u1 - value) + lb * np.exp(u2 - value))
            return value, slope
        lb, m = spec.log_beta.real, spec.m
        abs_s = self.abs_s[at]
        arm = r * abs_s - self.c[at]
        abs_w = np.hypot(arm, self.d[at])
        with np.errstate(divide="ignore", invalid="ignore"):  # w = 0: -inf
            u1 = self.log_scale2[at] + 2.0 * np.log(abs_w) - 2.0 * m * lb * r
            u2 = self.log_q[at] - 2.0 * lb * r
            value = np.logaddexp(u1, u2)
            w1 = np.exp(u1 - value)
            # d log|w|^2 / dr = 2 |s| (r |s| - c) / |w|^2, 0 where w = 0
            pull = np.where(abs_w > 0.0, (abs_s / abs_w) * (arm / abs_w), 0.0)
        slope = 2.0 * pull * w1 - 2.0 * lb * (m * w1 + np.exp(u2 - value))
        return value, slope


def _indices(mask: np.ndarray) -> list:
    """Sample indices at which mask holds, in a flat batch."""
    return np.flatnonzero(mask).tolist()


def _closed_form_bracket(g: _RadialEquation):
    """Upper end hi of a diagonal flow's radial times, in closed form.

    G + 1 = |z1|^2 e^{-2 r l_1} + |z2|^2 e^{-2 r l_2} with l_i = log|alpha|,
    log|beta| < 0.  By convexity of exp (Jensen), G + 1 >= |x|^2 e^{-2 r lbar}
    with lbar the mean of the l_i weighted by |z_i|^2, so G >= 0 at
    hi = log|x|^2 / (2 lbar).  Where hi is the root (|alpha| = |beta| or a
    zero coordinate), rounding can put it an ulp below; ``_rtsafe`` then
    keeps it, since its Newton step would leave the bracket [hi, hi].  The
    weights are (|z_i| / |x|)^2, so no square of a modulus is formed.
    """
    spec = g.spec
    la, lb = spec.log_alpha.real, spec.log_beta.real
    norm = np.hypot(g.abs_z[:, 0], g.abs_z[:, 1])
    share1, share2 = (g.abs_z / norm[:, None]).T ** 2
    return np.log(norm) / (share1 * la + share2 * lb)


def _doubling_bracket(g: _RadialEquation):
    """Expand [-1, 1] by doubling until L changes sign across the bracket
    (shear flows): L < 0 at lo and > 0 at hi.  Each round evaluates L
    only at the points whose end does not yet have its sign.  G + 1 falls
    to 0 below and grows without bound above every point other than the
    origin, and 200 rounds reach 2^200, far beyond the radial time of any
    finite positive |x|^2 (|log|beta|| >= 1.1e-16 in doubles), so the
    bounded loop always brackets; a point it left unbracketed would fail
    the polish check."""
    ends = []
    for start, wrong in ((-1.0, np.greater_equal), (1.0, np.less_equal)):
        end = np.full(g.log_p0.shape, start)
        need = np.ones(g.log_p0.shape, dtype=bool)
        for _ in range(200):
            need[need] = wrong(g(end[need], need)[0], 0.0)
            if not np.any(need):
                break
            end[need] *= 2.0
        ends.append(end)
    return ends


def _rtsafe(g: _RadialEquation, lo, hi):
    """Newton on the function g evaluates, from hi, where it is >= 0, with
    a bisection step wherever Newton would leave [lo, hi] (rtsafe; Press et
    al., Numerical Recipes, sec. 9.4).  Each point stops once its step,
    Newton or bisection, is at most _STEP_TOL * (1 + |r|), so its r does
    not depend on the batch.  Returns r and g's value there."""
    r = hi
    value, slope = g(r)
    moving = np.ones(r.shape, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        lo = np.where(value < 0.0, r, lo)
        hi = np.where(value < 0.0, hi, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r - value / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        settled = np.abs(step - r) <= _STEP_TOL * (1.0 + np.abs(r))
        r = np.where(moving, step, r)
        moving &= ~settled
        value, slope = g(r)
        if not np.any(moving):
            break
    return r, value


# ---------------------------------------------------------------------------
# derivatives of f on a level set of the radial time (batch-last kernel)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialLevel:
    """The factors of G and f = a^r that depend on the radial time alone,
    at N points of radial time r, as batch-last arrays: r, f and
    lf = f log a, of shape (N,), and e, the exponentials of G:
    e^{-2 r ell_i} per coordinate with ell = (log|alpha|, log|alpha|,
    log|beta|, log|beta|), shape (4, N), for a diagonal flow;
    e^{-2 m r log|beta|} and e^{-2 r log|beta|}, shape (2, N), for a shear.
    A trajectory keeps its radial time, so the flow computes them once per
    integration."""

    r: np.ndarray
    f: np.ndarray
    lf: np.ndarray
    e: np.ndarray


def _diagonal_parts(spec: FlowSpec, level: RadialLevel, x):
    """G_x, G_rx, G_r, G_rr and (c, d) -> c G_xx . d of a diagonal flow,
    where G = sum_i x_i^2 e^{-2 r ell_i} - 1 and G_xx = 2 diag(e)."""
    la, lb = spec.log_alpha.real, spec.log_beta.real
    ell = np.array([la, la, lb, lb])[:, None]
    gx = 2.0 * level.e * x
    grx = -2.0 * ell * gx
    lx = ell * x
    g_r = -np.sum(lx * gx, axis=0)
    g_rr = -np.sum(lx * grx, axis=0)

    def gxx_dot(c, d):
        return (2.0 * c * level.e)[:, None] * d

    return gx, grx, g_r, g_rr, gxx_dot


def _shear_parts(spec: FlowSpec, level: RadialLevel, x):
    """G_x, G_rx, G_r, G_rr and (c, d) -> c G_xx . d of a shear, where
    G = |w|^2 e^{-2 m r log|beta|} + |z2|^2 e^{-2 r log|beta|} - 1 with
    w = z1 - r s and s = lhat z2^m, in real arithmetic.

    With s_z = ds/dz2 and v = -r s_z, w has the x-derivatives
    dw = a + i b = (1, i, v, i v), the r-derivative -s, and
    d(dw)/dr = (0, 0, -s_z, -i s_z), so that
    G_xx = 2 e_m (a a^T + b b^T + Re(wbar ddw)) + 2 e_1 on (x2, y2).
    """
    lb, m, r = spec.log_beta.real, spec.m, level.r
    em, e1 = level.e
    cm, c1 = -2.0 * m * lb, -2.0 * lb
    x1, y1, x2, y2 = x
    s_z = m * spec.lam_hat
    if m >= 2:
        s_z = s_z * (x2 + 1j * y2) ** (m - 1)
    szr, szi = np.real(s_z), np.imag(s_z)
    sr = (szr * x2 - szi * y2) / m
    si = (szr * y2 + szi * x2) / m
    vr, vi = -r * szr, -r * szi
    wr, wi = x1 - r * sr, y1 - r * si
    tr, ti = wr - r * sr, wi - r * si  # w - r s, for G_rx on (x2, y2)
    e2 = 2.0 * em
    p_val = wr * wr + wi * wi
    q_val = x2 * x2 + y2 * y2
    ws = wr * sr + wi * si  # Re(wbar s)
    gx = np.empty((4,) + wr.shape)
    gx[0] = wr
    gx[1] = wi
    gx[2] = wr * vr + wi * vi
    gx[3] = wi * vr - wr * vi
    gx *= e2
    grx = cm * gx
    grx[0] -= e2 * sr
    grx[1] -= e2 * si
    grx[2] -= e2 * (tr * szr + ti * szi)
    grx[3] += e2 * (tr * szi - ti * szr)
    q2 = 2.0 * e1 * x[2:]
    gx[2:] += q2
    grx[2:] += c1 * q2
    g_r = cm * p_val * em - e2 * ws + c1 * q_val * e1
    g_rr = (e2 * (sr * sr + si * si - 2.0 * cm * ws)
            + cm**2 * p_val * em + c1**2 * q_val * e1)

    def gxx_dot(c, d):
        ce = c * e2
        alpha = d[0] + vr * d[2] - vi * d[3]  # a^T d
        beta = d[1] + vi * d[2] + vr * d[3]  # b^T d
        out = np.empty((4,) + alpha.shape)
        out[0] = alpha
        out[1] = beta
        out[2] = vr * alpha + vi * beta
        out[3] = vr * beta - vi * alpha
        if m >= 2:
            # Re(wbar ddw) = (-Re k, Im k; Im k, Re k) on (x2, y2) with
            # k = wbar r s_zz
            k = (wr - 1j * wi) * r * (
                m * (m - 1) * spec.lam_hat * (x2 + 1j * y2) ** (m - 2))
            out[2] += k.imag * d[3] - k.real * d[2]
            out[3] += k.imag * d[2] + k.real * d[3]
        out *= ce
        out[2:] += (2.0 * c * e1) * d[2:]
        return out

    return gx, grx, g_r, g_rr, gxx_dot


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

    ``solve`` performs the guarded cold start (the transversality bound of
    a shear, a bracket, safeguarded Newton); ``level`` takes the factors that
    depend on a known r alone, ``grad_hess_dot`` grad f and Hess f . D on
    that level set, and ``value_grad_hess`` f and its derivatives, all with
    no root solve; ``f_value`` is f alone; ``potential`` evaluates and
    checks a point set once.
    """

    def __init__(self, spec: FlowSpec):
        self.spec = spec

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Radial time r at x (..., 4), shaped (...).

        Both kinds of flow solve L(r) = log(G + 1) = 0 in log space, from
        G's moduli formed once (``_RadialEquation``), by ``_rtsafe`` from an
        upper end of the root.  A diagonal flow's L is increasing and
        convex in r, so Newton from the closed-form upper end decreases
        monotonically to the root (Ortega and Rheinboldt, Iterative Solution
        of Nonlinear Equations in Several Variables, sec. 13.3), with no
        lower end.  A shear doubles a bracket on L's sign and keeps Newton
        inside it.  Its root is unique exactly when the flow is transverse
        to S^3, |lhat| < |log|beta|| F_m (``_transversality_factor``); a
        shear past that bound is refused, once per surface and before any
        bracketing, as NotPlurisubharmonic: dd^c f loses its positivity
        well inside the bound.  The root must meet |L| <= ROOT_TOL, or
        the solve raises AmbiguousRadialTime.

        A point whose |x|^2 is not a positive finite double (the origin, a
        NaN or infinite coordinate) has no radial time and raises
        GroupDataError.  Sample indices are positions in the flattened
        batch."""
        spec = self.spec
        if spec.kind == "shear":
            bound = -spec.log_beta.real * _transversality_factor(spec.m)
            # hypot: inf, not OverflowError, past the largest double
            abs_lhat = math.hypot(spec.lam_hat.real, spec.lam_hat.imag)
            if not abs_lhat < bound:
                raise NotPlurisubharmonic(
                    f"|lambda / beta^m| = {abs_lhat:.6g} is not below "
                    f"|log|beta|| F_m = {bound:.6g}: the flow is not "
                    "transverse to S^3, so the radial time is not unique; "
                    "reduce |lambda| and rerun")
        x = np.asarray(x, dtype=float)
        points = x.reshape(-1, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            norm2 = np.sum(points * points, axis=-1)
        outside = ~((norm2 > 0.0) & np.isfinite(norm2))
        if np.any(outside):
            raise GroupDataError(
                f"points without a radial time at sample indices "
                f"{_indices(outside)}: |x|^2 must be a positive finite number")
        g = _RadialEquation(spec, points)
        if spec.kind == "diagonal":
            lo, hi = np.full(len(points), -np.inf), _closed_form_bracket(g)
        else:
            lo, hi = _doubling_bracket(g)
        r, value = _rtsafe(g, lo, hi)
        unpolished = ~(np.abs(value) <= ROOT_TOL)
        if np.any(unpolished):
            raise AmbiguousRadialTime(
                f"Newton polish failed at sample indices {_indices(unpolished)}, "
                f"max |log(G + 1)| = {np.max(np.abs(value)):.3e}"
            )
        return r.reshape(x.shape[:-1])

    def f_value(self, x: np.ndarray) -> np.ndarray:
        """f = a^r at x: one root solve, no derivatives, no positivity check."""
        return np.exp(self.spec.log_multiplier
                      * self.solve(np.asarray(x, dtype=float)))

    def level(self, r: np.ndarray) -> RadialLevel:
        """The r-only factors at N points of radial time r (shape (N,))."""
        r = np.asarray(r, dtype=float)
        spec = self.spec
        if spec.kind == "diagonal":
            la, lb = spec.log_alpha.real, spec.log_beta.real
            logs = np.array([la, la, lb, lb])
        else:
            lb = spec.log_beta.real
            logs = np.array([spec.m * lb, lb])
        f = np.exp(spec.log_multiplier * r)
        return RadialLevel(r, f, spec.log_multiplier * f,
                           np.exp(-2.0 * r * logs[:, None]))

    def grad_hess_dot(self, level: RadialLevel, x: np.ndarray, d: np.ndarray):
        """grad f (4, N) and Hess f . d (4, k, N) at the points x (4, N) of
        level, for vectors d (4, k, N); batch-last, no root solve.

        The implicit function theorem on G(r(x), x) = 0 gives, with
        s = -1/G_r, rho = grad r = s G_x and L = log a,

            Hess f = L f [s G_xx + s (G_rx rho^T + rho G_rx^T)
                          + (s G_rr + L) rho rho^T],

        so Hess f . d is G_xx . d plus two rank-one updates u (v^T d); G_xx
        is diagonal (diagonal flow) or rank two plus a 2x2 block (shear),
        and no 5x5 Hessian of G is formed.
        """
        spec = self.spec
        parts = _diagonal_parts if spec.kind == "diagonal" else _shear_parts
        gx, grx, g_r, g_rr, gxx_dot = parts(spec, level, x)
        ln_a, lf = spec.log_multiplier, level.lf
        s = -1.0 / g_r
        rho = s * gx
        c = lf * s
        p = np.einsum("in,ikn->kn", rho, d)
        u = s * np.einsum("in,ikn->kn", grx, d) + (s * g_rr + ln_a) * p
        hess_d = np.einsum("itn,tkn->ikn",
                           np.stack([c * grx, lf * rho], axis=1),
                           np.stack([p, u]))
        hess_d += gxx_dot(c, d)
        return lf * rho, hess_d

    def value_grad_hess(self, x: np.ndarray, r: np.ndarray):
        """(f, grad f, hess f) at points x (..., 4) of radial time r (...),
        shaped (...), (..., 4) and (..., 4, 4), without positivity checks
        and without a root solve: ``grad_hess_dot`` at d = Id."""
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        points = x.reshape(-1, 4).T
        level = self.level(np.reshape(r, -1))
        eye = np.broadcast_to(np.eye(4)[:, :, None], (4, 4, points.shape[1]))
        grad, hess = self.grad_hess_dot(level, points, eye)
        return (level.f.reshape(batch), grad.T.reshape(batch + (4,)),
                hess.transpose(2, 0, 1).reshape(batch + (4, 4)))

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
    at the points of pot; the images under every element are solved as one
    batch.

    For shear flows this passes exactly when eps^{m+1} = 1, i.e. under the
    m = k*ell - 1 constraint; the residual is order one otherwise.
    """
    unitary = [h if isinstance(h, UnitaryElement) else UnitaryElement(h)
               for h in elements]
    images = np.stack([apply_group_element(h, pot.x) for h in unitary])
    f_img = PotentialField(spec).f_value(images)
    return np.max(np.abs(f_img - pot.f) / pot.f, axis=0)


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
