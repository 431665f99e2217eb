"""Hamiltonian deformation of the standard holomorphic 2-form.

The construction: let f be the radial potential of a contraction flow and X
the Hamiltonian vector field of f with respect to the constant 2-form
Phi = Re(dz1 ^ dz2), i.e. i_X Phi = df.  Writing phi_t for the flow of X and
D = Dphi_t for its differential (the variational solution), the deformed
form is the pullback

    psi_minus(t, x) = D(x)^T  Im(dz1 ^ dz2)  D(x),

and dividing the triple (Phi, Im Omega, psi_minus) by f produces deck-group
invariant forms whose invariant part becomes positive for small t > 0.

Since i_X Phi is exact, the flow preserves Phi, preserves f = a^r (hence the
radial time r), and has det D > 0.  A trajectory starts from a known r
(the samples' ``PotentialEval``, or one solve in ``integrate_flow``), the
field is evaluated at that r, and the state carries it for the quotient
forms; the certificate checks, never enforces, that f is preserved, by a
cold solve of r at the images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositive, StepSizeUnderflow
from .exterior import (
    HOLO_IM,
    HOLO_RE,
    J_STD,
    acs_from_form_pair,
    invariant_part,
    metric_from_form,
    min_metric_eigenvalue,
    wedge_to_volume,
)
from .potentials import FlowSpec, PotentialEval, PotentialField

DEFAULT_ODE_TOL = 1e-10
DEFAULT_T_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)
_MAX_STEPS = 100_000

# Dormand-Prince 5(4) pair; row 7 equals the 5th-order weights (FSAL).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


@dataclass(frozen=True)
class DeformationState:
    """Flow data at deformation time t: base points, their radial time,
    images, and the variational Jacobian D = Dphi_t (D(0) = Id, det D > 0)."""

    t: float
    x: np.ndarray  # (..., 4)
    r: np.ndarray  # (...,)
    x_t: np.ndarray  # (..., 4)
    jac: np.ndarray  # (..., 4, 4)


@dataclass(frozen=True)
class QuotientTriple:
    """Deck-invariant forms at the base points: phi = Phi/f,
    psi_plus = Im(Omega)/f, psi_minus = (pullback)/f, tau = -d log f."""

    phi: np.ndarray
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    tau: np.ndarray
    f: np.ndarray


def _field_and_derivative(pf: PotentialField, r: np.ndarray, x: np.ndarray):
    """(Phi grad f, Phi Hess f) at points x of radial time r."""
    _, grad, hess = pf.value_grad_hess(x, r)
    return grad @ HOLO_RE.T, HOLO_RE @ hess


def hamiltonian_field(spec: FlowSpec, z: np.ndarray):
    """Hamiltonian vector field X with i_X Phi = df, and its derivative.

    Phi has constant coefficients with Phi^2 = -Id as a matrix, so
    X = Phi grad(f) and dX/dz = Phi Hess(f); the defining relation is then
    reproduced exactly (to solver precision in f).
    """
    pf = PotentialField(spec)
    z = np.asarray(z, dtype=float)
    return _field_and_derivative(pf, pf.solve(z), z)


def _flow_rhs(pf: PotentialField, r0: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Right-hand side of the coupled trajectory/variational system at the
    starting radial time r0.  The field is a multiple of Phi grad_x G(r0, x),
    so the zero set of G(r0, .) is invariant and on it the field is the true
    one; the variational part uses the true Hess f (with dr/dx), not the
    derivative of the frozen-r field."""
    x = y[..., :4]
    d = y[..., 4:].reshape(y.shape[:-1] + (4, 4))
    dx, a = _field_and_derivative(pf, r0, x)
    dd = a @ d
    return np.concatenate([dx, dd.reshape(y.shape[:-1] + (16,))], axis=-1)


def _integrate(pf: PotentialField, r0: np.ndarray, y0: np.ndarray, t0: float,
               t1: float, ode_tol: float) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) over the whole batch; the step is
    controlled by the worst scaled local error across all components."""
    if t1 == t0:
        return y0
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    y = y0
    k1 = _flow_rhs(pf, r0, y)
    h = direction * min(0.05, abs(t1 - t0))
    h_floor = 1e-14 * max(1.0, abs(t1 - t0))
    for _ in range(_MAX_STEPS):
        if (t1 - t) * direction <= 0.0:
            return y
        h = direction * min(abs(h), abs(t1 - t))
        ks = [k1]
        for stage in range(1, 7):
            incr = sum(a * k for a, k in zip(_DP_A[stage], ks))
            ks.append(_flow_rhs(pf, r0, y + h * incr))
        y_new = y + h * sum(a * k for a, k in zip(_DP_A[6], ks))
        err_vec = h * sum(e * k for e, k in zip(_DP_ERR, ks))
        scale = ode_tol + ode_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.max(np.abs(err_vec) / scale))
        if err <= 1.0:
            t = t1 if abs(t1 - (t + h)) < h_floor else t + h
            y = y_new
            k1 = ks[6]  # first-same-as-last
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor
        if abs(h) < h_floor:
            raise StepSizeUnderflow(
                f"step size underflow at t = {t:.6g} (tol {ode_tol:g})"
            )
    raise StepSizeUnderflow(f"exceeded {_MAX_STEPS} steps integrating to t = {t1}")


def _flow_states(spec: FlowSpec, t_values, x: np.ndarray, r: np.ndarray,
                 ode_tol: float) -> list[DeformationState]:
    """States at a nondecreasing sequence of times along one trajectory from
    the points x of radial time r."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r0 = np.reshape(r, x.shape[:-1])
    ts = [float(t) for t in t_values]
    if any(a > b for a, b in zip(ts, ts[1:])):
        raise ValueError("t_values must be nondecreasing")
    pf = PotentialField(spec)
    eye = np.broadcast_to(np.eye(4).reshape(16), x.shape[:-1] + (16,))
    y = np.concatenate([x, eye], axis=-1)
    states = []
    prev = 0.0
    for t in ts:
        y = _integrate(pf, r0, y, prev, t, ode_tol)
        prev = t
        states.append(DeformationState(
            t, x, r0, y[..., :4], y[..., 4:].reshape(x.shape[:-1] + (4, 4))))
    return states


def integrate_flow(spec: FlowSpec, t: float, x: np.ndarray,
                   ode_tol: float = DEFAULT_ODE_TOL) -> DeformationState:
    """Flow points x to time t, carrying the variational Jacobian along.

    Local error per step is kept at or below ode_tol (absolute and relative);
    t = 0 returns the identity state (with the radial time of x).
    """
    x = np.asarray(x, dtype=float)
    return _flow_states(spec, (t,), x, PotentialField(spec).solve(x), ode_tol)[0]


def integrate_flow_chain(spec: FlowSpec, t_values, x: np.ndarray, r: np.ndarray,
                         ode_tol: float = DEFAULT_ODE_TOL) -> list[DeformationState]:
    """States at an increasing sequence of times, continuing one trajectory
    from the points x of known radial time r (no root solve)."""
    return _flow_states(spec, t_values, x, r, ode_tol)


def pullback_psi(state: DeformationState) -> np.ndarray:
    """Pullback of the constant form Im(dz1^dz2) by phi_t: D^T Psi D."""
    return np.einsum("...ji,jk,...kl->...il", state.jac, HOLO_IM, state.jac)


def quotient_triple(spec: FlowSpec, state: DeformationState) -> QuotientTriple:
    """Deck-invariant quotient forms at the base points of the state."""
    f, grad, _ = PotentialField(spec).value_grad_hess(state.x, state.r)
    inv_f = 1.0 / f[..., None, None]
    return QuotientTriple(
        phi=HOLO_RE * inv_f,
        psi_plus=HOLO_IM * inv_f,
        psi_minus=pullback_psi(state) * inv_f,
        tau=-grad / f[..., None],
        f=f,
    )


def structure_from_triple(triple: QuotientTriple):
    """(j_minus, g, margin, p) of a quotient triple: j_minus solves
    psi_minus(u, v) = -phi(j_minus u, v), g is the metric of the invariant
    part of psi_minus, margin its least eigenvalue, p = -tr(J j_minus)/4."""
    j_minus = acs_from_form_pair(triple.phi, triple.psi_minus)
    g = metric_from_form(invariant_part(triple.psi_minus, J_STD), J_STD)
    p = -0.25 * np.einsum("ik,...ki->...", J_STD, j_minus)
    return j_minus, g, min_metric_eigenvalue(g), p


@dataclass(frozen=True)
class SweepRow:
    t: float
    min_margin: float
    argmin_sample_index: int
    p_min: float
    p_max: float


def _sweep(spec: FlowSpec, t_grid, pot: PotentialEval, ode_tol: float):
    """(state, row) per distinct grid time, in increasing order, along one
    trajectory of the samples of pot."""
    ts = sorted({float(t) for t in t_grid})
    for state in integrate_flow_chain(spec, ts, pot.x, pot.r.value, ode_tol):
        _, _, margin, p = structure_from_triple(quotient_triple(spec, state))
        yield state, SweepRow(
            t=state.t,
            min_margin=float(np.min(margin)),
            argmin_sample_index=int(np.argmin(margin)),
            p_min=float(np.min(p)),
            p_max=float(np.max(p)),
        )


def positivity_sweep(spec: FlowSpec, t_grid, pot: PotentialEval,
                     ode_tol: float = DEFAULT_ODE_TOL) -> list[SweepRow]:
    """Minimum eigenvalue of the metric of the invariant part of the deformed
    form, per deformation time over the samples of pot.

    Near t = 0 the margin is linear with slope given by the potential form;
    the table reports, it does not assert.
    """
    return [row for _, row in _sweep(spec, t_grid, pot, ode_tol)]


def select_deformation_time(spec: FlowSpec, pot: PotentialEval,
                            t_grid=DEFAULT_T_GRID,
                            ode_tol: float = DEFAULT_ODE_TOL):
    """Largest grid time whose margin exceeds 10% of the t-linear prediction.

    Returns (state, rows, slope_floor), where state is the flow of the
    samples of pot at the selected time t* = state.t; raises NotPositive
    when no grid time is certified.
    """
    slope_floor = float(np.min(min_metric_eigenvalue(
        metric_from_form(pot.lck_form, J_STD))))
    swept = list(_sweep(spec, t_grid, pot, ode_tol))
    chosen = None
    for state, row in swept:
        if row.t > 0.0 and row.min_margin >= 0.1 * row.t * slope_floor:
            chosen = state
    if chosen is None:
        raise NotPositive(
            "no deformation time on the grid has a certified positive margin"
        )
    return chosen, [row for _, row in swept], slope_floor


def deformation_wedge_residuals(triple: QuotientTriple) -> dict[str, np.ndarray]:
    """Residuals of the wedge hypotheses the deformed triple must satisfy:
    psi_minus^2 = phi^2 and phi ^ psi_minus = 0."""
    phi2 = wedge_to_volume(triple.phi, triple.phi)
    psi2 = wedge_to_volume(triple.psi_minus, triple.psi_minus)
    mixed = wedge_to_volume(triple.phi, triple.psi_minus)
    return {
        "deformed_psi_volume": np.abs(psi2 - phi2) / (1.0 + np.abs(phi2)),
        "deformed_phi_orthogonality": np.abs(mixed) / (1.0 + np.abs(phi2)),
    }
