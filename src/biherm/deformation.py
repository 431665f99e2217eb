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

The coupled trajectory/variational system is integrated by DOP853, the
8(5,3) pair of Dormand and Prince, with one adaptive step per batch.  A
sequence of times is one trajectory: the positivity sweep costs one
integration to its last grid time.  The integrator holds the state
batch-last, as a (20, N) array over the flattened batch (x, then D row by
row), so that every operation of the right-hand side runs over contiguous
rows of length N; the factors of G and f that depend on the radial time
alone are computed once per trajectory, since the trajectory keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GroupDataError, NotPositive, StepSizeUnderflow
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
from .potentials import FlowSpec, PotentialEval, PotentialField, RadialLevel

DEFAULT_ODE_TOL = 1e-10
DEFAULT_T_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)
_MAX_STEPS = 100_000
#: Largest deformation time |t| the flow integrates.  The deformation is a
#: small-t construction (the default grid ends at 0.5), and the flow's work
#: grows with |t|: construct --samples 1 --t 10 takes under a second.
MAX_ABS_T = 10.0

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


def hamiltonian_field(spec: FlowSpec, z: np.ndarray) -> np.ndarray:
    """Hamiltonian vector field X with i_X Phi = df at z (..., 4).

    Phi has constant coefficients with Phi^2 = -Id as a matrix, so
    X = Phi grad(f); the defining relation is then reproduced exactly (to
    solver precision in f).
    """
    pf = PotentialField(spec)
    z = np.asarray(z, dtype=float)
    _, grad = _value_grad(pf, z, pf.solve(z))
    return grad @ HOLO_RE.T


def _value_grad(pf: PotentialField, x: np.ndarray, r: np.ndarray):
    """f (...) and grad f (..., 4) at the points x (..., 4) of radial time r
    (...): ``grad_hess_dot`` with no directions, so no Hessian is formed."""
    points = x.reshape(-1, 4)
    level = pf.level(np.reshape(r, -1))
    grad, _ = pf.grad_hess_dot(level, points.T, np.empty((4, 0, len(points))))
    return level.f.reshape(x.shape[:-1]), grad.T.reshape(x.shape)


#: Phi = HOLO_RE as a signed row permutation: row i of Phi M is sign * row j
#: of M, for each (i, j, sign).
_PHI_ROWS = tuple((i, int(np.flatnonzero(row)[0]), float(row[row != 0][0]))
                  for i, row in enumerate(HOLO_RE))


def _flow_rhs(pf: PotentialField, level: RadialLevel,
              y: np.ndarray) -> np.ndarray:
    """Right-hand side of the coupled trajectory/variational system on the
    level set of the starting radial time, for the batch-last state y
    (20, N): rows 0-3 the point x, rows 4-19 the Jacobian D row by row.

    The field is a multiple of Phi grad_x G(r0, x), so the zero set of
    G(r0, .) is invariant and on it the field is the true one; the
    variational part uses the true Hess f (with dr/dx), not the derivative
    of the frozen-r field."""
    grad, hess_d = pf.grad_hess_dot(level, y[:4], y[4:].reshape(4, 4, -1))
    out = np.empty_like(y)
    dd = out[4:].reshape(4, 4, -1)
    for i, j, sign in _PHI_ROWS:
        np.multiply(grad[j], sign, out=out[i])
        np.multiply(hess_d[j], sign, out=dd[i])
    return out


# DOP853, the 8(5,3) pair of Dormand and Prince (Hairer, Norsett and Wanner,
# Solving ODEs I, sec. II.5 and II.10), with the coefficients of Hairer and
# Wanner's Fortran code dop853.f.  Stage i is evaluated at
# y + h * sum_j _DOP_A[i][j] k_j (the flow is autonomous, so the stage
# times t + c_i h are not needed), the step advances with the 8th-order
# weights _DOP_B, and _DOP_E5, _DOP_E3 give the 5th- and 3rd-order error
# estimators.
_DOP_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
)
_DOP_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
_DOP_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
# b minus the weights of the embedded 3rd-order solution
_DOP_E3 = tuple(b - b3 for b, b3 in zip(_DOP_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1)))


def _integrate(pf: PotentialField, r0: np.ndarray, y: np.ndarray,
               t_values, ode_tol: float):
    """Yield y (..., 20) at each of the nondecreasing times t_values,
    continuing one trajectory from y at t = 0 with adaptive DOP853 over the
    whole batch, on the level set of the radial time r0 (...).

    The state is held batch-last, as a C-contiguous (20, N) array over the
    flattened batch, and the stages as (12, 20, N); it is transposed on
    entry and at each yielded time.  The factors that depend on r0 alone
    (``PotentialField.level``) are computed once for the trajectory.

    One step size serves the batch; its error is Hairer's combined 5th/3rd
    order estimate, err = |h| E5^2 / sqrt(E5^2 + 0.01 E3^2), where E5 and
    E3 are the max-norms over all components of the estimators scaled by
    ode_tol * (1 + max(|y|, |y_new|)), and computed as
    |h| E5 / hypot(1, 0.1 E3 / E5), which neither overflows nor divides 0
    by 0 however large or small ode_tol makes E5 and E3.  A step clipped to
    end on a grid time does not shrink the controller's h, and the last
    stage of an accepted step is the first of the next (FSAL), across grid
    times too.
    """
    batch = y.shape[:-1]
    level = pf.level(np.reshape(r0, -1))
    y = np.ascontiguousarray(y.reshape(-1, 20).T)
    t = 0.0
    h = 0.05
    k = np.empty((len(_DOP_B),) + y.shape)  # the stages of one step
    stages = k.reshape(len(_DOP_B), -1)

    def combine(weights):  # sum_j weights[j] k_j
        return np.dot(weights, stages[:len(weights)]).reshape(y.shape)

    k[0] = _flow_rhs(pf, level, y)
    steps = 0
    for t1 in t_values:
        direction = 1.0 if t1 >= t else -1.0
        h_floor = 1e-14 * max(1.0, abs(t1))
        while (t1 - t) * direction > 0.0:
            if steps == _MAX_STEPS:
                raise StepSizeUnderflow(
                    f"exceeded {_MAX_STEPS} steps integrating to t = {t1}")
            steps += 1
            step = direction * min(h, abs(t1 - t))
            for i in range(1, len(_DOP_B)):
                k[i] = _flow_rhs(pf, level, y + step * combine(_DOP_A[i]))
            y_new = y + step * combine(_DOP_B)
            scale = ode_tol + ode_tol * np.maximum(np.abs(y), np.abs(y_new))
            e5, e3 = (float(np.max(np.abs(combine(e)) / scale))
                      for e in (_DOP_E5, _DOP_E3))
            err = (abs(step) * e5 / math.hypot(1.0, 0.1 * e3 / e5)
                   if e5 else 0.0)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
            proposal = abs(step) * factor
            if err <= 1.0:
                t = t1 if abs(t1 - (t + step)) < h_floor else t + step
                y = y_new
                k[0] = _flow_rhs(pf, level, y)  # first same as last
                if abs(step) < h:  # clipped to t1: keep the controller's h
                    proposal = max(h, proposal)
            h = proposal
            if h < h_floor:
                raise StepSizeUnderflow(
                    f"step size underflow at t = {t:.6g} (tol {ode_tol:g})")
        yield y.T.reshape(batch + (20,))


def _flow_states(spec: FlowSpec, t_values, x: np.ndarray, r: np.ndarray,
                 ode_tol: float) -> list[DeformationState]:
    """States at a nondecreasing sequence of times along one trajectory from
    the points x of radial time r."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r0 = np.reshape(r, x.shape[:-1])
    ts = [float(t) for t in t_values]
    beyond = [t for t in ts if not abs(t) <= MAX_ABS_T]
    if beyond:
        raise GroupDataError(f"deformation time t = {beyond[0]!r} must be "
                             f"finite with |t| <= {MAX_ABS_T:g}")
    if any(a > b for a, b in zip(ts, ts[1:])):
        raise ValueError("t_values must be nondecreasing")
    pf = PotentialField(spec)
    eye = np.broadcast_to(np.eye(4).reshape(16), x.shape[:-1] + (16,))
    y = np.concatenate([x, eye], axis=-1)
    return [DeformationState(t, x, r0, y_t[..., :4],
                             y_t[..., 4:].reshape(x.shape[:-1] + (4, 4)))
            for t, y_t in zip(ts, _integrate(pf, r0, y, ts, ode_tol))]


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
    f, grad = _value_grad(PotentialField(spec), state.x, state.r)
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
    for state in integrate_flow_chain(spec, ts, pot.x, pot.r, ode_tol):
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
