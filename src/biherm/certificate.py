"""Assembly of the bihermitian structure and verification of its identities.

From the quotient triple (phi, psi_plus, psi_minus) at a point the structure
is assembled as:

* j_plus is the standard complex structure; j_minus solves
  psi_minus(u, v) = -phi(j_minus u, v) (a linear solve, so the defining
  relation is exact and compatibility with the metric is a *checked*
  property, maximising cross-validation);
* F = (psi_minus)^{1,1} must define a positive metric g = F(., j_plus .);
* p = -trace(j_plus j_minus)/4, and the canonical forms of the pair
  (g, j_plus, j_minus) follow from their defining formulas.

Pointwise identities are then algebraic consequences and must hold at the
linear-solve tier (1e-9); identities involving derivatives are checked by
Richardson finite differences of the whole pipeline on one stencil cloud
per sample with mixed corners, at STENCIL_SCALE * fd_step: its axial rows
give every first partial, its corners and its copy of the base point the
second partials that the partials of the Lee forms need.  Each sample's
cloud is integrated in one batch with its images under the deck group,
which the equivariance families read.  Tiers grow with
the derivative order (1e-6 for first derivatives, 1e-5..1e-4 for products
of them and for d(theta_+ + theta_-), 1e-3 for the Lee scalar identity).
Lee forms use theta = J(delta F) with delta = -*d* throughout.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .deformation import (
    DEFAULT_ODE_TOL,
    DEFAULT_T_GRID,
    DeformationState,
    QuotientTriple,
    deformation_wedge_residuals,
    integrate_flow,
    integrate_flow_chain,
    quotient_triple,
    select_deformation_time,
    structure_from_triple,
)
from .errors import NotPositive
from .exterior import (
    DEFAULT_FD_STEP,
    HOLO_RE,
    J_STD,
    StencilCloud,
    codifferential_one,
    d_two_form_from_partials,
    dense_from_three,
    hodge_star,
    hodge_star_three,
    invariant_part,
    j_act_oneform,
    nijenhuis_from_partials,
    norm_sq_oneform,
    stencil_step,
    wedge_one_two,
    wedge_to_volume,
)
from .hopf_groups import (
    ContractionPower,
    HopfGroupData,
    UnitaryElement,
    apply_group_element,
    classify,
    group_closure,
    jacobian,
)
from .potentials import (
    FlowSpec,
    PotentialEval,
    PotentialField,
    flow_spec_for,
    fundamental_annulus_sample,
    verify_h_invariance,
    verify_rescaling,
)
from .reporting import (
    ResidualStats,
    canonical_json,
    chunked_map,
    config_hash,
    env_threads,
    residual_stats,
)

CONVENTIONS = {
    "frame": "(x1, y1, x2, y2) with z_k = x_k + i*y_k",
    "orientation": "dx1^dy1^dx2^dy2 (complex orientation)",
    "ddc": "d^c = i(dbar - d), so dd^c f = 2i ddbar f",
    "codifferential": "delta = -(star d star) in every degree (n = 4)",
    "residuals": "max-norm of (lhs - rhs) over form components, divided by "
                 "(1 + max magnitude of the compared sides)",
}

DEFAULT_TOLERANCES: dict[str, float] = {
    "potential_rescaling": 1e-10,
    "potential_h_invariance": 1e-10,
    "flow_preserves_f": 1e-8,
    "flow_preserves_phi": 1e-7,
    "deformed_psi_volume": 1e-7,
    "deformed_phi_orthogonality": 1e-7,
    "anticommutator": 1e-9,
    "exchange_f_plus": 1e-9,
    "exchange_f_minus": 1e-9,
    "volume_phi": 1e-9,
    "volume_psi_plus": 1e-9,
    "volume_psi_minus": 1e-9,
    "wedge_orthogonality_plus": 1e-9,
    "wedge_orthogonality_minus": 1e-9,
    "wedge_angle": 1e-9,
    "invariant_part_psi_minus": 1e-9,
    "selfdual_phi": 1e-9,
    "selfdual_psi_plus": 1e-9,
    "selfdual_psi_minus": 1e-9,
    "selfdual_f_plus": 1e-9,
    "selfdual_f_minus": 1e-9,
    "j_minus_square": 1e-9,
    "j_minus_orthogonality": 1e-9,
    "angle_bound": 1.0,
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
    "equivariance_metric": 1e-7,
    "equivariance_j_minus": 1e-7,
}


def _rel(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Max-norm residual over trailing form axes, scale-normalised."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    axes = tuple(range(1, lhs.ndim))
    num = np.max(np.abs(lhs - rhs), axis=axes) if axes else np.abs(lhs - rhs)
    mags = np.maximum(np.max(np.abs(lhs), axis=axes) if axes else np.abs(lhs),
                      np.max(np.abs(rhs), axis=axes) if axes else np.abs(rhs))
    return num / (1.0 + mags)


@dataclass(frozen=True)
class BihermitianSample:
    """Assembled structure at a batch of points, with per-point residual
    inputs: metric, j_minus (j_plus is J_STD), angle function, canonical and
    quotient forms, and the positivity margin of the invariant part."""

    x: np.ndarray
    t: float
    g: np.ndarray
    j_minus: np.ndarray
    p: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    phi_g: np.ndarray
    psi_plus_g: np.ndarray
    psi_minus_g: np.ndarray
    phi_check: np.ndarray
    psi_plus_check: np.ndarray
    psi_minus_check: np.ndarray
    tau: np.ndarray
    margin: np.ndarray

    def subset(self, idx) -> "BihermitianSample":
        return replace(self, **{fld.name: getattr(self, fld.name)[idx]
                                for fld in fields(self) if fld.name != "t"})


def assemble_from_triple(triple: QuotientTriple,
                         state: DeformationState) -> BihermitianSample:
    """Pointwise assembly (no Lee forms; those need the structure on a
    stencil cloud, see ``StructureField.lee_forms``); the margin is
    reported, not checked."""
    j_minus, g, margin, p = structure_from_triple(triple)
    comm = (np.einsum("ij,...jk->...ik", J_STD, j_minus)
            - np.einsum("...ij,jk->...ik", j_minus, J_STD))
    phi_g = 0.5 * np.einsum("...ji,...jk->...ik", comm, g)
    psi_plus_g = -np.einsum("ji,...jl->...il", J_STD, phi_g)
    psi_minus_g = -np.einsum("...ji,...jl->...il", j_minus, phi_g)
    f_plus = np.einsum("ji,...jl->...il", J_STD, g)
    f_minus = np.einsum("...ji,...jl->...il", j_minus, g)
    return BihermitianSample(
        x=state.x, t=state.t, g=g, j_minus=j_minus, p=p,
        f_plus=f_plus, f_minus=f_minus,
        phi_g=phi_g, psi_plus_g=psi_plus_g, psi_minus_g=psi_minus_g,
        phi_check=triple.phi, psi_plus_check=triple.psi_plus,
        psi_minus_check=triple.psi_minus, tau=triple.tau, margin=margin,
    )


#: Step of the one stencil cloud, as a multiple of fd_step.  Its second
#: partials err by O(H^4) truncation plus roundoff over H^2.  Over cases a,
#: b, c and the m = 2 shear at t = 0.15, 0.3 and 0.45 (32 samples each,
#: seed 7) the worst derivative families at 3x, all on the shear at
#: t = 0.45, are lee_sum_tau at 0.036 of its tier, lee_sum_closed at 0.016
#: and lee_scalar at 0.0052.  At 10x the shear fails lee_sum_tau at 4.5x its
#: tier and lee_sum_closed at 2.0x; at 2x its worst family falls to 0.0072,
#: but roundoff doubles case a's second-order families (lee_sum_closed at
#: 5.9e-5 of its tier against 2.5e-5), and at 1x it multiplies them by 9.
STENCIL_SCALE = 3.0


@dataclass(frozen=True)
class LeeForms:
    """theta_pm = J_pm(delta F_pm) = J_pm^T u_pm with u_pm = *d*F_pm at the
    base points, with *F_pm (``star``), the structure (``sc``) and the
    partials of g and j_minus (``dg``, ``dj``) on the cloud they came from."""

    theta_plus: np.ndarray
    theta_minus: np.ndarray
    u: list
    star: list
    cloud: StencilCloud
    sc: object
    dg: np.ndarray
    dj: np.ndarray


def lee_theta_from_cloud(center, cloud: StencilCloud, sc) -> LeeForms:
    """Lee forms from ``center`` (g, j_minus at the base points) and ``sc``
    (g, j_minus, f_plus, f_minus at the cloud points); synthetic fields in
    the tests drive this directly."""
    star = [hodge_star(sc.g, f) for f in (sc.f_plus, sc.f_minus)]
    u = [hodge_star_three(center.g, dense_from_three(cloud.d_two_form(s)))
         for s in star]
    theta_plus, theta_minus = (j_act_oneform(j, -v)
                               for j, v in zip((J_STD, center.j_minus), u))
    return LeeForms(theta_plus, theta_minus, u, star, cloud, sc,
                    cloud.partials(sc.g), cloud.partials(sc.j_minus))


class StructureField:
    """The full pipeline as a field: sample points -> assembled structure.

    Every evaluation integrates the deformation flow from scratch at the
    requested points, so finite differences across this field see the whole
    construction (root solve, flow, pullback, linear algebra).  A
    certificate evaluates it once, on each kept sample's stencil cloud and
    deck images together (``check_field_families``).
    """

    def __init__(self, spec: FlowSpec, t: float, ode_tol: float = DEFAULT_ODE_TOL,
                 fd_step: float = DEFAULT_FD_STEP, threads: int | None = None):
        self.spec = spec
        self.t = float(t)
        self.ode_tol = float(ode_tol)
        self.fd_step = float(fd_step)
        self.threads = env_threads(threads)

    # -- evaluation ----------------------------------------------------------

    def assemble(self, x: np.ndarray) -> BihermitianSample:
        """Assembled structure at x (batched, chunked, thread-mapped).  Each
        chunk is one integration, with one step sequence; an entry of the
        leading axis (one sample's cloud and images) never straddles two
        chunks."""
        def run(chunk):
            state = integrate_flow(self.spec, self.t, chunk, self.ode_tol)
            s = assemble_from_triple(quotient_triple(self.spec, state), state)
            return {f.name: getattr(s, f.name) for f in fields(s) if f.name != "t"}

        x = np.atleast_2d(np.asarray(x, dtype=float))
        return BihermitianSample(t=self.t, **chunked_map(run, x, self.threads))

    # -- Lee forms -------------------------------------------------------------

    def stencil(self, x: np.ndarray) -> StencilCloud:
        """The mixed stencil cloud (step STENCIL_SCALE * fd_step) around each
        point of x, whose rows feed every derivative family."""
        return StencilCloud(x, stencil_step(x, STENCIL_SCALE * self.fd_step),
                            mixed=True)

    def lee_forms(self, center: BihermitianSample,
                  sc: BihermitianSample) -> LeeForms:
        """Lee forms at the points of an assembled sample, from ``sc``, the
        structure assembled on ``self.stencil(center.x)``.  A cloud must be
        integrated in one piece, so that its arms and its centre share one
        step sequence."""
        return lee_theta_from_cloud(center, self.stencil(center.x), sc)


def deck_images(elements, x: np.ndarray) -> np.ndarray:
    """Images of the points x (n, 4) under each deck element, (n, k, 4)."""
    return np.stack([apply_group_element(elem, x) for elem in elements],
                    axis=-2)


# ---------------------------------------------------------------------------
# identity batteries
# ---------------------------------------------------------------------------

def check_pointwise_algebra(s: BihermitianSample) -> dict[str, np.ndarray]:
    """Residuals of every pointwise identity of the bihermitian package.

    All are algebraic consequences of the assembly, so failures at the
    1e-9 tier indicate implementation (or input) defects -- which is what
    the injected-error tests rely on.
    """
    out: dict[str, np.ndarray] = {}
    eye = np.broadcast_to(np.eye(4), s.j_minus.shape)
    p2 = s.p[..., None, None]

    anti = (np.einsum("ij,...jk->...ik", J_STD, s.j_minus)
            + np.einsum("...ij,jk->...ik", s.j_minus, J_STD))
    out["anticommutator"] = _rel(anti, -2.0 * p2 * eye)

    out["exchange_f_plus"] = _rel(s.f_plus, p2 * s.f_minus + s.psi_minus_g)
    out["exchange_f_minus"] = _rel(s.f_minus, p2 * s.f_plus - s.psi_plus_g)

    det_g = np.linalg.det(s.g)
    nondegenerate = det_g > 1e-300
    dv = np.sqrt(np.where(nondegenerate, det_g, 1.0))
    vol_target = 2.0 * (1.0 - s.p**2) * dv
    out["volume_phi"] = _rel(wedge_to_volume(s.phi_g, s.phi_g), vol_target)
    out["volume_psi_plus"] = _rel(wedge_to_volume(s.psi_plus_g, s.psi_plus_g),
                                  vol_target)
    out["volume_psi_minus"] = _rel(wedge_to_volume(s.psi_minus_g, s.psi_minus_g),
                                   vol_target)
    out["wedge_orthogonality_plus"] = _rel(
        wedge_to_volume(s.phi_g, s.psi_plus_g), np.zeros_like(s.p))
    out["wedge_orthogonality_minus"] = _rel(
        wedge_to_volume(s.phi_g, s.psi_minus_g), np.zeros_like(s.p))
    out["wedge_angle"] = _rel(wedge_to_volume(s.psi_plus_g, s.psi_minus_g),
                              s.p * wedge_to_volume(s.phi_g, s.phi_g))
    out["invariant_part_psi_minus"] = _rel(
        invariant_part(s.psi_minus_g, J_STD),
        (1.0 - s.p**2)[..., None, None] * s.f_plus)

    # selfduality needs an invertible metric; degenerate points (possible
    # only for synthetic boundary input, never for accepted samples) report
    # an infinite residual rather than aborting the battery
    for name, form in (("selfdual_phi", s.phi_g),
                       ("selfdual_psi_plus", s.psi_plus_g),
                       ("selfdual_psi_minus", s.psi_minus_g),
                       ("selfdual_f_plus", s.f_plus),
                       ("selfdual_f_minus", s.f_minus)):
        residual = np.full(s.p.shape, np.inf)
        if np.any(nondegenerate):
            star = hodge_star(s.g[nondegenerate], form[nondegenerate])
            residual[nondegenerate] = _rel(star, form[nondegenerate])
        out[name] = residual

    out["j_minus_square"] = _rel(
        np.einsum("...ij,...jk->...ik", s.j_minus, s.j_minus), -eye)
    out["j_minus_orthogonality"] = _rel(
        np.einsum("...ji,...jk,...kl->...il", s.j_minus, s.g, s.j_minus), s.g)
    out["angle_bound"] = np.abs(s.p)
    return out


def lee_differentials(center, lee: LeeForms):
    """(delta theta_+, delta theta_-, d(theta_+ + theta_-)) at the base points.

    ``lee`` is ``field.lee_forms`` at ``center``.  theta = J^T u with
    u = *d*F is algebra in g, J and the first partials of *F; its partials
    are the exact linearisation of that algebra, fed by the first partials
    of g, j_minus and *F and the second partials of *F, all from the mixed
    cloud of ``lee``, whose base row is also the centre of the second
    differences.
    ``center`` needs g and j_minus.
    """
    ginv = np.linalg.inv(center.g)
    dlog_vol = 0.5 * np.einsum("...ab,...mba->...m", ginv, lee.dg)
    dthetas = []
    for j, u, star in zip((J_STD, center.j_minus), lee.u, lee.star):
        # d_m u, from *d*F = g w / sqrt(det g) with w linear in d*F
        d2 = lee.cloud.second_partials(star)
        du = (np.einsum("...mab,...bc,...c->...ma", lee.dg, ginv, u)
              + hodge_star_three(center.g[..., None, :, :],
                                 dense_from_three(d_two_form_from_partials(d2)))
              - dlog_vol[..., None] * u[..., None, :])
        dthetas.append(np.einsum("...ki,...mk->...mi", j, du))
    # theta_- = j_minus^T u_- also varies through j_minus (J_STD is constant)
    dthetas[1] = dthetas[1] + np.einsum("...mki,...k->...mi", lee.dj, lee.u[1])
    d_sum = dthetas[0] + dthetas[1]
    return (codifferential_one(center.g, lee.dg, lee.theta_plus, dthetas[0]),
            codifferential_one(center.g, lee.dg, lee.theta_minus, dthetas[1]),
            d_sum - np.swapaxes(d_sum, -1, -2))


def check_differential_identities(center: BihermitianSample,
                                  lee: LeeForms) -> dict[str, np.ndarray]:
    """Residuals of every identity that involves derivatives of the fields.

    ``lee`` is ``field.lee_forms`` on the structure assembled on the mixed
    cloud around the base points.  Its axial rows feed the first-derivative
    families (Leibniz rules of the quotient forms, the canonical-factor
    equation, the (1,2) component, the Nijenhuis tensor,
    theta_+ + theta_- = 2 tau); its corners add the second partials of
    *F_pm that the partials of theta_pm need (``lee_differentials``) for
    the Lee-form scalar identity, the selfdual part of d(theta_+ + theta_-)
    and its closedness.  ``center`` is the structure already assembled at
    the base points.
    """
    cloud, sc = lee.cloud, lee.sc
    theta_plus, theta_minus = lee.theta_plus, lee.theta_minus
    out: dict[str, np.ndarray] = {}

    # quotient Leibniz rules d(form) = tau ^ form
    d_check = {}
    for name, attr in (("quotient_leibniz_phi", "phi_check"),
                       ("quotient_leibniz_psi_plus", "psi_plus_check"),
                       ("quotient_leibniz_psi_minus", "psi_minus_check")):
        d_check[attr] = cloud.d_two_form(getattr(sc, attr))
        target = wedge_one_two(center.tau, getattr(center, attr))
        out[name] = _rel(d_check[attr], target)

    # canonical-factor equation for Omega^g = phi_g + i psi_plus_g
    d_omega = (cloud.d_two_form(sc.phi_g)
               + 1j * cloud.d_two_form(sc.psi_plus_g))
    dp = cloud.partials(sc.p)
    dlog = -2.0 * center.p[..., None] * dp / (1.0 - center.p**2)[..., None]
    factor = 0.5 * (theta_plus + theta_minus) + dlog
    omega = center.phi_g + 1j * center.psi_plus_g
    out["canonical_factor"] = _rel(d_omega, wedge_one_two(factor.astype(complex),
                                                          omega))

    # (1,2)-part of d(phi_check + i psi_minus_check) with respect to j_minus
    d_om = dense_from_three(d_check["phi_check"]
                            + 1j * d_check["psi_minus_check"])
    pi_10 = 0.5 * (np.broadcast_to(np.eye(4), center.j_minus.shape)
                   - 1j * center.j_minus)
    pi_01 = np.conj(pi_10)
    c12 = (np.einsum("...abc,...ai,...bj,...ck->...ijk", d_om, pi_10, pi_01, pi_01)
           + np.einsum("...abc,...ai,...bj,...ck->...ijk", d_om, pi_01, pi_10, pi_01)
           + np.einsum("...abc,...ai,...bj,...ck->...ijk", d_om, pi_01, pi_01, pi_10))
    num = np.max(np.abs(c12), axis=(-3, -2, -1))
    den = np.max(np.abs(d_om), axis=(-3, -2, -1))
    out["type_one_two_part"] = num / (1.0 + den)

    # integrability of j_minus
    n_tensor = nijenhuis_from_partials(center.j_minus, lee.dj)
    out["nijenhuis_j_minus"] = np.max(np.abs(n_tensor), axis=(-3, -2, -1))

    # theta_+ + theta_- = 2 tau, with no second derivative
    gap = theta_plus + theta_minus - 2.0 * center.tau
    out["lee_sum_tau"] = (np.max(np.abs(gap), axis=-1)
                          / (1.0 + np.max(np.abs(2.0 * center.tau), axis=-1)))

    delta_plus, delta_minus, d_theta_sum = lee_differentials(center, lee)
    lhs = 2.0 * delta_plus + norm_sq_oneform(center.g, theta_plus)
    rhs = 2.0 * delta_minus + norm_sq_oneform(center.g, theta_minus)
    out["lee_scalar"] = np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs),
                                                              np.abs(rhs)))

    sd = 0.5 * (d_theta_sum + hodge_star(center.g, d_theta_sum))
    den = np.max(np.abs(theta_plus) + np.abs(theta_minus), axis=-1)
    out["lee_sum_selfdual"] = np.max(np.abs(sd), axis=(-2, -1)) / (1.0 + den)
    # theta_+ + theta_- is moreover closed outright (it equals -2 d log f
    # for this construction's normalisation)
    out["lee_sum_closed"] = np.max(np.abs(d_theta_sum), axis=(-2, -1)) / (1.0 + den)
    return out


def check_gamma_equivariance(s0: BihermitianSample, images: BihermitianSample,
                             elements) -> dict[str, np.ndarray]:
    """Residuals of g and j_minus equivariance under deck transformations.

    ``images`` is the structure assembled at ``deck_images(elements,
    s0.x)``, shape (n, k, ...).  For each element the structure at
    gamma(x) must agree with the pushforward of the structure ``s0``
    already assembled at x.
    """
    x = s0.x
    res_g = np.zeros(x.shape[0])
    res_j = np.zeros(x.shape[0])
    for e, elem in enumerate(elements):
        dg = jacobian(elem, x)
        pulled_g = np.einsum("...ji,...jk,...kl->...il", dg, images.g[:, e], dg)
        res_g = np.maximum(res_g, _rel(pulled_g, s0.g))
        pulled_j = np.einsum("...ij,...jk,...kl->...il",
                             np.linalg.inv(dg), images.j_minus[:, e], dg)
        res_j = np.maximum(res_j, _rel(pulled_j, s0.j_minus))
    return {"equivariance_metric": res_g, "equivariance_j_minus": res_j}


def check_field_families(field: StructureField, center: BihermitianSample,
                         elements, with_differential: bool
                         ) -> dict[str, np.ndarray]:
    """Residuals of the families that read the structure away from the
    assembled samples ``center``: deck equivariance under ``elements`` and,
    ``with_differential``, every derivative family.

    The field is evaluated once: each sample's stencil cloud rows (with
    ``with_differential``), then its k deck images, as one entry of the
    leading axis, shape (n, 41 + k, 4) or (n, k, 4).  A chunk of the
    parallel map holds whole entries, so a sample's cloud and images share
    one step sequence and chunking does not depend on the thread count.
    """
    k = len(elements)
    rows = deck_images(elements, center.x)
    if with_differential:
        rows = np.concatenate([field.stencil(center.x).points, rows], axis=-2)
    flowed = field.assemble(rows)
    out = check_gamma_equivariance(center, flowed.subset(np.s_[:, -k:]),
                                   elements)
    if with_differential:
        lee = field.lee_forms(center, flowed.subset(np.s_[:, :-k]))
        out.update(check_differential_identities(center, lee))
    return out


# ---------------------------------------------------------------------------
# full certificate
# ---------------------------------------------------------------------------

@dataclass
class CertificateConfig:
    data: HopfGroupData
    t: float | None = None
    n: int = 200
    seed: int = 7
    ode_tol: float = DEFAULT_ODE_TOL
    fd_step: float = DEFAULT_FD_STEP
    t_grid: tuple = DEFAULT_T_GRID
    tolerances: dict = field(default_factory=dict)
    threads: int | None = None
    with_differential: bool = True

    def tolerance_table(self) -> dict[str, float]:
        table = dict(DEFAULT_TOLERANCES)
        table.update(self.tolerances)
        return table

    def echo(self) -> dict:
        p = self.data.contraction
        return {
            "alpha": [p.alpha.real, p.alpha.imag],
            "beta": [p.beta.real, p.beta.imag],
            "lambda": [p.lam.real, p.lam.imag],
            "m": p.m,
            "arg_alpha": p.arg_alpha,
            "arg_beta": p.arg_beta,
            "h_generators": [
                [[v.real, v.imag] for v in g.ravel()] for g in self.data.h_generators
            ],
            "t": self.t,
            "n": self.n,
            "seed": self.seed,
            "ode_tol": self.ode_tol,
            "fd_step": self.fd_step,
            "t_grid": list(self.t_grid),
            "with_differential": self.with_differential,
        }


@dataclass
class CertificateReport:
    params: dict
    case: dict
    t: float | None
    n: int
    seed: int
    tolerances: dict
    identities: dict[str, ResidualStats]
    excluded_samples: int
    passed: bool
    refusal: str | None = None
    sweep: list | None = None
    potential_margin: float | None = None

    def to_json_dict(self) -> dict:
        identities = {
            name: {**stats.to_json(),
                   "pass": stats.within(self.tolerances[name])}
            for name, stats in sorted(self.identities.items())
        }
        out = {
            "schema_version": "1",
            "conventions": CONVENTIONS,
            "params": self.params,
            "config_hash": config_hash(self.params),
            "case": self.case,
            "t": self.t,
            "n": self.n,
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
            "identities": identities,
            "excluded_samples": self.excluded_samples,
            "pass": self.passed,
        }
        if self.refusal is not None:
            out["refusal"] = self.refusal
        if self.sweep is not None:
            out["sweep"] = self.sweep
        if self.potential_margin is not None:
            out["potential_margin"] = self.potential_margin
        return out

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def deform_samples(spec: FlowSpec, pot: PotentialEval,
                   cfg: CertificateConfig):
    """(state, rows, slope_floor): the samples of pot flowed, once, to cfg.t
    or to the time the positivity sweep selects (rows and slope are None
    when cfg.t is given)."""
    if cfg.t is None:
        return select_deformation_time(spec, pot, cfg.t_grid, cfg.ode_tol)
    state, = integrate_flow_chain(spec, (float(cfg.t),), pot.x, pot.r,
                                  cfg.ode_tol)
    return state, None, None


def run_certificate(cfg: CertificateConfig) -> CertificateReport:
    """End-to-end certificate over seeded fundamental-annulus samples.

    Classification refusals produce a refusal report; potential or positivity
    failures raise (the CLI maps them to exit codes).  Sample-level identity
    failures never abort the batch -- they only appear as failing families.
    """
    label = classify(cfg.data)
    tolerances = cfg.tolerance_table()
    if not label.accepted:
        reason = label.reason or label.kind
        if label.kind == "not_real_type":
            reason = (
                "canonical bundle is not of real type (requires alpha*beta "
                f"in R+* and H in SU(2)): {reason}"
            )
        return CertificateReport(
            params=cfg.echo(), case=label.to_json(), t=None, n=cfg.n,
            seed=cfg.seed, tolerances=tolerances, identities={},
            excluded_samples=0, passed=False, refusal=reason,
        )

    spec = flow_spec_for(cfg.data.contraction)
    samples = fundamental_annulus_sample(cfg.seed, spec, cfg.n)
    closure = group_closure(cfg.data.h_generators)
    pf = PotentialField(spec)
    # raises NotPlurisubharmonic for inadmissible shears; the empirical
    # margin quantifies how far |lambda| is from the admissible boundary
    pot = pf.potential(samples)

    # families evaluated at all n samples, restricted to the kept ones below
    every: dict[str, np.ndarray] = {}
    every["potential_rescaling"] = verify_rescaling(
        spec, ContractionPower(cfg.data.contraction, 1), pot)
    every["potential_h_invariance"] = verify_h_invariance(spec, closure, pot)

    state, rows, _ = deform_samples(spec, pot, cfg)
    sweep_rows = None if rows is None else [asdict(r) for r in rows]
    field_ = StructureField(spec, state.t, cfg.ode_tol, cfg.fd_step, cfg.threads)
    triple = quotient_triple(spec, state)
    sample = assemble_from_triple(triple, state)

    # a sample whose 1 - p^2 rounds to 0 (t so small that J_- is J_+ to
    # double precision) has no canonical-factor equation: excluded like
    # one whose margin is not positive
    idx = np.nonzero((sample.margin > 0.0) & (1.0 - sample.p**2 > 0.0))[0]
    excluded = cfg.n - idx.size
    if idx.size == 0:
        raise NotPositive(
            "invariant part of the deformed form is not positive, or "
            f"1 - p^2 rounds to 0, at each of the {cfg.n} samples at "
            f"t = {state.t!r}; let the positivity sweep choose t"
        )
    kept = sample.subset(idx)

    f_end = pf.f_value(state.x_t)
    every["flow_preserves_f"] = np.abs(f_end - triple.f) / triple.f
    pulled_phi = np.einsum("...ji,jk,...kl->...il", state.jac, HOLO_RE, state.jac)
    every["flow_preserves_phi"] = _rel(pulled_phi, np.broadcast_to(
        HOLO_RE, pulled_phi.shape))
    every.update(deformation_wedge_residuals(triple))
    results = {name: value[idx] for name, value in every.items()}

    results.update(check_pointwise_algebra(kept))
    elements = [ContractionPower(cfg.data.contraction, 1)]
    elements += [UnitaryElement(g) for g in cfg.data.h_generators]
    results.update(check_field_families(field_, kept, elements,
                                        cfg.with_differential))

    identities = {name: residual_stats(value) for name, value in results.items()}
    # a pass needs every family at tier on exactly the kept samples
    passed = all(stats.within(tolerances[name]) and stats.count == idx.size
                 for name, stats in identities.items())
    return CertificateReport(
        params=cfg.echo(), case=label.to_json(), t=state.t, n=cfg.n,
        seed=cfg.seed, tolerances=tolerances, identities=identities,
        excluded_samples=excluded, passed=passed, sweep=sweep_rows,
        potential_margin=float(np.min(pot.margin)),
    )
