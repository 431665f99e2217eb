"""Sign obstruction for Inoue surfaces (class VII, b2 = 0).

These surfaces are quotients of H x C (H the upper half-plane) by affine
groups.  The canonical bundle carries an invariant hermitian weight,
Im(w) for the S_M family and Im(w)^2 for the S+/- families, whose curvature

    dd^c(-log weight)

is everywhere nonnegative and positive in the w-directions.  A nonnegative,
somewhere-positive curvature form makes the canonical degree positive for
any standard metric, which is incompatible with a bihermitian structure;
this module certifies the two numerical facts behind that argument (weight
invariance under the group, and the sign of the curvature) pointwise.

Frame convention matches the rest of the package with (w, z) in place of
(z1, z2): coordinates (Re w, Im w, Re z, Im z).  With dd^c = 2i ddbar, the
curvature of the weight Im(w)^k has the single real coefficient k / Im(w)^2
on d(Re w) ^ d(Im w), exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, GroupDataError
from .exterior import J_STD, ddc_from_hessian, metric_from_form
from .hopf_groups import _complex_from, _real_from

REALITY_TOL = 1e-10


@dataclass(frozen=True)
class InoueGenerator:
    """Affine map (w, z) -> (p*w + q, r*z + s*w + u) with p real positive."""

    p: float
    q: float
    r: complex
    s: complex = 0j
    u: complex = 0j

    def apply(self, w: np.ndarray, z: np.ndarray):
        return self.p * w + self.q, self.r * z + self.s * w + self.u

    @property
    def holomorphic_det(self) -> complex:
        return self.p * self.r


@dataclass(frozen=True)
class InoueGroupData:
    family: str  # "SM" | "S+" | "S-"
    generators: tuple[InoueGenerator, ...]

    def __post_init__(self):
        if self.family not in ("SM", "S+", "S-"):
            raise GroupDataError(f"unknown Inoue family {self.family!r}")
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def weight_exponent(self) -> int:
        """1 for S_M (weight Im w), 2 for S+/- (weight Im(w)^2)."""
        return 1 if self.family == "SM" else 2

    def validate(self) -> None:
        """Family constraints: alpha |beta|^2 = 1 for S_M; epsilon = +-1 and
        real shear coefficients for S+/-."""
        gamma0 = self.generators[0]
        if self.family == "SM":
            # |r| * |r| rather than |r| ** 2, which raises on overflow
            defect = abs(gamma0.p * (abs(gamma0.r) * abs(gamma0.r)) - 1.0)
            if defect > REALITY_TOL:
                raise ConstraintViolation(
                    f"S_M requires alpha |beta|^2 = 1, defect {defect:.3e}"
                )
        else:
            if abs(abs(gamma0.r) - 1.0) > REALITY_TOL or abs(gamma0.r.imag) > REALITY_TOL:
                raise ConstraintViolation(
                    "S+/- requires the z-multiplier of gamma0 to be +-1, "
                    f"got {gamma0.r}"
                )
            for i, g in enumerate(self.generators[1:], start=1):
                if abs(g.s.imag) > REALITY_TOL or abs(g.u.imag) > REALITY_TOL:
                    raise ConstraintViolation(
                        f"S+/- generator {i} must have real shear coefficients"
                    )
        for i, g in enumerate(self.generators):
            if g.p <= 0.0:
                raise ConstraintViolation(
                    f"generator {i} must preserve the upper half-plane (p > 0)"
                )


def inoue_data_from_json(doc: dict) -> InoueGroupData:
    """Parse {"family": .., "generators": [{"p", "q", "r", "s", "u"}, ..]}."""
    if not isinstance(doc, dict) or "family" not in doc:
        raise GroupDataError("top level: expected an object with 'family'")
    raw = doc.get("generators", [])
    if not isinstance(raw, list) or not raw:
        raise GroupDataError("generators: expected a list of objects, gamma0 first")
    gens = []
    for i, g in enumerate(raw):
        if not isinstance(g, dict):
            raise GroupDataError(f"generators[{i}]: expected an object")
        path = f"generators[{i}]"
        gens.append(InoueGenerator(
            p=_real_from(g.get("p", 1.0), f"{path}.p"),
            q=_real_from(g.get("q", 0.0), f"{path}.q"),
            r=_complex_from(g.get("r", 1.0), f"{path}.r"),
            s=_complex_from(g.get("s", 0.0), f"{path}.s"),
            u=_complex_from(g.get("u", 0.0), f"{path}.u"),
        ))
    return InoueGroupData(str(doc["family"]), tuple(gens))


def inoue_samples(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, z) samples: Im(w) log-uniform in [0.1, 10], z in the unit disk."""
    rng = np.random.default_rng(seed)
    im_w = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
    re_w = rng.uniform(-2.0, 2.0, size=n)
    radius = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return re_w + 1j * im_w, radius * np.exp(1j * angle)


def verify_weight_invariance(data: InoueGroupData, w: np.ndarray,
                             z: np.ndarray) -> np.ndarray:
    """Per-sample worst residual of the tensor law
    weight(gamma(w, z)) = |det Dgamma|^2 weight(w, z) over the generators.

    The weight as a plain function is not invariant; as the coefficient of
    the canonical-bundle metric it transforms with the squared modulus of
    the holomorphic Jacobian determinant, and that combination is exactly
    group-invariant for valid family data.
    """
    data.validate()
    k = data.weight_exponent
    weight = np.imag(w) ** k
    worst = np.zeros(np.shape(w))
    for g in data.generators:
        w2, _ = g.apply(w, z)
        det = abs(g.holomorphic_det)
        target = det * det * weight
        worst = np.maximum(worst, np.abs(np.imag(w2) ** k - target) / weight)
    return worst


def curvature_form(data: InoueGroupData, w: np.ndarray) -> np.ndarray:
    """Curvature 2-form dd^c(-log weight) at w, as dd^c of the Hessian of
    -k log Im(w), whose one nonzero entry is d^2/d(Im w)^2 = k / Im(w)^2.

    Its only nonzero coefficient is k / Im(w)^2 on d(Re w)^d(Im w); as a
    (1,1)-form it is nonnegative, degenerate in the z-directions.
    """
    k = data.weight_exponent
    im_w = np.imag(np.asarray(w, dtype=complex))
    hess = np.zeros(np.shape(im_w) + (4, 4))
    hess[..., 1, 1] = k / im_w**2
    return ddc_from_hessian(hess)


def curvature_closed_form(data: InoueGroupData, w: np.ndarray) -> np.ndarray:
    """The same curvature from the analytic formula, for cross-checks."""
    k = data.weight_exponent
    coeff = k / np.imag(np.asarray(w, dtype=complex)) ** 2
    out = np.zeros(np.shape(w) + (4, 4))
    out[..., 0, 1] = coeff
    out[..., 1, 0] = -coeff
    return out


def degree_sign_report(data: InoueGroupData, seed: int = 11, n: int = 200) -> dict:
    """Exclusion verdict with the numerical evidence behind it.

    Checks: (i) the canonical weight is group-invariant as a tensor;
    (ii) dd^c of the Hessian matches the closed-form curvature; (iii) the
    curvature is nonnegative everywhere sampled and strictly positive in the
    w-plane.
    """
    data.validate()
    w, z = inoue_samples(seed, n)
    with np.errstate(over="ignore", invalid="ignore"):
        invariance = verify_weight_invariance(data, w, z)
    if not np.all(np.isfinite(invariance)):
        raise ConstraintViolation("the generators map the sampled domain "
                                  "beyond double precision")
    curv = curvature_form(data, w)
    closed = curvature_closed_form(data, w)
    curvature_residual = np.max(np.abs(curv - closed), axis=(-2, -1))
    eigs = np.linalg.eigvalsh(
        0.5 * (metric_from_form(curv, J_STD)
               + np.swapaxes(metric_from_form(curv, J_STD), -1, -2))
    )
    min_eig = float(np.min(eigs))
    pos_eig = float(np.min(np.max(eigs, axis=-1)))
    evidence = {
        "family": data.family,
        "weight_exponent": data.weight_exponent,
        "samples": int(n),
        "seed": int(seed),
        "invariance_max_residual": float(np.max(invariance)),
        "curvature_max_residual": float(np.max(curvature_residual)),
        "curvature_min_eigenvalue": min_eig,
        "curvature_positive_direction_min": pos_eig,
    }
    ok = (
        evidence["invariance_max_residual"] < REALITY_TOL
        and evidence["curvature_max_residual"] < 1e-8
        and min_eig > -1e-12
        and pos_eig > 0.0
    )
    return {
        "verdict": (
            "canonical degree positive => no bihermitian structure"
            if ok else "inconclusive: numerical evidence failed"
        ),
        "excluded": ok,
        "evidence": evidence,
    }
