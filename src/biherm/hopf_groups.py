"""Fundamental-group data of Hopf surfaces: validation and classification.

The deck group is generated by a polynomial contraction of C^2,

    gamma0(z1, z2) = (alpha z1 + lambda z2^m, beta z2),
    0 < |alpha| <= |beta| < 1,   lambda (alpha - beta^m) = 0,

together with a finite subgroup H of U(2).  A surface carries the structures
this package builds exactly when alpha*beta is a positive real and H lies in
SU(2); the admissible groups then split into three families:

* case (a): |alpha| = |beta| (so beta = conj(alpha)), H any finite subgroup
  of SU(2) acting freely on the unit sphere;
* case (b): lambda = 0, |alpha| < |beta|, H cyclic generated by
  diag(eps, 1/eps) with eps a primitive ell-th root of unity;
* case (c): lambda != 0 (so alpha = beta^m), H cyclic as in (b) but with
  m = k*ell - 1 so that H commutes with the contraction.

``classify`` builds the closure of H once and checks real type on it
(alpha*beta a positive real, det h = 1 for every h) before it picks the
case; a label holds its kind, its invariants and, on rejection, one reason.

Everything here is plain parameter validation and small linear algebra;
tolerances are absolute (inputs are exact-ish user parameters, not data):
1e-10 for unitarity and reality checks, largest entry difference 1e-8 for
matching group elements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import GroupDataError, NotFinite
from .exterior import from_complex, realify, to_complex

REALITY_TOL = 1e-10
MATCH_TOL = 1e-8
CLOSURE_CAP = 1000


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionParams:
    """Normal-form contraction data (alpha, beta, lambda, m) plus the chosen
    arguments for the fractional powers alpha^t, beta^t."""

    alpha: complex
    beta: complex
    lam: complex = 0j
    m: int = 1
    arg_alpha: float | None = None  # default: principal argument
    arg_beta: float | None = None

    def validate(self) -> str | None:
        """Return a reason string when the normal form is violated, else None."""
        a, b = abs(self.alpha), abs(self.beta)
        if not (0.0 < a <= b + 1e-12):
            return f"normal form requires 0 < |alpha| <= |beta|, got {a}, {b}"
        if not (b < 1.0):
            return f"normal form requires |beta| < 1, got {b}"
        if self.m < 1:
            return f"m must be a positive integer, got {self.m}"
        beta_m = self.beta**self.m
        gap = abs(self.lam) * abs(self.alpha - beta_m)
        if gap > REALITY_TOL:
            return (
                "resonance constraint lambda*(alpha - beta^m) = 0 violated "
                f"(residual {gap:.3e})"
            )
        # the shear lambda / beta^m of the flow (beta^m may underflow to 0)
        if self.lam and not (beta_m and cmath.isfinite(self.lam / beta_m)):
            return "lambda / beta^m is beyond double precision"
        return None


@dataclass(frozen=True)
class HopfGroupData:
    """Contraction parameters together with generators of the finite part H."""

    contraction: ContractionParams
    h_generators: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=complex).reshape(2, 2) for g in self.h_generators)
        object.__setattr__(self, "h_generators", gens)


@dataclass(frozen=True)
class CaseLabel:
    """Classification outcome; ``kind`` is one of 'a', 'b', 'c',
    'not_real_type', 'invalid'."""

    kind: str
    a: float | None = None
    ell: int | None = None
    k: int | None = None
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.kind in ("a", "b", "c")

    def to_json(self) -> dict:
        out: dict = {"case": self.kind}
        for key in ("a", "ell", "k", "reason"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


# ---------------------------------------------------------------------------
# JSON parsing (the one external wire format of this module)
# ---------------------------------------------------------------------------

def _real_from(obj, path: str) -> float:
    """obj as a finite float, or GroupDataError naming path."""
    try:
        value = float(obj)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GroupDataError(f"{path}: {exc}") from exc
    if not math.isfinite(value):
        raise GroupDataError(f"{path}: expected a finite number, got {obj!r}")
    return value


def _complex_from(obj, path: str) -> complex:
    """A number, [re, im] or {re, im} as a complex number of finite modulus."""
    if isinstance(obj, dict):
        extra = set(obj) - {"re", "im"}
        if extra:
            raise GroupDataError(f"{path}: unexpected keys {sorted(extra)}")
        obj = [obj.get("re", 0.0), obj.get("im", 0.0)]
    elif isinstance(obj, (int, float)):
        obj = [obj, 0.0]
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise GroupDataError(f"{path}: expected a number, [re, im] or {{re, im}}")
    value = complex(_real_from(obj[0], path), _real_from(obj[1], path))
    if not math.isfinite(math.hypot(value.real, value.imag)):
        raise GroupDataError(f"{path}: modulus is not a finite number")
    return value


def group_data_from_json(doc: dict) -> HopfGroupData:
    """Parse {"alpha": .., "beta": .., "lambda": .., "m": .., "H": [...],
    "arg_alpha": .., "arg_beta": ..} into HopfGroupData.

    Raises GroupDataError with a field pointer on any malformed entry.
    """
    if not isinstance(doc, dict):
        raise GroupDataError("top level: expected a JSON object")
    if "alpha" not in doc or "beta" not in doc:
        raise GroupDataError("top level: 'alpha' and 'beta' are required")
    alpha = _complex_from(doc["alpha"], "alpha")
    beta = _complex_from(doc["beta"], "beta")
    lam = _complex_from(doc.get("lambda", 0.0), "lambda")
    m = doc.get("m", 1)
    # beta**m needs m as a float, exactly
    if not isinstance(m, int) or not 1 <= m <= 2**53:
        raise GroupDataError(f"m: expected an integer from 1 to 2^53, got {m!r}")
    args = {key: _real_from(doc[key], key)
            for key in ("arg_alpha", "arg_beta") if key in doc}
    rows = doc.get("H", [])
    if not isinstance(rows, list):
        raise GroupDataError("H: expected a list of generators")
    gens = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise GroupDataError(f"H[{i}]: expected 4 complex entries (row-major)")
        entries = [_complex_from(v, f"H[{i}][{j}]") for j, v in enumerate(row)]
        gens.append(np.array(entries, dtype=complex).reshape(2, 2))
    params = ContractionParams(alpha, beta, lam, m, **args)
    return HopfGroupData(params, tuple(gens))


# ---------------------------------------------------------------------------
# finite group machinery
# ---------------------------------------------------------------------------

def _is_unitary(g: np.ndarray) -> bool:
    # entries near the float limit overflow to inf or nan: not unitary
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.max(np.abs(g @ g.conj().T - np.eye(2))) < REALITY_TOL)


def group_closure(gens) -> np.ndarray:
    """Close a list of unitary 2x2 matrices under multiplication.

    Returns the elements as one (order, 2, 2) array, in breadth-first order
    from the identity, which is always element 0.  Two elements match when
    their largest entry difference is < 1e-8.  Raises NotFinite when the
    closure exceeds CLOSURE_CAP elements (an irrational rotation, for
    instance, never closes).
    """
    gens = [np.asarray(g, dtype=complex).reshape(2, 2) for g in gens]
    for i, g in enumerate(gens):
        if not _is_unitary(g):
            raise GroupDataError(f"generator {i} is not unitary within {REALITY_TOL}")

    elems = np.empty((CLOSURE_CAP + 1, 2, 2), dtype=complex)
    elems[0] = np.eye(2)
    count = 1
    frontier = [0]
    while frontier:
        new_frontier = []
        for idx in frontier:
            for g in gens:
                h = elems[idx] @ g
                if np.any(np.max(np.abs(elems[:count] - h), axis=(1, 2))
                          < MATCH_TOL):
                    continue
                elems[count] = h
                new_frontier.append(count)
                count += 1
                if count > CLOSURE_CAP:
                    raise NotFinite(
                        f"closure exceeded cap of {CLOSURE_CAP} elements; "
                        "generators do not span a finite group"
                    )
        frontier = new_frontier
    return elems[:count]


def _cyclic_order(closure) -> int | None:
    """If the closure is the standard cyclic group {diag(eps^j, eps^-j)}
    with eps = exp(2 pi i / ell), return its order ell; otherwise None."""
    for h in closure:
        if abs(h[0, 1]) > MATCH_TOL or abs(h[1, 0]) > MATCH_TOL:
            return None
        if abs(h[0, 0] * h[1, 1] - 1.0) > MATCH_TOL:
            return None
    ell = len(closure)
    firsts = sorted((np.angle(h[0, 0]) % (2 * np.pi) for h in closure))
    expected = sorted((2 * np.pi * j / ell) % (2 * np.pi) for j in range(ell))
    if any(
        min(abs(a - b), 2 * np.pi - abs(a - b)) > 1e-8
        for a, b in zip(firsts, expected)
    ):
        return None
    return ell


def classify(data: HopfGroupData) -> CaseLabel:
    """Total classification of group data into the admissible families.

    Every syntactically valid input receives exactly one label carrying a
    machine-readable reason on rejection.
    """
    p = data.contraction
    reason = p.validate()
    if reason is not None:
        return CaseLabel("invalid", reason=reason)

    try:
        closure = group_closure(data.h_generators)
    except (GroupDataError, NotFinite) as exc:
        return CaseLabel("invalid", reason=str(exc))

    # real type: the canonical representation gamma0 -> alpha*beta,
    # h -> det(h) lands in the positive reals
    ab = p.alpha * p.beta
    if not (abs(ab.imag) < REALITY_TOL and ab.real > 0):
        return CaseLabel("not_real_type",
                         reason="alpha*beta is not a positive real")
    if np.max(np.abs(np.linalg.det(closure) - 1.0)) >= REALITY_TOL:
        return CaseLabel("not_real_type",
                         reason="H is not contained in SU(2) (det(h) != 1)")

    a = abs(p.alpha) * abs(p.beta)

    if abs(p.lam) > 0.0:
        # case (c): alpha = beta^m is forced by the resonance constraint
        ell = _cyclic_order(closure)
        if ell is None:
            return CaseLabel(
                "invalid",
                reason="lambda != 0 requires H to be the standard cyclic "
                "subgroup of S(U(1)xU(1))",
            )
        # h gamma0 = gamma0 h iff lambda eps = lambda eps^-m iff ell | m + 1
        if (p.m + 1) % ell != 0:
            return CaseLabel(
                "invalid",
                reason=f"H does not commute with the contraction: m = {p.m} "
                f"is not of the form k*ell - 1 for ell = {ell}",
            )
        return CaseLabel("c", a=float(abs(p.beta) ** (p.m + 1)), ell=ell,
                         k=(p.m + 1) // ell)

    if abs(abs(p.alpha) - abs(p.beta)) < REALITY_TOL:
        # case (a): real type forces beta = conj(alpha); H may be any finite
        # subgroup of SU(2), which then acts freely on the unit sphere.
        return CaseLabel("a", a=float(a), ell=len(closure))

    # case (b): |alpha| < |beta| forces H inside U(1)xU(1) for the group to
    # act properly on the cover, so every element must be diagonal
    ell = _cyclic_order(closure)
    if ell is None:
        return CaseLabel(
            "invalid",
            reason="|alpha| != |beta| requires H inside U(1)xU(1) "
            "(all elements diagonal)",
        )
    chain = (abs(p.alpha) ** 2, a, abs(p.alpha))
    if not (0.0 < chain[0] < chain[1] < chain[2] < 1.0):
        return CaseLabel(
            "invalid",
            reason="parameter chain 0 < |alpha|^2 < a < |alpha| < 1 fails: "
            f"{chain}",
        )
    return CaseLabel("b", a=float(a), ell=ell)


# ---------------------------------------------------------------------------
# group elements as maps of C^2 minus the origin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionPower:
    """Integer power gamma0^n of the contraction."""

    params: ContractionParams
    n: int = 1


@dataclass(frozen=True)
class UnitaryElement:
    """Element of the finite part H, acting linearly."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat",
                           np.asarray(self.mat, dtype=complex).reshape(2, 2))


GroupElement = ContractionPower | UnitaryElement


def _contraction_coeffs(elem: ContractionPower) -> tuple[complex, complex, complex]:
    """(alpha^n, beta^n, c_n) with gamma0^n(z) = (alpha^n z1 + c_n z2^m, beta^n z2).

    The closed form c_n = n alpha^{n-1} lambda uses alpha = beta^m, which the
    normal form forces whenever lambda != 0.
    """
    p = elem.params
    n = elem.n
    return p.alpha**n, p.beta**n, n * p.alpha ** (n - 1) * p.lam if p.lam else 0j


def apply_group_element(elem: GroupElement, x: np.ndarray) -> np.ndarray:
    """Image of real point(s) x under the group element."""
    z = to_complex(x)
    if isinstance(elem, UnitaryElement):
        w = np.einsum("ij,...j->...i", elem.mat, z)
        return from_complex(w)
    an, bn, cn = _contraction_coeffs(elem)
    w1 = an * z[..., 0] + cn * z[..., 1] ** elem.params.m
    w2 = bn * z[..., 1]
    return from_complex(np.stack([w1, w2], axis=-1))


def jacobian(elem: GroupElement, x: np.ndarray) -> np.ndarray:
    """Real 4x4 Jacobian of the element at x (the realified holomorphic
    differential, so det = |holomorphic Jacobian determinant|^2)."""
    x = np.asarray(x, dtype=float)
    if isinstance(elem, UnitaryElement):
        real = realify(elem.mat)
        return np.broadcast_to(real, x.shape[:-1] + (4, 4)).copy()
    an, bn, cn = _contraction_coeffs(elem)
    z = to_complex(x)
    m = elem.params.m
    hol = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    hol[..., 0, 0] = an
    hol[..., 0, 1] = cn * m * z[..., 1] ** (m - 1)
    hol[..., 1, 1] = bn
    return realify(hol)
