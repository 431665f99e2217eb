"""Pointwise exterior algebra on R^4 identified with C^2.

Conventions, fixed once and echoed into every report:

* coordinate frame ordered (x1, y1, x2, y2) with z_k = x_k + i*y_k;
* orientation given by the volume form dx1^dy1^dx2^dy2 (complex orientation);
* a 1-form is a length-4 coefficient array;
* a 2-form B is an antisymmetric 4x4 array with B[i, j] = B(e_i, e_j);
* a 3-form is stored by its 4 components on the sorted triples ``TRIPLES``;
* a 4-form is a single coefficient relative to the volume form;
* an endomorphism J acts on tangent vectors, (J v)_k = J[k, l] v_l, and on
  1-forms by (J a)(v) = -a(J v).

Every function broadcasts over arbitrary leading batch axes.  Derivatives
of sampled fields come from one batched finite-difference engine,
``StencilCloud``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegenerateForm, SingularMetric

# Sorted index triples used to store 3-forms; TRIPLES[i] omits index 3 - i.
TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _levi_civita4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        inversions = sum(
            1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b]
        )
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


#: Levi-Civita symbol with EPS4[0,1,2,3] = +1 relative to the fixed frame.
EPS4 = _levi_civita4()
EPS4.setflags(write=False)


def _two_form(*entries: tuple[int, int, float]) -> np.ndarray:
    out = np.zeros((4, 4))
    for i, j, value in entries:
        out[i, j] = value
        out[j, i] = -value
    return out


#: Standard complex structure (multiplication by i): dx_k -> dy_k.
J_STD = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
#: Euclidean Kaehler form dx1^dy1 + dx2^dy2.
KAHLER_STD = _two_form((0, 1, 1.0), (2, 3, 1.0))
#: Real part of dz1^dz2: dx1^dx2 - dy1^dy2.
HOLO_RE = _two_form((0, 2, 1.0), (1, 3, -1.0))
#: Imaginary part of dz1^dz2: dx1^dy2 + dy1^dx2.
HOLO_IM = _two_form((0, 3, 1.0), (1, 2, 1.0))

for _m in (J_STD, KAHLER_STD, HOLO_RE, HOLO_IM):
    _m.setflags(write=False)


# ---------------------------------------------------------------------------
# coordinate helpers
# ---------------------------------------------------------------------------

def to_complex(x: np.ndarray) -> np.ndarray:
    """Real point(s) (..., 4) -> complex (..., 2) with z_k = x_k + i*y_k."""
    x = np.asarray(x, dtype=float)
    return np.stack([x[..., 0] + 1j * x[..., 1], x[..., 2] + 1j * x[..., 3]], axis=-1)


def from_complex(z: np.ndarray) -> np.ndarray:
    """Complex point(s) (..., 2) -> real (..., 4)."""
    z = np.asarray(z, dtype=complex)
    return np.stack(
        [z[..., 0].real, z[..., 0].imag, z[..., 1].real, z[..., 1].imag], axis=-1
    )


def realify(m: np.ndarray) -> np.ndarray:
    """Real 4x4 form of a complex-linear map given by a 2x2 complex matrix."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros(m.shape[:-2] + (4, 4))
    for i in range(2):
        for j in range(2):
            a = m[..., i, j]
            out[..., 2 * i, 2 * j] = a.real
            out[..., 2 * i, 2 * j + 1] = -a.imag
            out[..., 2 * i + 1, 2 * j] = a.imag
            out[..., 2 * i + 1, 2 * j + 1] = a.real
    return out


# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------

def wedge_to_volume(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficient s with B ^ C = s * dx1^dy1^dx2^dy2.

    Bilinear and symmetric in (B, C); works for real or complex coefficients.
    """
    return 0.25 * np.einsum("ijkl,...ij,...kl->...", EPS4, b, c)


def acs_from_form_pair(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Endomorphism J with Psi(u, v) = -Phi(J u, v), i.e. J = -Phi^{-1} Psi.

    Raises DegenerateForm when Phi is not invertible.  The returned J solves
    the defining relation exactly (linear solve); J^2 = -Id only holds when
    the input pair satisfies Phi^2 = Psi^2 and Phi ^ Psi = 0, which the
    caller asserts.
    """
    phi = np.asarray(phi, dtype=float)
    scale = np.max(np.abs(phi), axis=(-2, -1))
    det = np.linalg.det(phi)
    if np.any(np.abs(det) <= 1e-48 * np.maximum(scale, 1e-300) ** 4):
        raise DegenerateForm("form is numerically singular, cannot invert")
    return -np.linalg.solve(phi, np.asarray(psi, dtype=float))


def invariant_part(b: np.ndarray, j: np.ndarray) -> np.ndarray:
    """J-invariant part B^{1,1}(u, v) = (B(u, v) + B(Ju, Jv)) / 2."""
    return 0.5 * (b + np.einsum("...ji,...jk,...kl->...il", j, b, j))


def metric_from_form(f: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Symmetric bilinear form g(u, v) = F(u, J v).

    Symmetry holds exactly when F is exactly J-invariant and J^2 = -Id;
    positive definiteness is *not* asserted here -- callers inspect the
    minimum eigenvalue.
    """
    return np.einsum("...ij,...jk->...ik", f, j)


def min_metric_eigenvalue(g: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetrised metric, per batch element."""
    sym = 0.5 * (g + np.swapaxes(g, -1, -2))
    return np.linalg.eigvalsh(sym)[..., 0]


def j_act_oneform(j: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Action of an almost complex structure on 1-forms, (Ja)(v) = -a(Jv)."""
    return -np.einsum("...ki,...k->...i", j, a)


# ---------------------------------------------------------------------------
# Hodge star (Riemannian, middle-degree conventions for n = 4)
# ---------------------------------------------------------------------------

def _metric_inverse_and_volume(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(g, dtype=float)
    det = np.linalg.det(g)
    if np.any(det <= 1e-300):
        raise SingularMetric("metric determinant is not positive")
    return np.linalg.inv(g), np.sqrt(det)


def hodge_star(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hodge star of a 2-form: (*B)_kl = (1/2) sqrt(det g) B^{ij} eps_{ijkl}.

    Conformally invariant on 2-forms; star of star is the identity.
    """
    ginv, vol = _metric_inverse_and_volume(g)
    raised = np.einsum("...ia,...jb,...ab->...ij", ginv, ginv, b)
    return 0.5 * vol[..., None, None] * np.einsum("ijkl,...ij->...kl", EPS4, raised)


def hodge_star_three(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Hodge star of a dense 3-form, returned as a 1-form."""
    ginv, vol = _metric_inverse_and_volume(g)
    raised = np.einsum("...ia,...jb,...kc,...abc->...ijk", ginv, ginv, ginv, c)
    return (vol[..., None] / 6.0) * np.einsum("...ijk,ijkl->...l", raised, EPS4)


def norm_sq_oneform(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Pointwise squared norm g^{ij} a_i a_j."""
    ginv, _ = _metric_inverse_and_volume(g)
    return np.einsum("...ij,...i,...j->...", ginv, a, a)


# ---------------------------------------------------------------------------
# 3-form storage and wedge helpers
# ---------------------------------------------------------------------------

def dense_from_three(comps: np.ndarray) -> np.ndarray:
    """Sorted-triple components (..., 4) -> dense antisymmetric (..., 4, 4, 4)."""
    comps = np.asarray(comps)
    out = np.zeros(comps.shape[:-1] + (4, 4, 4), dtype=comps.dtype)
    for t, (a, b, c) in enumerate(TRIPLES):
        for perm in itertools.permutations((a, b, c)):
            sign = 1.0
            p = list(perm)
            # parity of the permutation taking (a, b, c) to perm
            if p[0] != a:
                k = p.index(a)
                p[0], p[k] = p[k], p[0]
                sign = -sign
            if p[1] != b:
                p[1], p[2] = p[2], p[1]
                sign = -sign
            out[(...,) + perm] = sign * comps[..., t]
    return out


def wedge_one_two(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a ^ B) as sorted-triple components for a 1-form a and 2-form B."""
    a = np.asarray(a)
    b = np.asarray(b)
    comps = [
        a[..., i] * b[..., j, k] - a[..., j] * b[..., i, k] + a[..., k] * b[..., i, j]
        for (i, j, k) in TRIPLES
    ]
    return np.stack(comps, axis=-1)


# ---------------------------------------------------------------------------
# finite-difference exterior calculus on sampled fields
# ---------------------------------------------------------------------------

#: Base finite-difference step, scaled per point by ``stencil_step``.
DEFAULT_FD_STEP = 1e-3


def stencil_step(x: np.ndarray, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Step fd_step * max(1, |x|) per base point (batch axes of x)."""
    x = np.asarray(x, dtype=float)
    return fd_step * np.maximum(1.0, np.linalg.norm(x, axis=-1))


class StencilCloud:
    """Richardson stencil around base points.  ``points`` has shape
    x.shape[:-1] + (rows, 4), one cloud per base point, with the rows

    * 0-15: +h, -h, +h/2, -h/2 along each axis in turn (all a plain cloud
      has; ``partials`` reads only these);
    * 16-39, with ``mixed``: the corners (+h, +h) and (-h, -h), then
      (+h/2, +h/2) and (-h/2, -h/2), of each coordinate plane (i, j),
      i < j, in order;
    * 40, with ``mixed``: the base point itself, so that a field evaluated
      on the cloud supplies the centre of its own second differences (for
      the flow: one step sequence).

    Each derivative is a central difference at steps h and h/2 (weights as
    in Fornberg 1988, *Generation of finite difference formulas on
    arbitrarily spaced grids*) extrapolated to O(h^4).  A mixed partial at
    step H is the seven-point formula (Abramowitz and Stegun, *Handbook of
    Mathematical Functions*, sec. 25.3)

        d_i d_j f = [f(+H, +H) + f(-H, -H) - f(+H, 0) - f(-H, 0)
                     - f(0, +H) - f(0, -H) + 2 f(0)] / (2 H^2) + O(H^2),

    whose error is even in H, so it takes the same extrapolation and reuses
    the axial rows.
    """

    _OFFSETS = (1.0, -1.0, 0.5, -0.5)
    _PAIRS = tuple(itertools.combinations(range(4), 2))
    # rows of one base point's cloud: the axial points by (direction,
    # offset), then the corners by (plane, step h or h/2, corner ++ or --),
    # then the centre
    _AXIAL = np.arange(16).reshape(4, 4)
    _CORNER_ROWS = 16 + np.arange(24).reshape(6, 2, 2)
    _CENTRE_ROW = 40

    def __init__(self, x: np.ndarray, h: np.ndarray, mixed: bool = False):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        disp = np.zeros((self._CENTRE_ROW + 1 if mixed else 16, 4))
        for d in range(4):
            for o, s in enumerate(self._OFFSETS):
                disp[self._AXIAL[d, o], d] = s
        if mixed:
            for p, plane in enumerate(self._PAIRS):
                for k, scale in enumerate((1.0, 0.5)):
                    disp[self._CORNER_ROWS[p, k, 0], plane] = scale
                    disp[self._CORNER_ROWS[p, k, 1], plane] = -scale
        self.base_shape = x.shape[:-1]
        self.h = h
        self.points = x[..., None, :] + h[..., None, None] * disp

    def _at(self, values: np.ndarray, rows) -> np.ndarray:
        """Entries of values (evaluated at self.points) at the given rows of
        each base point's cloud, on the row axis after the batch axes."""
        return np.take(values, rows, axis=len(self.base_shape))

    def _step(self, values: np.ndarray) -> np.ndarray:
        """h shaped to broadcast against the arrays that _at returns."""
        return self.h.reshape(self.base_shape
                              + (1,) * (values.ndim - len(self.base_shape)))

    def partials(self, values: np.ndarray) -> np.ndarray:
        """values evaluated at self.points -> derivative array with the
        direction axis inserted after the batch axes (O(h^4))."""
        v0, v1, v2, v3 = (self._at(values, self._AXIAL[:, o]) for o in range(4))
        h = self._step(values)
        d1 = (v0 - v1) / (2.0 * h)
        d2 = (v2 - v3) / h
        return (4.0 * d2 - d1) / 3.0

    def second_partials(self, values: np.ndarray) -> np.ndarray:
        """values evaluated at the points of a ``mixed`` cloud -> symmetric
        array of second derivatives with two direction axes inserted after
        the batch axes (O(h^4)); the centre is the cloud's own base row."""
        nb = len(self.base_shape)
        h2 = self._step(values) ** 2
        c2 = 2.0 * self._at(values, [self._CENTRE_ROW])
        v0, v1, v2, v3 = (self._at(values, self._AXIAL[:, o]) for o in range(4))
        # H^2 d_i^2 f along each axis, at H = h and H = h/2
        axial = (v0 + v1 - c2, v2 + v3 - c2)
        i, j = np.array(self._PAIRS).T

        def mixed(k):  # 2 H^2 d_i d_j f on each plane, at H = h / 2^k
            pp, mm = (self._at(values, self._CORNER_ROWS[:, k, c])
                      for c in range(2))
            return (pp + mm - c2 - self._at(axial[k], i)
                    - self._at(axial[k], j))

        diag = (16.0 * axial[1] - axial[0]) / (3.0 * h2)
        out = np.empty(self.base_shape + (4, 4) + values.shape[nb + 1:],
                       dtype=diag.dtype)
        lead = (slice(None),) * nb
        out[lead + (np.arange(4),) * 2] = diag
        out[lead + (i, j)] = out[lead + (j, i)] = (
            (16.0 * mixed(1) - mixed(0)) / (6.0 * h2))
        return out

    def d_two_form(self, values: np.ndarray) -> np.ndarray:
        """Exterior derivative of a 2-form field as sorted-triple comps."""
        return d_two_form_from_partials(self.partials(values))


def d_two_form_from_partials(p: np.ndarray) -> np.ndarray:
    """Exterior derivative of a 2-form B from its partials p[..., d, i, j] =
    d_d B_ij, as sorted-triple components."""
    comps = [p[..., i, j, k] - p[..., j, i, k] + p[..., k, i, j]
             for (i, j, k) in TRIPLES]
    return np.stack(comps, axis=-1)


def codifferential_one(g: np.ndarray, dg: np.ndarray, a: np.ndarray,
                       da: np.ndarray) -> np.ndarray:
    """delta a = -*d*a = -(1/sqrt det g) d_i(sqrt det g g^{ij} a_j) of a
    1-form from its value and partials da[..., i, j] = d_i a_j and those of
    the metric, dg[..., i, k, l] = d_i g_kl."""
    ginv, _ = _metric_inverse_and_volume(g)
    a_up = np.einsum("...ij,...j->...i", ginv, a)
    dlog_vol = 0.5 * np.einsum("...kl,...ilk->...i", ginv, dg)
    div = (np.einsum("...i,...i->...", dlog_vol, a_up)
           - np.einsum("...ik,...ikl,...l->...", ginv, dg, a_up)
           + np.einsum("...ij,...ij->...", ginv, da))
    return -div


def nijenhuis_from_partials(j: np.ndarray, dj: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor from J and its partials dj[..., l, k, i] = d_l J^k_i.

    N(e_i, e_j)^k = J^l_i d_l J^k_j - J^l_j d_l J^k_i
                    + J^k_l (d_j J^l_i - d_i J^l_j),
    returned with axes (..., i, j, k).
    """
    t1 = np.einsum("...li,...lkj->...ijk", j, dj)
    t2 = np.einsum("...lj,...lki->...ijk", j, dj)
    t3 = np.einsum("...kl,...jli->...ijk", j, dj)
    t4 = np.einsum("...kl,...ilj->...ijk", j, dj)
    return t1 - t2 + t3 - t4


def ddc_from_hessian(hess: np.ndarray) -> np.ndarray:
    """dd^c f from the real Hessian of f, with d^c = i(dbar - d).

    In the fixed frame dd^c f = J^T H - H J; the result is exactly
    J-invariant (a (1,1)-form) for any symmetric H, and for f = |z|^2 it
    equals 4 * (dx1^dy1 + dx2^dy2).
    """
    return np.einsum("ij,...jk->...ik", J_STD.T.copy(), hess) - np.einsum(
        "...ij,jk->...ik", hess, J_STD
    )
