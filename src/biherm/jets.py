"""Second-order forward-mode jets: value, gradient and Hessian together.

A ``JetScalar`` carries the 2-jet of a scalar expression in ``n`` variables
(n = 4 for fields on R^4).  All fields accept leading batch axes and every
operation broadcasts over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
