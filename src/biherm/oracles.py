"""Closed-form oracles that cross-check the numerical pipeline.

Three facts have exact independent solutions and gate everything else:

* the deformation field of the equal-moduli potential f = |z|^2 is linear
  (zdot1 = 2 conj(z2), zdot2 = -2 conj(z1)) and its flow is the explicit
  rotation z1(t) = cos(2t) z1 + sin(2t) conj(z2),
  z2(t) = cos(2t) z2 - sin(2t) conj(z1);
* the shear flow satisfies the group law phi_s o phi_t = phi_{s+t} exactly
  and hits the contraction at t = 1;
* for |alpha| = |beta| the radial time is ln|z| / ln|alpha|, the potential
  is |z|^2, and dd^c f = 4 (dx1^dy1 + dx2^dy2).
"""

from __future__ import annotations

import numpy as np

from .deformation import hamiltonian_field, integrate_flow
from .exterior import KAHLER_STD, from_complex, to_complex
from .hopf_groups import ContractionParams, ContractionPower, apply_group_element
from .potentials import PotentialField, flow_apply, flow_spec_for


def rotation_flow(t: float, x: np.ndarray) -> np.ndarray:
    """Closed-form flow of the f = |z|^2 Hamiltonian field."""
    z = to_complex(x)
    c, s = np.cos(2.0 * t), np.sin(2.0 * t)
    w1 = c * z[..., 0] + s * np.conj(z[..., 1])
    w2 = c * z[..., 1] - s * np.conj(z[..., 0])
    return from_complex(np.stack([w1, w2], axis=-1))


def rotation_flow_oracle(seed: int = 7, n: int = 100, t: float = 0.3,
                         ode_tol: float = 1e-10) -> dict:
    """Integrator versus the closed form, after verifying that the closed
    form actually solves the field equation (finite difference in t)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    x *= rng.uniform(0.7, 1.0, size=(n, 1))

    spec = flow_spec_for(ContractionParams(0.5, 0.5))
    # the closed form must solve dx/dt = X(x): central difference in t
    h = 1e-6
    slope = (rotation_flow(h, x) - rotation_flow(-h, x)) / (2.0 * h)
    field = hamiltonian_field(spec, x)
    solves_ode = float(np.max(np.abs(slope - field)))

    state = integrate_flow(spec, t, x, ode_tol)
    mismatch = float(np.max(np.abs(state.x_t - rotation_flow(t, x))))
    return {
        "closed_form_solves_ode": solves_ode,
        "integrator_mismatch": mismatch,
        "pass": bool(solves_ode < 1e-8 and mismatch < 1e-9),
    }


def shear_group_law_oracle(seed: int = 7, n: int = 100) -> dict:
    """phi_s o phi_t = phi_{s+t} to machine precision, and phi_1 = gamma0."""
    rng = np.random.default_rng(seed)
    params = ContractionParams(0.6, 0.6, lam=0.1, m=1)
    spec = flow_spec_for(params)
    x = rng.standard_normal((n, 4))
    s = rng.uniform(-2.0, 2.0, size=n)
    t = rng.uniform(-2.0, 2.0, size=n)
    composed = flow_apply(spec, s, flow_apply(spec, t, x))
    direct = flow_apply(spec, s + t, x)
    law = float(np.max(np.abs(composed - direct)))
    gamma = apply_group_element(ContractionPower(params, 1), x)
    hit = float(np.max(np.abs(flow_apply(spec, 1.0, x) - gamma)))
    identity = float(np.max(np.abs(flow_apply(spec, 0.0, x) - x)))
    return {
        "group_law": law,
        "time_one_equals_contraction": hit,
        "time_zero_identity": identity,
        "pass": bool(law < 1e-12 and hit < 1e-12 and identity == 0.0),
    }


def equal_moduli_potential_oracle(seed: int = 7, n: int = 200) -> dict:
    """r = ln|z|/ln|alpha|, f = |z|^2 and dd^c f = 4 * Kaehler form when
    |alpha| = |beta|."""
    rng = np.random.default_rng(seed)
    alpha = 0.5 * np.exp(0.3j)
    spec = flow_spec_for(ContractionParams(alpha, np.conj(alpha)))
    x = rng.standard_normal((n, 4))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    x *= rng.uniform(0.55, 1.3, size=(n, 1))

    pf = PotentialField(spec)
    pot = pf.potential(x)
    norm2 = np.sum(x**2, axis=-1)
    r_closed = np.log(np.sqrt(norm2)) / np.log(abs(alpha))
    r_residual = float(np.max(np.abs(pot.r - r_closed)))
    f_residual = float(np.max(np.abs(pot.f - norm2) / norm2))
    ddc_residual = float(np.max(np.abs(pot.ddc_f - 4.0 * KAHLER_STD)))
    return {
        "radial_time": r_residual,
        "potential": f_residual,
        "ddc": ddc_residual,
        "pass": bool(r_residual < 1e-12 and f_residual < 1e-12
                     and ddc_residual < 1e-11),
    }


def run_oracles(seed: int = 7) -> dict:
    """All closed-form oracles; pass iff every sub-oracle passes."""
    report = {
        "rotation_flow": rotation_flow_oracle(seed),
        "shear_group_law": shear_group_law_oracle(seed),
        "equal_moduli_potential": equal_moduli_potential_oracle(seed),
    }
    report["pass"] = all(v["pass"] for v in report.values())
    return report
