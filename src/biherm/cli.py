"""Command-line surface: classify / construct / sweep / certify / inoue / oracle.

Exit codes: 0 pass, 1 parse failure, 2 classification refusal, 3 analytic
refusal (positivity), 4 numerical failure (integrator or root finder),
5 completed certificate with failing identity families.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .certificate import (
    DEFAULT_TOLERANCES,
    STENCIL_SCALE,
    CertificateConfig,
    assemble_from_triple,
    deform_samples,
    run_certificate,
)
from .deformation import (
    DEFAULT_ODE_TOL,
    MAX_ABS_T,
    positivity_sweep,
    quotient_triple,
)
from .errors import (
    AmbiguousRadialTime,
    BeyondPrecision,
    ConstraintViolation,
    DegenerateForm,
    GroupDataError,
    NotFinite,
    NotPlurisubharmonic,
    NotPositive,
    SingularMetric,
    StepSizeUnderflow,
)
from .exterior import DEFAULT_FD_STEP
from .hopf_groups import classify, group_data_from_json
from .inoue import degree_sign_report, inoue_data_from_json
from .oracles import run_oracles
from .potentials import PotentialField, flow_spec_for, fundamental_annulus_sample
from .reporting import canonical_json, write_text

EXIT_PASS = 0
EXIT_PARSE = 1
EXIT_CLASSIFY = 2
EXIT_ANALYTIC = 3
EXIT_NUMERIC = 4
EXIT_TIERS = 5

#: Most points a --t-grid may have (each is one sweep row).
MAX_T_GRID_POINTS = 10_000


def _emit(payload: dict, out_path: str | None) -> None:
    text = canonical_json(payload)
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise GroupDataError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8, too many digits, or nested too deep
        raise GroupDataError(f"{path}: {exc}") from exc


def _parse_t_grid(spec: str) -> tuple:
    try:
        a, b, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise GroupDataError(f"--t-grid expects a:b:step, got {spec!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b) and 0 < step < math.inf):
        raise GroupDataError(f"--t-grid needs finite bounds and a finite "
                             f"positive step, got {spec!r}")
    if max(abs(a), abs(b)) > MAX_ABS_T:
        raise GroupDataError(f"--t-grid bounds must lie in [-{MAX_ABS_T:g}, "
                             f"{MAX_ABS_T:g}], got {spec!r}")
    a, b = min(a, b), max(a, b)  # reversed bounds canonicalise
    count = (b - a) / step  # inf when b - a overflows or step underflows
    if not count < MAX_T_GRID_POINTS:
        raise GroupDataError(f"--t-grid {spec!r} has more than "
                             f"{MAX_T_GRID_POINTS} points")
    return tuple(sorted({round(a + i * step, 12) for i in range(round(count) + 1)}))


def _finite_positive(flag: str, value) -> float:
    """value as a float, or GroupDataError unless it is finite and > 0."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not (math.isfinite(number) and number > 0.0):
        raise GroupDataError(f"{flag} must be a finite positive number, "
                             f"got {value!r}")
    return number


def _stencil_step(flag: str, value) -> float:
    """A finite positive fd_step whose half step moves a coordinate of size
    max(1, |x|), and with STENCIL_SCALE * fd_step < 1, so that no arm of the
    stencil cloud (STENCIL_SCALE * fd_step * max(1, |x|)) is as long as the
    point's own scale.  stencil_step scales fd_step by that size, so the
    test does not depend on the samples."""
    step = _finite_positive(flag, value)
    if 1.0 + step / 2.0 == 1.0:
        raise GroupDataError(f"{flag} {value!r} is too small to move a "
                             "stencil point off its base point")
    if not STENCIL_SCALE * step < 1.0:
        raise GroupDataError(f"{flag} {value!r} is too large: the stencil "
                             f"cloud needs {STENCIL_SCALE:g} * {flag} < 1")
    return step


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise GroupDataError(f"{flag} must be at least 1, got {value}")
    return value


def _tol_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        name, _, value = pair.partition("=")
        if not _ or not name:
            raise GroupDataError(f"--tol-tier expects NAME=X, got {pair!r}")
        if name not in DEFAULT_TOLERANCES:
            raise GroupDataError(f"--tol-tier: unknown identity family {name!r}")
        out[name] = _finite_positive(f"--tol-tier {name}", value)
    return out


def cmd_classify(args) -> int:
    data = group_data_from_json(_load_config(args.config))
    label = classify(data)
    _emit(label.to_json(), args.out)
    return EXIT_PASS if label.accepted else EXIT_CLASSIFY


def _certificate_config(args) -> CertificateConfig:
    """The config that the flags of certify, sweep and construct share (sweep
    has no --t); certify sets its own in cmd_certify."""
    cfg = CertificateConfig(
        data=group_data_from_json(_load_config(args.config)),
        t=getattr(args, "t", None),
        n=_at_least_one("--samples", args.samples),
        seed=args.seed,
        ode_tol=_finite_positive("--ode-tol", args.ode_tol),
    )
    if cfg.t is not None and not abs(cfg.t) <= MAX_ABS_T:
        raise GroupDataError(f"--t must be finite with |t| <= {MAX_ABS_T:g}, "
                             f"got {cfg.t!r}")
    if args.t_grid:
        cfg.t_grid = _parse_t_grid(args.t_grid)
    return cfg


def cmd_certify(args) -> int:
    cfg = _certificate_config(args)
    if args.threads is not None:  # else BIHERM_THREADS (env_threads)
        cfg.threads = _at_least_one("--threads", args.threads)
    cfg.fd_step = _stencil_step("--fd-step", args.fd_step)
    cfg.tolerances = _tol_overrides(args.tol_tier)
    report = run_certificate(cfg)
    _emit(report.to_json_dict(), args.out)
    if report.refusal is not None:
        return EXIT_CLASSIFY
    return EXIT_PASS if report.passed else EXIT_TIERS


def cmd_sweep(args) -> int:
    cfg = _certificate_config(args)
    label = classify(cfg.data)
    if not label.accepted:
        _emit(label.to_json(), args.out)
        return EXIT_CLASSIFY
    spec = flow_spec_for(cfg.data.contraction)
    samples = fundamental_annulus_sample(cfg.seed, spec, cfg.n)
    grid = cfg.t_grid if args.t_grid else (0.0,) + cfg.t_grid
    # an inadmissible shear is an analytic refusal, as in certify
    pot = PotentialField(spec).potential(samples)
    rows = positivity_sweep(spec, grid, pot, cfg.ode_tol)
    lines = ["t,min_margin,argmin_sample_index,p_min,p_max"]
    lines += [
        f"{r.t!r},{r.min_margin!r},{r.argmin_sample_index},{r.p_min!r},{r.p_max!r}"
        for r in rows
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_construct(args) -> int:
    cfg = _certificate_config(args)
    label = classify(cfg.data)
    if not label.accepted:
        _emit(label.to_json(), args.out)
        return EXIT_CLASSIFY
    spec = flow_spec_for(cfg.data.contraction)
    samples = fundamental_annulus_sample(cfg.seed, spec, cfg.n)
    pot = PotentialField(spec).potential(samples)
    state, _, slope = deform_samples(spec, pot, cfg)
    sample = assemble_from_triple(quotient_triple(spec, state), state)
    payload = {
        "case": label.to_json(),
        "t": state.t,
        "n": cfg.n,
        "seed": cfg.seed,
        "margin_min": float(np.min(sample.margin)),
        "margin_max": float(np.max(sample.margin)),
        "p_min": float(np.min(sample.p)),
        "p_max": float(np.max(sample.p)),
        "first_sample": {
            "x": sample.x[0].tolist(),
            "g": sample.g[0].tolist(),
            "j_minus": sample.j_minus[0].tolist(),
            "p": float(sample.p[0]),
        },
    }
    if slope is not None:
        payload["margin_slope_floor"] = slope
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_inoue(args) -> int:
    data = inoue_data_from_json(_load_config(args.config))
    report = degree_sign_report(data, seed=args.seed,
                                n=_at_least_one("--samples", args.samples))
    _emit(report, args.out)
    return EXIT_PASS if report["excluded"] else EXIT_TIERS


def cmd_oracle(args) -> int:
    report = run_oracles(seed=args.seed)
    _emit(report, args.out)
    return EXIT_PASS if report["pass"] else EXIT_TIERS


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed argument is a parse failure (exit 1), not exit 2."""

    def error(self, message):
        raise GroupDataError(message)


_FLAGS = {
    "--config": dict(required=True, help="JSON group data"),
    "--seed": dict(type=int, default=CertificateConfig.seed),
    "--samples": dict(type=int, default=CertificateConfig.n),
    "--t": dict(type=float, default=None),
    "--t-grid": dict(default=None, help="a:b:step"),
    "--ode-tol": dict(type=float, default=DEFAULT_ODE_TOL),
    "--fd-step": dict(type=float, default=DEFAULT_FD_STEP),
    "--tol-tier": dict(action="append", default=None, metavar="NAME=X"),
    "--threads": dict(type=int, default=None,
                      help="worker cap (default: BIHERM_THREADS or 1)"),
}
_SWEEP = ("--config", "--seed", "--samples", "--t-grid", "--ode-tol")
#: Each command and the flags it reads, besides --out.
COMMANDS = {
    "classify": (cmd_classify, ("--config",)),
    "certify": (cmd_certify, (*_SWEEP, "--t", "--fd-step", "--tol-tier",
                              "--threads")),
    "sweep": (cmd_sweep, _SWEEP),
    "construct": (cmd_construct, (*_SWEEP, "--t")),
    "inoue": (cmd_inoue, ("--config", "--seed", "--samples")),
    "oracle": (cmd_oracle, ("--seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="biherm",
        description="Bihermitian structures on Hopf surfaces: construction "
        "and numerical certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        # no abbreviations: sweep would read --t as --t-grid
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "seed" in args and args.seed < 0:  # numpy rejects a negative seed
            raise GroupDataError(f"--seed must be non-negative, got {args.seed}")
        return args.fn(args)
    except (GroupDataError, ConstraintViolation) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotFinite as exc:
        print(f"classification refusal: {exc}", file=sys.stderr)
        return EXIT_CLASSIFY
    except (NotPlurisubharmonic, NotPositive) as exc:
        print(f"analytic refusal: {exc}", file=sys.stderr)
        return EXIT_ANALYTIC
    except (AmbiguousRadialTime, BeyondPrecision, DegenerateForm,
            SingularMetric, StepSizeUnderflow) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
