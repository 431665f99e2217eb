"""Strongly bihermitian structures on Hopf surfaces: construction by
Hamiltonian deformation of radial potentials, and numerical certification of
every defining identity; plus the curvature-sign exclusion for Inoue
surfaces.

The package namespace holds what the command line uses; everything else is
reached through its module (``biherm.exterior``, ``biherm.certificate``,
...)."""

from .certificate import CertificateConfig, run_certificate
from .deformation import positivity_sweep
from .errors import (
    AmbiguousRadialTime,
    GroupDataError,
    NotFinite,
    NotPlurisubharmonic,
    NotPositive,
    StepSizeUnderflow,
)
from .hopf_groups import classify, group_data_from_json
from .inoue import degree_sign_report, inoue_data_from_json
from .oracles import run_oracles
from .potentials import flow_spec_for, fundamental_annulus_sample
from .reporting import canonical_json, write_text

__all__ = [
    "AmbiguousRadialTime",
    "CertificateConfig",
    "GroupDataError",
    "NotFinite",
    "NotPlurisubharmonic",
    "NotPositive",
    "StepSizeUnderflow",
    "canonical_json",
    "classify",
    "degree_sign_report",
    "flow_spec_for",
    "fundamental_annulus_sample",
    "group_data_from_json",
    "inoue_data_from_json",
    "positivity_sweep",
    "run_certificate",
    "run_oracles",
    "write_text",
]

__version__ = "0.1.0"
