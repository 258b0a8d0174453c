"""Secrecy-rate analysis and joint power allocation for an artificial-
noise-aided massive MIMO-NOMA downlink with imperfect channel estimation.

Layout:
    model       system description, power variables, estimation quality
    rates       closed-form ergodic rates, asymptotes, energy efficiency
    montecarlo  link-level simulation oracles for every closed form
    projgrad    projected Newton / gradient maximizer (box / capped-sum sets)
    optimize    DC power-allocation solvers, baselines, OMA benchmark
    experiments experiment drivers and CSV emission
    cli         command-line entry point
"""

from .model import (
    ClusterConfig,
    DownlinkPower,
    EstimationQuality,
    SystemConfig,
    UplinkPower,
    compute_rho,
    db_to_linear,
    linear_to_db,
    validate_config,
)
from .rates import (
    RateReport,
    asymptotic_high_power,
    asymptotic_large_nt,
    energy_efficiency,
    oma_report,
    secrecy_report,
)
from .optimize import (
    SolveOptions,
    SolverTrace,
    baseline_downlink_se,
    baseline_fixed,
    baseline_uplink_se,
    maximize_ee,
    maximize_se,
    optimize_oma_tdma,
)

__all__ = [
    "ClusterConfig",
    "SystemConfig",
    "UplinkPower",
    "DownlinkPower",
    "EstimationQuality",
    "compute_rho",
    "validate_config",
    "db_to_linear",
    "linear_to_db",
    "RateReport",
    "secrecy_report",
    "asymptotic_large_nt",
    "asymptotic_high_power",
    "oma_report",
    "energy_efficiency",
    "SolveOptions",
    "SolverTrace",
    "maximize_se",
    "maximize_ee",
    "baseline_fixed",
    "baseline_downlink_se",
    "baseline_uplink_se",
    "optimize_oma_tdma",
]

__version__ = "0.1.0"
