"""Magnetometry with a continuously monitored atomic ensemble.

Simulation and estimation toolkit for magnetic-field estimation with a
collective atomic spin under continuous homodyne monitoring: Gaussian
conditional dynamics, closed-form information quantities and their
integrated-flow cross-checks, photocurrent simulation, Bayesian field
inference, and brute-force finite-spin benchmarks.
"""

from .model import ModelParams, TimeGrid, jbar, load_config, save_config
from .filtering import var_p_closed, sensitivity_closed
from .information import (InformationReport, REPORT_COLUMNS,
                          fisher_record_closed, qfi_conditional,
                          k_coefficients, effective_qfi, ultimate_qfi_closed,
                          ultimate_qfi_ode, scaling_slope)
from .records import (PhotocurrentRecord, simulate_record, batch_simulate,
                      record_residuals, save_record, load_record)
from .bayes import (PosteriorGrid, EstimateSummary, posterior, estimate,
                    saturation_curve)
from .spin import (SpinOperators, SpinCoherentState, TauInformation,
                   build_spin_operators, spin_coherent_x, evolve_unconditional,
                   evolve_conditional, fisher_tau, tau_information,
                   average_conditional, two_field_trace, ultimate_qfi_finiteJ)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "TimeGrid", "jbar", "load_config", "save_config",
    "var_p_closed", "sensitivity_closed",
    "InformationReport", "REPORT_COLUMNS", "fisher_record_closed",
    "qfi_conditional", "k_coefficients", "effective_qfi",
    "ultimate_qfi_closed", "ultimate_qfi_ode", "scaling_slope",
    "PhotocurrentRecord", "simulate_record", "batch_simulate",
    "record_residuals", "save_record", "load_record",
    "PosteriorGrid", "EstimateSummary", "posterior", "estimate",
    "saturation_curve",
    "SpinOperators", "SpinCoherentState", "TauInformation",
    "build_spin_operators", "spin_coherent_x", "evolve_unconditional",
    "evolve_conditional", "fisher_tau", "tau_information",
    "average_conditional", "two_field_trace", "ultimate_qfi_finiteJ",
    "__version__",
]
