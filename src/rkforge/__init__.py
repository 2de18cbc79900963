"""rkforge: a forge for embedded explicit Runge-Kutta solvers.

Method tables live as exact rational Butcher tableaus in a JSON file
(`rkforge.methods`), get validated in exact arithmetic, and are turned into
specialized solver modules (`rkforge.generated`) by a template renderer that
inlines every nonzero coefficient as a named scalar constant.  A generic
array-driven kernel, the step-size controller, and the integration drivers
live in `rkforge.stepcontrol`; the benchmark problems in `rkforge.problems`;
the `forge` command line in `rkforge.cli`.
"""
from importlib import resources

from .tableau import (
    ButcherTableau,
    ValidationReport,
    parse_method_file,
    render_coefficient_literal,
    validate_tableau,
)
from .stepcontrol import (
    ControllerParams,
    IntegrationOptions,
    ODEProblem,
    StepLog,
    Tolerances,
    Trajectory,
    adaptive_integrate,
    erk_step_generic,
    error_norm,
    fixed_integrate,
    integrate_info,
    interpreted_kernel,
    propose_step_size,
    rescale_rejected,
)

__all__ = [
    "ButcherTableau",
    "ValidationReport",
    "parse_method_file",
    "render_coefficient_literal",
    "validate_tableau",
    "ControllerParams",
    "IntegrationOptions",
    "ODEProblem",
    "StepLog",
    "Tolerances",
    "Trajectory",
    "adaptive_integrate",
    "erk_step_generic",
    "error_norm",
    "fixed_integrate",
    "integrate_info",
    "interpreted_kernel",
    "propose_step_size",
    "rescale_rejected",
    "shipped_method_path",
    "shipped_methods",
]

__version__ = "0.1.0"


def shipped_method_path():
    """Path of the method file the package ships."""
    return resources.files(__package__) / "methods" / "embedded_rk.json"


def shipped_methods():
    """Parse and return the shipped method tableaus."""
    return parse_method_file(shipped_method_path().read_bytes())
