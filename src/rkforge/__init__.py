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

from .tableau import parse_method_file, validate_tableau

__all__ = ["parse_method_file", "shipped_method_path", "shipped_methods", "validate_tableau"]

__version__ = "0.1.0"


def shipped_method_path():
    """Path of the method file the package ships."""
    return resources.files(__package__) / "methods" / "embedded_rk.json"


def shipped_methods():
    """Parse and return the shipped method tableaus."""
    return parse_method_file(shipped_method_path().read_bytes())
