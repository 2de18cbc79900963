"""Registry of generated embedded Runge-Kutta solver modules.

Generated by `forge generate`; do not edit by hand.
"""
from . import erk43b
from . import fehlberg45
from . import dprk546s
from . import dprk547s
from . import dopri5
from . import dverk65
from . import dprk658m
from . import fehlberg78b
from . import dopri8

METHODS = {
    "ERK43b": erk43b,
    "Fehlberg45": fehlberg45,
    "DPRK546S": dprk546s,
    "DPRK547S": dprk547s,
    "DOPRI5": dopri5,
    "DVERK65": dverk65,
    "DPRK658M": dprk658m,
    "Fehlberg78B": fehlberg78b,
    "DOPRI8": dopri8,
}
