"""Benchmark ODE systems: van der Pol, rigid body, Brusselator, Arenstorf.

The Arenstorf problem is the planar restricted three-body problem in synodic
(rotating) coordinates, formulated through its Hamiltonian; the state vector
is ordered (p_x, p_y, q_x, q_y).  Orbit closure after one period measures the
integrator's global error.

Each rhs takes the float array the drivers pass and computes on plain Python
floats (``y.tolist()``), which at these sizes beats numpy's per-scalar
dispatch; the results are bit-identical to the same expressions on numpy
scalars.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stepcontrol import ODEProblem

__all__ = [
    "ArenstorfParams",
    "SingularityError",
    "ARENSTORF_PERIOD",
    "vdp_rhs",
    "rigid_body_rhs",
    "brusselator_rhs",
    "arenstorf_rhs",
    "arenstorf_initials",
    "arenstorf_hamiltonian",
    "closure_error",
    "BenchmarkCase",
    "benchmark_case",
    "PROBLEM_NAMES",
]

# Small-body return time for the first Arenstorf initial-value group; the
# literal carries full precision and rounds to the nearest 64-bit float.
ARENSTORF_PERIOD = 17.065216560157962558

# The three initial-value groups describe three different periodic orbits,
# each with its own period.  Group 1 is the headline orbit and group 2 its
# companion from Hairer, Norsett, Wanner I, both for mu1 = 0.012277471.
# Group 3 is the Earth-Moon orbit of the standard restricted-three-body test
# data (MATLAB's orbitode), which is periodic only for mu1 = 1/82.45; with
# that mass ratio its 9-digit momentum closes to about 2e-10 under DOPRI5 at
# a_tol = 1e-12.
_GROUP_PERIODS = {
    1: ARENSTORF_PERIOD,
    2: 11.124340337266085135,
    3: 6.19216933131963970674,
}


class SingularityError(ValueError):
    """State coincides with one of the two massive bodies (collision)."""


# Nonlinearity coefficient of the van der Pol oscillator, and the inertia
# coefficients of the torque-free Euler equations.
VDP_MU = 1.0
RIGID_BODY_I1, RIGID_BODY_I2, RIGID_BODY_I3 = -2.0, 1.25, -0.5


@dataclass(frozen=True)
class ArenstorfParams:
    """Masses of the medium and large body; mu2 is defined as 1 - mu1."""

    mu1: float = 0.012277471

    def __post_init__(self):
        if not 0 < self.mu1 < 1:
            raise ValueError("need 0 < mu1 < 1")

    @property
    def mu2(self) -> float:
        return 1.0 - self.mu1


def vdp_rhs(t, y):
    x1, x2 = y.tolist()
    return np.array([x2, VDP_MU * (1.0 - x1 * x1) * x2 - x1])


def rigid_body_rhs(t, y):
    x1, x2, x3 = y.tolist()
    return np.array([RIGID_BODY_I1 * x2 * x3, RIGID_BODY_I2 * x1 * x3,
                     RIGID_BODY_I3 * x1 * x2])


def brusselator_rhs(t, y):
    x1, x2 = y.tolist()
    return np.array([1.0 + x1 * x1 * x2 - 4.0 * x1, 3.0 * x1 - x1 * x1 * x2])


def _radii(q_x, q_y, mu1, mu2):
    r1 = math.sqrt((q_x - mu2) ** 2 + q_y ** 2)
    r2 = math.sqrt((q_x + mu1) ** 2 + q_y ** 2)
    if r1 == 0.0 or r2 == 0.0:
        raise SingularityError(
            f"collision: state at a singular point (q = ({q_x}, {q_y}))")
    return r1, r2


def _arenstorf_field(params: ArenstorfParams):
    """arenstorf_rhs with mu1 and mu2 = 1 - mu1 bound once, as floats."""
    mu1 = float(params.mu1)
    mu2 = 1.0 - mu1

    def rhs(t, y):
        p_x, p_y, q_x, q_y = y.tolist()
        r1, r2 = _radii(q_x, q_y, mu1, mu2)
        r1c = r1 ** 3
        r2c = r2 ** 3
        df_dqx = -mu1 * (q_x - mu2) / r1c - mu2 * (q_x + mu1) / r2c
        df_dqy = -mu1 * q_y / r1c - mu2 * q_y / r2c
        return np.array([p_y + df_dqx, -p_x + df_dqy, p_x + q_y, p_y - q_x])

    return rhs


def arenstorf_rhs(t, y, params: ArenstorfParams = ArenstorfParams()):
    """Canonical equations of the synodic-frame Hamiltonian.

    dp_x/dt = +p_y + dF/dq_x, dp_y/dt = -p_x + dF/dq_y,
    dq_x/dt = p_x + q_y,      dq_y/dt = p_y - q_x,
    with F = mu1/r1 + mu2/r2.
    """
    return _arenstorf_field(params)(t, y)


def arenstorf_initials(group: int):
    """Initial state (p_x, p_y, q_x, q_y), parameters, and orbit period for
    one of the three stable-orbit initial-value groups."""
    if group == 1:
        state = np.array([0.0, -1.00758510637908238, 0.994, 0.0])
    elif group == 2:
        state = np.array([0.0, -1.03773262955733680, 0.994, 0.0])
    elif group == 3:
        state = np.array([0.0, 0.15064248999999985, 1.2, 0.0])
    else:
        raise ValueError(f"initial-value group must be 1, 2 or 3, got {group}")
    params = ArenstorfParams(mu1=1 / 82.45) if group == 3 else ArenstorfParams()
    return state, params, _GROUP_PERIODS[group]


def arenstorf_hamiltonian(state, params: ArenstorfParams = ArenstorfParams()) -> float:
    """H = (p_x^2 + p_y^2)/2 + p_x q_y - p_y q_x - F(q); conserved by the flow."""
    p_x, p_y, q_x, q_y = state
    r1, r2 = _radii(q_x, q_y, params.mu1, params.mu2)
    f_pot = params.mu1 / r1 + params.mu2 / r2
    return 0.5 * (p_x * p_x + p_y * p_y) + p_x * q_y - p_y * q_x - f_pot


def closure_error(traj_end, start) -> float:
    """Euclidean distance between start and end generalized coordinates only.

    Momenta are excluded: closure of the orbit is measured by how far the
    small body ends from its starting point.
    """
    end_q = np.asarray(traj_end, dtype=float)[2:4]
    start_q = np.asarray(start, dtype=float)[2:4]
    return float(np.linalg.norm(end_q - start_q))


@dataclass(frozen=True)
class BenchmarkCase:
    """A problem together with its canonical initial data and interval."""

    problem: ODEProblem
    y_0: np.ndarray
    t_start: float
    t_stop: float


def benchmark_case(name: str) -> BenchmarkCase:
    """Benchmark problem by CLI name: vdp, rigid-body, brusselator,
    arenstorf:1|2|3 (bare "arenstorf" means group 1)."""
    base, _, tail = name.partition(":")
    if base == "vdp":
        return BenchmarkCase(
            problem=ODEProblem(2, vdp_rhs, "vdp"),
            y_0=np.array([0.0, math.sqrt(3.0)]), t_start=0.0, t_stop=12.0)
    if base == "rigid-body":
        return BenchmarkCase(
            problem=ODEProblem(3, rigid_body_rhs, "rigid-body"),
            y_0=np.array([0.0, 1.0, 1.0]), t_start=0.0, t_stop=12.0)
    if base == "brusselator":
        return BenchmarkCase(
            problem=ODEProblem(2, brusselator_rhs, "brusselator"),
            y_0=np.array([1.5, 3.0]), t_start=0.0, t_stop=20.0)
    if base == "arenstorf":
        group = int(tail) if tail else 1
        state, params, period = arenstorf_initials(group)
        return BenchmarkCase(
            problem=ODEProblem(4, _arenstorf_field(params), f"arenstorf:{group}"),
            y_0=state, t_start=0.0, t_stop=period)
    raise ValueError(f"unknown problem {name!r}")


PROBLEM_NAMES = ("vdp", "rigid-body", "brusselator",
                 "arenstorf:1", "arenstorf:2", "arenstorf:3")
