import math
import re
import zlib

import numpy as np
import pytest

from rkforge.generated import dopri5, erk43b
from rkforge.problems import (
    ARENSTORF_PERIOD,
    RIGID_BODY_I1,
    RIGID_BODY_I2,
    RIGID_BODY_I3,
    VDP_MU,
    PROBLEM_NAMES,
    ArenstorfParams,
    SingularityError,
    arenstorf_hamiltonian,
    arenstorf_initials,
    arenstorf_rhs,
    benchmark_case,
    brusselator_rhs,
    closure_error,
    rigid_body_rhs,
    vdp_rhs,
)
from rkforge.stepcontrol import fixed_integrate, interpreted_kernel
from rkforge import shipped_methods


class TestRhsValues:
    def test_brusselator_worked_example(self):
        out = brusselator_rhs(0.0, np.array([1.5, 3.0]))
        assert out == pytest.approx([1.75, -2.25], abs=0.0)

    def test_rigid_body_worked_example(self):
        out = rigid_body_rhs(0.0, np.array([0.0, 1.0, 1.0]))
        assert out == pytest.approx([-2.0, 0.0, 0.0], abs=0.0)

    def test_vdp_worked_example(self):
        s3 = math.sqrt(3.0)
        out = vdp_rhs(0.0, np.array([0.0, s3]))
        assert out == pytest.approx([s3, s3], abs=0.0)


class TestArenstorf:
    def test_initial_groups(self):
        s1, p1, t1 = arenstorf_initials(1)
        assert s1[1] == -1.00758510637908238 and s1[2] == 0.994
        assert s1[0] == 0.0 and s1[3] == 0.0
        s2, _, _ = arenstorf_initials(2)
        assert s2[1] == -1.03773262955733680 and s2[2] == 0.994
        s3, _, t3 = arenstorf_initials(3)
        assert s3[1] == 0.15064248999999985 and s3[2] == 1.2
        assert p1.mu1 == 0.012277471 and p1.mu2 == 1.0 - 0.012277471
        assert t1 == ARENSTORF_PERIOD
        # groups 2 and 3 are different periodic orbits with their own periods
        _, _, t2 = arenstorf_initials(2)
        assert t2 == pytest.approx(11.124340337266085, abs=1e-12)
        assert t3 == pytest.approx(6.19216933131964, abs=1e-12)
        with pytest.raises(ValueError):
            arenstorf_initials(4)

    def test_group_mass_ratios(self):
        # groups 1 and 2 are Arenstorf's orbits; group 3 is the Earth-Moon
        # orbit, periodic only for mu1 = 1/82.45
        assert arenstorf_initials(1)[1].mu1 == 0.012277471
        assert arenstorf_initials(2)[1].mu1 == 0.012277471
        state, params, _ = arenstorf_initials(3)
        assert params.mu1 == 1 / 82.45
        sample = state + np.array([0.01, -0.02, 0.03, 0.04])
        want = arenstorf_rhs(0.0, sample, params)
        assert np.array_equal(benchmark_case("arenstorf:3").problem.rhs(0.0, sample), want)
        assert not np.array_equal(arenstorf_rhs(0.0, sample), want)

    def test_initial_r1(self):
        state, params, _ = arenstorf_initials(1)
        r1 = math.sqrt((state[2] - params.mu2) ** 2 + state[3] ** 2)
        assert r1 == pytest.approx(0.006277471, abs=1e-15)

    def test_hamiltonian_special_point(self):
        params = ArenstorfParams()
        state = np.array([0.0, 0.0, params.mu2 + 1.0, 0.0])
        h = arenstorf_hamiltonian(state, params)
        assert h == pytest.approx(-(params.mu1 + params.mu2 / 2.0), rel=1e-15)

    def test_hamiltonian_momentum_flip_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = rng.uniform(-2, 2, size=4)
            flipped = state * np.array([-1.0, -1.0, 1.0, 1.0])
            lhs = arenstorf_hamiltonian(flipped)
            cross = state[0] * state[3] - state[1] * state[2]
            assert lhs == pytest.approx(arenstorf_hamiltonian(state) - 2 * cross,
                                        rel=1e-12, abs=1e-12)

    def test_singularity_raises(self):
        params = ArenstorfParams()
        with pytest.raises(SingularityError):
            arenstorf_rhs(0.0, np.array([0.0, 0.0, params.mu2, 0.0]), params)
        with pytest.raises(SingularityError):
            arenstorf_hamiltonian(np.array([0.0, 0.0, -params.mu1, 0.0]), params)

    def test_rhs_matches_hamiltonian_gradient(self):
        # Hamilton's equations via central differences of H, 100 random states
        rng = np.random.default_rng(11)
        params = ArenstorfParams()
        eps = 1e-6
        checked = 0
        while checked < 100:
            state = rng.uniform(-1.8, 1.8, size=4)
            r1 = math.hypot(state[2] - params.mu2, state[3])
            r2 = math.hypot(state[2] + params.mu1, state[3])
            if min(r1, r2) < 1e-2:
                continue
            checked += 1

            def dh(i):
                up = state.copy()
                dn = state.copy()
                up[i] += eps
                dn[i] -= eps
                return (arenstorf_hamiltonian(up, params)
                        - arenstorf_hamiltonian(dn, params)) / (2 * eps)

            rhs = arenstorf_rhs(0.0, state, params)
            expect = np.array([-dh(2), -dh(3), dh(0), dh(1)])
            scale = np.maximum(np.abs(expect), 1.0)
            assert np.max(np.abs(rhs - expect) / scale) < 1e-6

    def test_closure_error(self):
        state = np.array([0.3, -1.2, 0.994, 0.0])
        assert closure_error(state, state) == 0.0
        end = state + np.array([5.0, 5.0, 3e-13, 4e-13])  # momenta excluded
        assert closure_error(end, state) == pytest.approx(5e-13, rel=1e-12)


# The rhs formulas evaluated on numpy scalars, as unpacking an array yields
# them: the float-path rhs must give the same bits.
def _vdp_on_numpy_scalars(y):
    x1, x2 = y
    return np.array([x2, VDP_MU * (1.0 - x1 * x1) * x2 - x1])


def _rigid_body_on_numpy_scalars(y):
    x1, x2, x3 = y
    return np.array([RIGID_BODY_I1 * x2 * x3, RIGID_BODY_I2 * x1 * x3,
                     RIGID_BODY_I3 * x1 * x2])


def _brusselator_on_numpy_scalars(y):
    x1, x2 = y
    return np.array([1.0 + x1 * x1 * x2 - 4.0 * x1, 3.0 * x1 - x1 * x1 * x2])


def _arenstorf_on_numpy_scalars(y, params):
    p_x, p_y, q_x, q_y = y
    r1 = math.sqrt((q_x - params.mu2) ** 2 + q_y ** 2)
    r2 = math.sqrt((q_x + params.mu1) ** 2 + q_y ** 2)
    r1c = r1 ** 3
    r2c = r2 ** 3
    df_dqx = -params.mu1 * (q_x - params.mu2) / r1c - params.mu2 * (q_x + params.mu1) / r2c
    df_dqy = -params.mu1 * q_y / r1c - params.mu2 * q_y / r2c
    return np.array([p_y + df_dqx, -p_x + df_dqy, p_x + q_y, p_y - q_x])


def _seeded_states(label: str, n: int, count: int = 3000):
    """Deterministic states with magnitudes 1e-3 to 1e2 and random signs."""
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    sign = rng.choice([-1.0, 1.0], size=(count, n))
    return sign * 10.0 ** rng.uniform(-3.0, 2.0, size=(count, n))


def _rhs_pairs():
    """(label, rhs under test, numpy-scalar reference, dimension), with the
    label as the test id."""
    pairs = []
    for name, rhs, ref, n in (("vdp", vdp_rhs, _vdp_on_numpy_scalars, 2),
                              ("rigid-body", rigid_body_rhs, _rigid_body_on_numpy_scalars, 3),
                              ("brusselator", brusselator_rhs,
                               _brusselator_on_numpy_scalars, 2)):
        pairs.append((name, rhs, ref, n))
        pairs.append((f"{name} case", benchmark_case(name).problem.rhs, ref, n))
    for group in (1, 2, 3):
        params = arenstorf_initials(group)[1]
        ref = lambda y, params=params: _arenstorf_on_numpy_scalars(y, params)
        pairs.append((f"arenstorf_rhs group {group}",
                      lambda t, y, params=params: arenstorf_rhs(t, y, params), ref, 4))
        pairs.append((f"arenstorf:{group} case",
                      benchmark_case(f"arenstorf:{group}").problem.rhs, ref, 4))
    return [pytest.param(*pair, id=pair[0]) for pair in pairs]


class TestFloatPathBitIdentity:
    @pytest.mark.parametrize("label, rhs, ref, n", _rhs_pairs())
    def test_same_bits_as_numpy_scalars(self, label, rhs, ref, n):
        for y in _seeded_states(label, n):
            got = rhs(0.0, y)
            want = ref(y)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == want.tobytes(), (y.tolist(), got, want)

    def test_default_params_are_group_1(self):
        params = arenstorf_initials(1)[1]
        for y in _seeded_states("default params", 4, count=200):
            assert arenstorf_rhs(0.0, y).tobytes() == \
                _arenstorf_on_numpy_scalars(y, params).tobytes()


class TestCollision:
    # the body of mass mu1 sits at q = (mu2, 0), the one of mass mu2 at
    # q = (-mu1, 0); each entry point must refuse a state on either
    @pytest.mark.parametrize("group", [1, 3])
    @pytest.mark.parametrize("body", ["mu1 body", "mu2 body"])
    def test_each_body_raises_everywhere(self, group, body):
        params = arenstorf_initials(group)[1]
        q_x = params.mu2 if body == "mu1 body" else -params.mu1
        state = np.array([0.3, -0.2, q_x, 0.0])
        case_rhs = benchmark_case(f"arenstorf:{group}").problem.rhs
        for call in (lambda: arenstorf_rhs(0.0, state, params),
                     lambda: case_rhs(0.0, state),
                     lambda: arenstorf_hamiltonian(state, params)):
            with pytest.raises(SingularityError, match="collision"):
                call()


class TestBenchmarkCases:
    def test_canonical_data(self):
        vdp = benchmark_case("vdp")
        assert vdp.y_0 == pytest.approx([0.0, math.sqrt(3.0)])
        assert (vdp.t_start, vdp.t_stop) == (0.0, 12.0)
        rb = benchmark_case("rigid-body")
        assert rb.y_0 == pytest.approx([0.0, 1.0, 1.0])
        br = benchmark_case("brusselator")
        assert br.y_0 == pytest.approx([1.5, 3.0]) and br.t_stop == 20.0
        ar = benchmark_case("arenstorf:3")
        assert ar.y_0[2] == 1.2 and ar.t_stop == pytest.approx(6.19216933131964)
        assert benchmark_case("arenstorf").t_stop == ARENSTORF_PERIOD
        assert benchmark_case("arenstorf").problem.name == "arenstorf:1"
        with pytest.raises(ValueError):
            benchmark_case("nonesuch")

    @pytest.mark.parametrize("name", ["vdp:banana", "rigid-body:x", "brusselator:",
                                      "arenstorf:", "arenstorf:01", "arenstorf: 2",
                                      "arenstorf:+3", "arenstorf:x", "arenstorf:4", "VDP"])
    def test_names_are_exact(self, name):
        with pytest.raises(ValueError, match=f"^unknown problem {re.escape(repr(name))}$"):
            benchmark_case(name)

    def test_names_and_fresh_initial_states(self):
        assert PROBLEM_NAMES == ("vdp", "rigid-body", "brusselator",
                                 "arenstorf:1", "arenstorf:2", "arenstorf:3")
        for name in PROBLEM_NAMES + ("arenstorf",):
            first, second = benchmark_case(name), benchmark_case(name)
            assert first.y_0 is not second.y_0
            first.y_0[:] = 7.0
            assert not np.array_equal(benchmark_case(name).y_0, first.y_0)
        for group in (1, 2, 3):
            assert arenstorf_initials(group)[0] is not arenstorf_initials(group)[0]

    def test_brusselator_stays_positive(self):
        case = benchmark_case("brusselator")
        traj = dopri5.DOPRI5(case.problem, 1e-8, 1e-8, case.y_0, 0.0, 20.0)
        assert np.all(traj.states > 0.0)


class TestRigidBodyInvariants:
    # For the torque-free Euler equations d(x_i^2)/dt = 2 I_i x1 x2 x3, so
    # Q_ij = x_i^2 / I_i - x_j^2 / I_j is conserved by the exact flow.  The
    # numerical drift of Q under a fixed-step method of order p must shrink
    # by about 2^p when the step is halved.
    @staticmethod
    def _drift(h):
        case = benchmark_case("rigid-body")
        kern = interpreted_kernel(
            next(t for t in shipped_methods() if t.name == "ERK43b"))
        traj = fixed_integrate(kern, case.problem, h, case.y_0, 0.0, 12.0)
        i = np.array([-2.0, 1.25, -0.5])
        q12 = traj.states[:, 0] ** 2 / i[0] - traj.states[:, 1] ** 2 / i[1]
        q13 = traj.states[:, 0] ** 2 / i[0] - traj.states[:, 2] ** 2 / i[2]
        return max(np.max(np.abs(q12 - q12[0])), np.max(np.abs(q13 - q13[0])))

    def test_drift_shrinks_at_order_p(self):
        d1, d2 = self._drift(0.02), self._drift(0.01)
        ratio = d1 / d2
        assert ratio > 2 ** 3.5, (d1, d2)

    def test_drift_small_at_millistep(self):
        assert self._drift(1e-3) / 1.0 < 1e-6


class TestClosureIntegration:
    def test_group1_closes_with_dopri5(self):
        case = benchmark_case("arenstorf:1")
        _, y_n = dopri5.DOPRI5_last(case.problem, 1e-12, 0.0, case.y_0,
                                    0.0, case.t_stop)
        assert closure_error(y_n, case.y_0) < 1e-6

    def test_erk43b_brusselator_rejections_near_transient(self):
        case = benchmark_case("brusselator")
        log = erk43b.ERK43b_info(case.problem, 1e-4, 1e-4, case.y_0, 0.0, 20.0)
        assert log.rejected_t.size >= 1
