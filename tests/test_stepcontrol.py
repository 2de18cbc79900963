import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from rkforge import shipped_methods
from rkforge.stepcontrol import (
    ArgumentError,
    ControllerParams,
    DivergenceError,
    IntegrationOptions,
    MaxStepsExceeded,
    ODEProblem,
    StepKernel,
    StepSizeUnderflow,
    WIDE_N,
    Tolerances,
    adaptive_integrate,
    erk_step_generic,
    error_norm,
    fixed_integrate,
    integrate_info,
    interpreted_kernel,
    propose_step_size,
    rescale_rejected,
)
from test_tableau import sample_tableau

TABLEAUS = {t.name: t for t in shipped_methods()}


def kernel(name):
    return interpreted_kernel(TABLEAUS[name])


class TestGenericStep:
    def test_three_stage_worked_example(self):
        # y' = y, t=0, y=1, h=0.1 on the sample pair
        t = sample_tableau()
        prob = ODEProblem(1, lambda tt, yy: yy, "exp")
        y_next, y_hat, k = erk_step_generic(t, prob, 0.0, np.array([1.0]), 0.1)
        assert k[:, 0] == pytest.approx([1.0, 1.1, 1.0525], abs=0.0)
        assert y_next[0] == pytest.approx(1.105, abs=1e-15)
        assert y_hat[0] == pytest.approx(1.1051666666666666, abs=1e-15)

    def test_identical_weight_rows_agree(self):
        t = sample_tableau()
        twin = type(t)(name="twin", description="", s=t.s, p=t.p, p_hat=t.p,
                       a=t.a, b=t.b, b_hat=t.b, c=t.c)
        prob = ODEProblem(2, lambda tt, yy: np.array([yy[1], -yy[0]]), "osc")
        y_next, y_hat, _ = erk_step_generic(twin, prob, 0.3, np.array([1.0, 2.0]), 0.05)
        assert np.array_equal(y_next, y_hat)

    def test_zero_rhs(self):
        t = sample_tableau()
        prob = ODEProblem(2, lambda tt, yy: np.zeros(2), "null")
        y0 = np.array([3.0, -1.0])
        y_next, y_hat, k = erk_step_generic(t, prob, 0.0, y0, 0.5)
        assert np.array_equal(y_next, y0) and np.array_equal(y_hat, y0)
        assert not k.any()

    def test_h_zero_rejected(self):
        t = sample_tableau()
        prob = ODEProblem(1, lambda tt, yy: yy, "exp")
        with pytest.raises(ArgumentError):
            erk_step_generic(t, prob, 0.0, np.array([1.0]), 0.0)

    def test_wrong_rhs_length(self):
        t = sample_tableau()
        prob = ODEProblem(2, lambda tt, yy: np.zeros(3), "bad")
        with pytest.raises(ValueError, match="shape"):
            erk_step_generic(t, prob, 0.0, np.zeros(2), 0.1)


class TestErrorNorm:
    def test_zero_difference(self):
        assert error_norm([1.0], [1.0], Tolerances(1e-6, 1e-6)) == 0.0

    def test_absolute_scale_worked_example(self):
        e = error_norm([1.0], [1.0001], Tolerances(1e-4, 0.0))
        assert e == pytest.approx(1.0, rel=1e-12)

    def test_rms_worked_example(self):
        # per-component scaled differences 0.3 and 0.4
        tol = Tolerances(1.0, 0.0)
        e = error_norm([0.3, 0.4], [0.0, 0.0], tol)
        assert e == pytest.approx(math.sqrt(0.125), rel=1e-14)

    def test_scale_positivity(self):
        tol = Tolerances(1e-8, 1e-3)
        y = np.zeros(4)
        assert error_norm(y, y + 1e-9, tol) < 1.0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = rng.standard_normal(6)
            y_hat = y + rng.standard_normal(6) * 1e-5
            lam = 10.0 ** rng.uniform(-3, 3)
            e1 = error_norm(y, y_hat, Tolerances(1e-7, 1e-4))
            e2 = error_norm(lam * y, lam * y_hat, Tolerances(lam * 1e-7, 1e-4))
            assert e2 == pytest.approx(e1, rel=1e-14)

    def test_degenerate_zero_scale(self):
        # a_tol = 0 with an identically zero component: that component's zero
        # scale contributes nothing instead of dividing by zero
        tol = Tolerances(0.0, 1e-6)
        e = error_norm([0.0, 1.0], [0.0, 1.0 + 1e-8], tol)
        assert math.isfinite(e) and e > 0.0

    def test_nonfinite_difference_forces_rejection(self):
        tol = Tolerances(1e-6, 0.0)
        assert error_norm([math.inf, 1.0], [0.0, 1.0], tol) == math.inf
        assert error_norm([math.nan, 1.0], [0.0, 1.0], tol) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_norm([1.0, 2.0], [1.0], Tolerances(1e-6, 0.0))

    @staticmethod
    def array_formula(y, y_hat, tol):
        """The norm as whole-array numpy operations, an oracle written apart
        from error_norm."""
        diff = y - y_hat
        if not np.all(np.isfinite(diff)):
            return math.inf
        sc = tol.a_tol + np.maximum(np.abs(y), np.abs(y_hat)) * tol.r_tol
        zero = sc == 0.0
        if np.any(diff[zero] != 0.0):
            return math.inf
        sc[zero] = 1.0
        return math.sqrt(float(np.mean((diff / sc) ** 2)))

    @pytest.mark.parametrize("n", range(1, WIDE_N + 2))
    def test_bit_identical_to_array_formula(self, n):
        # arrays and lists of 8 floats or more take the array path; shorter
        # lists the float loop, one running sum as numpy's below its pairwise
        # block of 8 (from 8 components on the two orders differ in the last
        # bits)
        seed = zlib.crc32(f"error_norm {n}".encode())
        rng = np.random.default_rng(seed)
        kinds = ("mixed", "r_tol = 0", "zero scale", "nonfinite")
        finite = 0
        for trial in range(400):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
            y_hat = y * (1.0 + rng.standard_normal(n) * 10.0 ** rng.uniform(-16, 0, n))
            a_tol, r_tol = 10.0 ** rng.uniform(-14, -2, 2)
            kind = kinds[trial % 4]
            if kind == "r_tol = 0":
                r_tol = 0.0
            elif kind == "zero scale":
                # zero components at a_tol = 0; a subnormal difference whose
                # scale underflows to 0 must give inf
                a_tol = 0.0
                zeros = rng.random(n) < 0.5
                y[zeros] = y_hat[zeros] = 0.0
                if rng.random() < 0.3:
                    y_hat[rng.integers(n)] = 5e-324
            elif kind == "nonfinite":
                which = y if rng.random() < 0.5 else y_hat
                which[rng.integers(n)] = rng.choice([math.inf, -math.inf, math.nan])
            tol = Tolerances(a_tol, r_tol)
            got = error_norm(y, y_hat, tol)
            assert got == self.array_formula(y, y_hat, tol), (seed, trial, kind)
            if n <= WIDE_N:
                assert error_norm(y.tolist(), y_hat.tolist(), tol) == got, (seed, trial, kind)
            finite += math.isfinite(got)
        # the inf cases are a minority: most compare two finite sums
        assert finite >= 200


class TestController:
    def test_recommended_exponents(self):
        cp = ControllerParams.for_order(4)
        assert cp.beta_exp == pytest.approx(0.1, rel=1e-15)
        assert cp.alpha_exp == pytest.approx(0.1, rel=1e-15)
        cp8 = ControllerParams.for_order(8)
        assert cp8.beta_exp == pytest.approx(0.05, rel=1e-15)
        assert cp8.alpha_exp == pytest.approx(0.7 / 8 - 0.75 * 0.05, rel=1e-15)

    def test_propose_worked_values(self):
        cp = ControllerParams.for_order(4)
        assert propose_step_size(0.1, 1.0, 1.0, cp) == pytest.approx(0.09, rel=1e-12)
        assert propose_step_size(0.1, 0.0, 1.0, cp) == pytest.approx(1.0, rel=1e-12)
        expected = 0.1 / (0.5 ** 0.1 / 0.9)
        assert propose_step_size(0.1, 0.5, 1.0, cp) == pytest.approx(expected, rel=1e-12)

    def test_rescale_worked_values(self):
        cp = ControllerParams.for_order(4)
        assert rescale_rejected(0.1, 2.0, cp) == pytest.approx(
            0.1 / (2.0 ** 0.1 / 0.9), rel=1e-12)
        assert rescale_rejected(0.1, 1e12, cp) == pytest.approx(0.1 / 5.0, rel=1e-12)
        cp8 = ControllerParams(f_s=0.8, f_min=0.1, f_max=5.0,
                               alpha_exp=0.1, beta_exp=0.1)
        assert rescale_rejected(0.1, 2.0, cp8) == pytest.approx(
            0.1 / (2.0 ** 0.1 / 0.8), rel=1e-12)

    def test_monotone_in_error(self):
        cp = ControllerParams.for_order(5)
        hs = [propose_step_size(0.1, e, 0.7, cp)
              for e in np.linspace(0.0, 3.0, 40)]
        assert all(a >= b - 1e-18 for a, b in zip(hs, hs[1:]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ControllerParams(f_s=1.2, alpha_exp=0.1, beta_exp=0.1)
        with pytest.raises(ValueError):
            ControllerParams(f_min=2.0, alpha_exp=0.1, beta_exp=0.1)
        with pytest.raises(ArgumentError):
            Tolerances(0.0, 0.0)
        with pytest.raises(ArgumentError):
            Tolerances(-1e-6, 1e-6)


class TestAdaptiveIntegrate:
    def test_constant_solution_exact(self):
        prob = ODEProblem(2, lambda t, y: np.zeros(2), "null")
        y0 = np.array([2.5, -1.0])
        traj = adaptive_integrate(kernel("DOPRI5"), prob, Tolerances(1e-8, 1e-8),
                                  y0, 0.0, 3.0)
        assert traj.times[0] == 0.0 and traj.times[-1] == 3.0
        assert np.array_equal(traj.states[-1], y0)
        log = integrate_info(kernel("DOPRI5"), prob, Tolerances(1e-8, 1e-8),
                             y0, 0.0, 3.0)
        assert log.rejected_t.size == 0
        assert not log.errors.any()

    def test_exponential_oracle(self):
        t_n, y_n = adaptive_integrate(
            kernel("DOPRI5"), lambda t, y: y, Tolerances(1e-10, 1e-10),
            np.array([1.0]), 0.0, 1.0, last=True)
        assert t_n == 1.0
        assert abs(y_n[0] - math.e) < 1e-8

    def test_trajectory_grid_contract(self):
        traj = adaptive_integrate(
            kernel("ERK43b"), lambda t, y: -y, Tolerances(1e-6, 1e-6),
            np.array([1.0]), 0.5, 4.0)
        assert traj.times[0] == 0.5 and traj.times[-1] == 4.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.states.shape == (traj.times.size, 1)

    def test_steplog_invariants(self):
        from rkforge.problems import benchmark_case
        case = benchmark_case("brusselator")
        log = integrate_info(kernel("ERK43b"), case.problem,
                             Tolerances(1e-4, 1e-4), case.y_0, 0.0, 20.0)
        assert log.accepted_t.size == log.accepted_h.size == log.errors.size
        assert log.rejected_t.size == log.rejected_h.size
        assert np.all(log.accepted_h > 0) and np.all(log.rejected_h > 0)
        assert np.all(log.errors <= 1.0)
        assert log.rejected_t.size >= 1
        span = log.accepted_h.sum()
        assert abs(span - 20.0) <= 1e-12 * 20.0

    def test_max_steps_guard(self):
        opts = IntegrationOptions(max_steps=5)
        with pytest.raises(MaxStepsExceeded) as exc:
            adaptive_integrate(kernel("DOPRI5"), lambda t, y: y,
                               Tolerances(1e-12, 1e-12), np.array([1.0]),
                               0.0, 100.0, options=opts)
        assert exc.value.log is not None
        assert exc.value.log.accepted_t.size <= 5

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_partial_log_holds_every_attempt(self, n):
        # the arenstorf orbit at a tight tolerance rejects steps as well as
        # accepting them, so both halves of the log are filled
        from rkforge.problems import benchmark_case
        case = benchmark_case("arenstorf:1")
        with pytest.raises(MaxStepsExceeded) as exc:
            integrate_info(kernel("DOPRI5"), case.problem, Tolerances(1e-13, 0.0),
                           case.y_0, case.t_start, case.t_stop,
                           options=IntegrationOptions(max_steps=n))
        log = exc.value.log
        assert log.accepted_t.size + log.rejected_t.size == n
        assert log.errors.size == log.accepted_t.size

    def test_failures_name_t_h_and_attempts(self):
        from rkforge.problems import benchmark_case
        case = benchmark_case("arenstorf:1")
        with pytest.raises(MaxStepsExceeded) as exc:
            integrate_info(kernel("DOPRI5"), case.problem, Tolerances(1e-13, 0.0),
                           case.y_0, case.t_start, case.t_stop,
                           options=IntegrationOptions(max_steps=20))
        log = exc.value.log
        t, h = re.fullmatch(r"no convergence within 20 step attempts "
                            r"\(reached t = (\S+), last h = (\S+)\)", str(exc.value)).groups()
        assert float(t) == exc.value.t
        assert float(h) in (log.accepted_h[-1], log.rejected_h[-1])

        # every step that crosses t = 0.5 meets a NaN and is rejected, so h
        # shrinks until it falls below the floor h_min
        def rhs(t, y):
            return np.array([math.nan if t > 0.5 else 1.0])
        with pytest.raises(StepSizeUnderflow) as exc:
            integrate_info(kernel("DOPRI5"), rhs, Tolerances(1e-8, 1e-8), np.array([0.0]),
                           0.0, 1.0)
        log = exc.value.log
        attempts = log.accepted_t.size + log.rejected_t.size
        assert log.rejected_t.size > 0
        assert str(exc.value).endswith(f"at t = {exc.value.t} after {attempts} step attempts")

    def test_underflow_guard_on_unresolvable_problem(self):
        # discontinuous rhs forces endless rejections at the jump
        def rhs(t, y):
            return np.array([1.0 if t < 0.5 else 1e12])
        with pytest.raises(StepSizeUnderflow):
            adaptive_integrate(kernel("DOPRI5"), rhs, Tolerances(1e-12, 1e-12),
                               np.array([0.0]), 0.0, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_trial_steps_recover_or_underflow(self):
        # rhs overflows for large y: big trial steps must be rejected, not fatal
        def rhs(t, y):
            return y * y
        with pytest.raises((StepSizeUnderflow, MaxStepsExceeded, DivergenceError)):
            # solution of y' = y^2, y(0)=1 blows up at t=1: no tolerance can
            # integrate through it
            adaptive_integrate(kernel("DOPRI5"), rhs, Tolerances(1e-8, 1e-8),
                               np.array([1.0]), 0.0, 2.0,
                               options=IntegrationOptions(max_steps=20000))

    def test_bad_interval(self):
        with pytest.raises(ArgumentError):
            adaptive_integrate(kernel("DOPRI5"), lambda t, y: y,
                               Tolerances(1e-8, 1e-8), np.array([1.0]), 1.0, 1.0)


class TestFixedIntegrate:
    @pytest.mark.parametrize("h, t_start, t_stop, points", [
        (0.01, 0.0, 12.0, 1201),
        # the span over h is 100.0000083, but step 100 already ends at t_stop;
        # a run that went on to a step 101 would repeat t_stop
        (1e-11, 1.0, 1.0 + 1e-9, 101),
    ])
    def test_point_count(self, h, t_start, t_stop, points):
        prob = ODEProblem(1, lambda t, y: np.zeros(1), "null")
        traj = fixed_integrate(kernel("ERK43b"), prob, h, np.array([1.0]),
                               t_start, t_stop)
        assert traj.times.size == points
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == t_stop and np.count_nonzero(traj.times == t_stop) == 1
        assert np.all(traj.states == 1.0)

    @pytest.mark.parametrize("last", [False, True])
    def test_single_step_below_the_floor_ends_at_t_stop(self, last):
        # the span is below h_min, about 2.2e-12, and t_start + span rounds
        # below t_stop; a run of one step is taken all the same
        t_start, t_stop = -7.661368727868479e-13, 2.625183354820275e-13
        assert t_start + (t_stop - t_start) < t_stop
        f = CountingRhs()
        out = fixed_integrate(kernel("DOPRI5"), f, 1.0, np.array([1.0]), t_start, t_stop,
                              last=last)
        if last:
            assert out[0] == t_stop
        else:
            assert out.times.tolist() == [t_start, t_stop]
        assert f.calls == 7

    def test_truncated_final_step(self):
        prob = ODEProblem(1, lambda t, y: np.zeros(1), "null")
        traj = fixed_integrate(kernel("ERK43b"), prob, 0.3, np.array([1.0]),
                               0.0, 1.0)
        assert traj.times.size == 5  # 0, .3, .6, .9, 1.0
        assert traj.times[-1] == 1.0

    def test_order_four_halving(self):
        errs = []
        for h in (0.1, 0.05):
            _, y = fixed_integrate(kernel("ERK43b"), lambda t, y: y, h,
                                   np.array([1.0]), 0.0, 1.0, last=True)
            errs.append(abs(y[0] - math.e))
        ratio = errs[0] / errs[1]
        assert 2 ** 3.5 < ratio < 2 ** 4.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_error(self):
        def rhs(t, y):
            return y * y
        with pytest.raises(DivergenceError):
            fixed_integrate(kernel("DOPRI5"), rhs, 0.5, np.array([4.0]), 0.0, 50.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, WIDE_N, WIDE_N + 1, 40])
    def test_divergence_error_carries_the_last_finite_state(self, n):
        # y' = y^2 blows up at t = 1 / max(y_0); the message names the time
        # before the failing step, and so do t and y
        from rkforge.generated import dopri5
        y_0 = np.linspace(1.0, 2.0, n) if n > 1 else np.array([1.0])
        h = 0.5 if n == 1 else 0.05
        with pytest.raises(DivergenceError) as info:
            fixed_integrate(dopri5.KERNEL, lambda t, y: y * y, h, y_0, 0.0, 10.0)
        exc = info.value
        assert str(exc) == f"non-finite state produced at t = {exc.t}"
        assert exc.t > 0.0 and np.all(np.isfinite(exc.y))
        t, y = fixed_integrate(dopri5.KERNEL, lambda t, y: y * y, h, y_0, 0.0, exc.t,
                               last=True)
        assert t == exc.t and y.tobytes() == exc.y.tobytes()

    @pytest.mark.parametrize("n", [1, WIDE_N, WIDE_N + 1, 1000])
    def test_divergence_check_sees_every_component(self, n):
        # a kernel that steps y + h and puts one non-finite value at one
        # position of one step; the grid is 0, .3, .6, .9 and a truncated 1.0
        clean = fixed_integrate(injecting_kernel(), lambda t, y: y, 0.3, np.zeros(n),
                                0.0, 1.0)
        assert clean.times.size == 5
        for bad in (math.nan, math.inf, -math.inf):
            for step in (0, 2, 3):  # the first, a middle and the truncated last
                for position in range(n):
                    with pytest.raises(DivergenceError) as info:
                        fixed_integrate(injecting_kernel(step, position, bad), lambda t, y: y,
                                        0.3, np.zeros(n), 0.0, 1.0)
                    exc = info.value
                    assert exc.t == clean.times[step]
                    assert exc.y.tobytes() == clean.states[step].tobytes()

    @pytest.mark.parametrize("h", [1e-300, 5e-324])
    @pytest.mark.parametrize("last", [False, True])
    def test_step_cap_refuses_before_first_rhs_call(self, h, last):
        # 12 / 5e-324 is inf; without the cap these runs would not end
        from rkforge.generated import dopri5
        runs = [
            lambda f: fixed_integrate(kernel("DOPRI5"), f, h, np.array([1.0]), 0.0, 12.0,
                                      last=last),
            lambda f: (dopri5.DOPRI5_fixed_last if last else dopri5.DOPRI5_fixed)(
                f, h, np.array([1.0]), 0.0, 12.0),
        ]
        for run in runs:
            f = CountingRhs()
            with pytest.raises(ArgumentError, match="more than max_steps"):
                run(f)
            assert f.calls == 0

    @pytest.mark.parametrize("h, max_steps", [(0.01, 1200), (0.011999999999988001, 1000)])
    def test_run_of_exactly_max_steps(self, h, max_steps):
        # 12 / h is 1200.0 and 1000.000000001; one step fewer is refused
        f = CountingRhs()
        with pytest.raises(ArgumentError, match="more than max_steps"):
            fixed_integrate(kernel("ERK43b"), f, h, np.array([1.0]), 0.0, 12.0,
                            options=IntegrationOptions(max_steps=max_steps - 1))
        traj = fixed_integrate(kernel("ERK43b"), f, h, np.array([1.0]), 0.0, 12.0,
                               options=IntegrationOptions(max_steps=max_steps))
        assert traj.times.size == max_steps + 1 and traj.times[-1] == 12.0
        # ERK43b is first same as last: every step after the first reuses one
        assert f.calls == 4 * max_steps + 1

    @pytest.mark.parametrize("last", [False, True])
    def test_h0_refused_before_first_rhs_call(self, last):
        # h0 sets only the first adaptive step; a fixed run has no use for it
        f = CountingRhs()
        with pytest.raises(ArgumentError, match="h0 applies only to adaptive runs"):
            fixed_integrate(kernel("DOPRI5"), f, 0.1, np.array([1.0]), 0.0, 1.0,
                            last=last, options=IntegrationOptions(h0=0.1))
        assert f.calls == 0

    @pytest.mark.parametrize("t_stop", [1, np.float64(1.0), 1.0],
                             ids=["int", "float64", "float"])
    def test_last_returns_a_float_time(self, t_stop):
        # as adaptive_integrate(last=True) does, whatever type t_stop has
        from rkforge.generated import dopri5
        for t, _ in (
                dopri5.DOPRI5_fixed_last(lambda t, y: y, 0.1, np.array([1.0]), 0, t_stop),
                fixed_integrate(kernel("ERK43b"), lambda t, y: y, 0.3, np.array([1.0]),
                                0, t_stop, last=True)):
            assert type(t) is float and t == 1.0

    def test_last_holds_constant_memory(self):
        # a last run keeps no record per step, so its memory does not grow
        # with the step count: 2e5 steps of a marked no-op kernel
        def step(f, t, y, h, reuse=None):
            return y, y

        step.lists = True
        noop = StepKernel(name="noop", order=1, stages=1, step=step)
        tracemalloc.start()
        try:
            t, _ = fixed_integrate(noop, lambda t, y: y, 1 / 200_000, np.ones(2), 0.0, 1.0,
                                   last=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == 1.0
        assert peak < 1_000_000


def injecting_kernel(step=None, position=0, value=math.nan) -> StepKernel:
    """A kernel that steps y + h and writes ``value`` at ``position`` of the
    state that step number ``step`` (counted from 0) returns."""
    calls = []

    def step_fn(f, t, y, h, reuse=None):
        y_next = y + h
        if len(calls) == step:
            y_next[position] = value
        calls.append(t)
        return y_next, y_next

    return StepKernel(name="inject", order=1, stages=1, step=step_fn)


def test_both_drivers_accept_a_kernel_that_returns_lists():
    # the drivers coerce what a kernel returns; a kernel that hands back
    # lists gives the same run as the array kernel it wraps, and float arrays
    # at the API boundary
    dopri5 = kernel("DOPRI5")

    def step_fn(f, t, y, h, reuse=None):
        y_next, y_hat_next = dopri5.step(f, t, np.asarray(y), h, reuse)
        return y_next.tolist(), y_hat_next.tolist()

    lists = StepKernel(name="lists", order=5, stages=7, step=step_fn)
    rhs = lambda t, y: np.array([y[1], -y[0]])
    y_0 = np.array([1.0, 0.0])
    tol = Tolerances(r_tol=1e-6, a_tol=1e-9)
    for run in (lambda k, **kw: fixed_integrate(k, rhs, 0.1, y_0, 0.0, 1.0, **kw),
                lambda k, **kw: adaptive_integrate(k, rhs, tol, y_0, 0.0, 1.0, **kw)):
        want, got = run(dopri5), run(lists)
        assert want.times.tobytes() == got.times.tobytes()
        assert want.states.tobytes() == got.states.tobytes()
        assert got.states.dtype == np.float64 and got.states.shape[1:] == (2,)
        (t_want, y_want), (t_got, y_got) = run(dopri5, last=True), run(lists, last=True)
        assert type(y_got) is np.ndarray and y_got.dtype == np.float64 and y_got.shape == (2,)
        assert t_want == t_got and y_got.tobytes() == y_want.tobytes()


def test_problem_dimension_must_match_initial_state():
    # a 3-dimensional problem started from a 2-vector would silently drop a
    # component; both drivers and the reference step refuse it before the
    # first rhs call
    prob = ODEProblem(3, lambda t, y: -y, "decay")
    y_0 = np.array([1.0, 2.0])
    runs = [
        lambda: adaptive_integrate(kernel("DOPRI5"), prob, Tolerances(1e-6, 1e-6),
                                   y_0, 0.0, 1.0),
        lambda: integrate_info(kernel("DOPRI5"), prob, Tolerances(1e-6, 1e-6),
                               y_0, 0.0, 1.0),
        lambda: fixed_integrate(kernel("DOPRI5"), prob, 0.1, y_0, 0.0, 1.0),
        lambda: erk_step_generic(TABLEAUS["DOPRI5"], prob, 0.0, y_0, 0.1),
    ]
    for run in runs:
        with pytest.raises(ArgumentError, match="dimension 3, but y_0 has 2"):
            run()


@pytest.mark.parametrize("kwargs", [
    {"h0": 0.0}, {"h0": -0.1}, {"h0": math.nan},
    {"max_steps": 0}, {"max_steps": -3},
])
def test_integration_options_validate_when_built(kwargs):
    with pytest.raises(ArgumentError):
        IntegrationOptions(**kwargs)


@pytest.mark.parametrize("max_steps", [2.5, 3.0, True, False, math.inf, math.nan, "5",
                                       np.float64(5.0), np.bool_(True)])
def test_max_steps_must_be_an_integer(max_steps):
    with pytest.raises(ArgumentError, match="max_steps must be an integer"):
        IntegrationOptions(max_steps=max_steps)


@pytest.mark.parametrize("h0", [True, False, np.bool_(True), "0.1", [0.1], 1j])
def test_h0_must_be_a_real_number(h0):
    with pytest.raises(ArgumentError, match="h0 must be a positive number"):
        IntegrationOptions(h0=h0)


@pytest.mark.parametrize("a_tol, r_tol", [
    (True, 0.0), (0.0, True), (np.bool_(True), 0.0), ("1e-6", 1e-6), (1e-6, "1e-6"),
    (1e-6, None), (None, 1e-6), (1e-6, 1j), (math.nan, 1e-6),
    (math.inf, 0.0), (0.0, math.inf), (1e-6, math.inf),
])
def test_tolerances_must_be_real_numbers(a_tol, r_tol):
    with pytest.raises(ArgumentError, match="tolerances must be nonnegative numbers"):
        Tolerances(a_tol, r_tol)


@pytest.mark.parametrize("value", [1e-6, 1, np.float64(1e-6), np.float32(1e-6),
                                   np.int64(1), np.uint8(1)])
def test_python_and_numpy_reals_are_taken(value):
    Tolerances(value, value)
    Tolerances(value, 0.0)
    t_n, _ = adaptive_integrate(kernel("DOPRI5"), lambda t, y: -y, Tolerances(value, 0.0),
                                np.array([1.0]), 0.0, 1.0, last=True,
                                options=IntegrationOptions(h0=value))
    assert t_n == 1.0


@pytest.mark.parametrize("max_steps", [1, 20, np.int64(20), np.int32(20), np.uint8(20)])
def test_integer_max_steps_are_taken(max_steps):
    opts = IntegrationOptions(max_steps=max_steps)
    with pytest.raises(MaxStepsExceeded, match=f"^no convergence within {max_steps} step"):
        adaptive_integrate(kernel("DOPRI5"), lambda t, y: y, Tolerances(1e-12, 1e-12),
                           np.array([1.0]), 0.0, 10.0, options=opts)


class CountingRhs:
    """y' = -y, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, t, y):
        self.calls += 1
        return -y


TOL = Tolerances(1e-6, 1e-6)
DRIVERS = {
    "adaptive": lambda k, f, y_0, t0, t1, **kw: adaptive_integrate(k, f, TOL, y_0, t0, t1,
                                                                   **kw),
    "adaptive_last": lambda k, f, y_0, t0, t1, **kw: adaptive_integrate(k, f, TOL, y_0, t0, t1,
                                                                        last=True, **kw),
    "integrate_info": lambda k, f, y_0, t0, t1, **kw: integrate_info(k, f, TOL, y_0, t0, t1,
                                                                     **kw),
    "fixed": lambda k, f, y_0, t0, t1, h=0.1: fixed_integrate(k, f, h, y_0, t0, t1),
    "fixed_last": lambda k, f, y_0, t0, t1, h=0.1: fixed_integrate(k, f, h, y_0, t0, t1,
                                                                   last=True),
}


def first_step(driver, h):
    """The keywords that make h the first step of DRIVERS[driver]."""
    return {"h": h} if driver.startswith("fixed") else {"options": IntegrationOptions(h0=h)}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("t_start, t_stop", [
    (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf),
    (-math.inf, math.inf),
])
def test_entry_check_refuses_nonfinite_interval(driver, t_start, t_stop):
    f = CountingRhs()
    with pytest.raises(ArgumentError, match="finite t_start < t_stop"):
        DRIVERS[driver](kernel("DOPRI5"), f, np.array([1.0]), t_start, t_stop)
    assert f.calls == 0


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_first_step_below_the_floor_is_refused(driver):
    # h_min is 1e4 * eps * max(|t_start|, |t_stop|, 1): about 2.2e-12 on
    # [0, 1], and 2.2e-6 on [1e6, 1e6 + 1e-9], where 1e6 + 5e-11 rounds to 1e6
    f = CountingRhs()
    run, y_0 = DRIVERS[driver], np.array([1.0])
    with pytest.raises(ArgumentError, match="initial step size 5e-11 is below h_min"):
        run(kernel("DOPRI5"), f, y_0, 1e6, 1e6 + 1e-9, **first_step(driver, 5e-11))
    if not driver.startswith("fixed"):  # for a fixed run, max_steps refuses it first
        with pytest.raises(ArgumentError, match="initial step size 1e-300 is below h_min"):
            run(kernel("DOPRI5"), f, y_0, 0.0, 1.0, **first_step(driver, 1e-300))
    assert f.calls == 0
    # a first step below the floor that reaches t_stop is taken, and is the
    # only one: DOPRI5 calls f seven times
    run(kernel("DOPRI5"), f, y_0, 1e6, 1e6 + 1e-9, **first_step(driver, 1e-9))
    assert f.calls == 7
    run(kernel("DOPRI5"), f, y_0, 0.0, 1e-12, **first_step(driver, 1.0))
    assert f.calls == 14
    # so is one of h >= t_stop - t_start where t_start + (t_stop - t_start)
    # rounds below t_stop: it ends at t_stop all the same
    t_start, t_stop = -7.661368727868479e-13, 2.625183354820275e-13
    assert t_start + (t_stop - t_start) < t_stop
    run(kernel("DOPRI5"), f, y_0, t_start, t_stop, **first_step(driver, 1.0))
    assert f.calls == 21


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_entry_check_refuses_nan_state_and_step():
    f = CountingRhs()
    runs = [
        (lambda: fixed_integrate(kernel("DOPRI5"), f, 0.1, np.array([math.nan]), 0.0, 1.0),
         "initial state must be finite"),
        (lambda: fixed_integrate(kernel("DOPRI5"), f, math.nan, np.array([1.0]), 0.0, 1.0),
         "step size must be positive"),
        (lambda: erk_step_generic(TABLEAUS["DOPRI5"], f, 0.0, np.array([1.0]), math.nan),
         "finite t_start < t_stop"),
    ]
    # an empty, a matrix and a scalar state, refused by every entry
    for y_0 in ([], [[1.0, 2.0], [3.0, 4.0]], 3.0):
        runs += [
            (lambda y_0=y_0: fixed_integrate(kernel("DOPRI5"), f, 0.1, y_0, 0.0, 1.0),
             "nonempty vector"),
            (lambda y_0=y_0: adaptive_integrate(kernel("DOPRI5"), f, TOL, y_0, 0.0, 1.0),
             "nonempty vector"),
            (lambda y_0=y_0: erk_step_generic(TABLEAUS["DOPRI5"], f, 0.0, y_0, 0.1),
             "nonempty vector"),
        ]
    for run, message in runs:
        with pytest.raises(ArgumentError, match=message):
            run()
    assert f.calls == 0


def test_rhs_failures_are_not_argument_errors():
    # both fire after rhs calls have run, so they must not read as a refused
    # argument: the CLI reports them as rhs failures, exit 1
    from rkforge.problems import ArenstorfParams, SingularityError, benchmark_case
    case = benchmark_case("arenstorf:1")
    on_body = np.array([0.0, 0.0, ArenstorfParams().mu2, 0.0])
    with pytest.raises(SingularityError) as exc:
        fixed_integrate(kernel("DOPRI5"), case.problem, 0.1, on_body, 0.0, 1.0)
    assert not isinstance(exc.value, ArgumentError)
    wrong = ODEProblem(2, lambda t, y: np.zeros(3), "wrong")
    with pytest.raises(ValueError, match="shape") as exc:
        adaptive_integrate(kernel("DOPRI5"), wrong, TOL, np.zeros(2), 0.0, 1.0)
    assert not isinstance(exc.value, ArgumentError)


def test_trace_hooks_see_every_call(monkeypatch, capsys):
    # perfbench/bench_trace.py times the layers by patching these module
    # attributes; a name bound at import, such as a module-level alias, would
    # slip past its trace and past these counts
    from rkforge import cli, stepcontrol
    from rkforge.generated import dopri5
    from rkforge.problems import benchmark_case

    counts = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(module, name, counted)

    for name in ("_adaptive_loop", "error_norm", "propose_step_size", "rescale_rejected"):
        count(stepcontrol, name)
    count(cli, "fixed_integrate")

    case = benchmark_case("brusselator")
    args = (case.problem, 1e-6, 1e-6, case.y_0, case.t_start, case.t_stop)
    log = dopri5.DOPRI5_info(*args)
    accepted, rejected = log.accepted_t.size, log.rejected_t.size
    assert rejected > 0
    expected = {"_adaptive_loop": 1, "error_norm": accepted + rejected,
                "propose_step_size": accepted, "rescale_rejected": rejected,
                "fixed_integrate": 0}
    assert counts == expected

    counts.update(dict.fromkeys(counts, 0))
    dopri5.DOPRI5_last(*args)
    assert counts == expected

    counts.update(dict.fromkeys(counts, 0))
    assert cli.main(["solve", "--method", "DOPRI5", "--problem", "vdp", "--h", "0.1",
                     "--output-kind", "last"]) == 0
    capsys.readouterr()
    assert counts == dict.fromkeys(expected, 0) | {"fixed_integrate": 1}


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(TABLEAUS))
    def test_generated_matches_generic(self, name):
        from rkforge.generated import METHODS as GEN
        tab = TABLEAUS[name]
        mod = GEN[name]
        seed = zlib.crc32(name.encode())
        print(f"{name}: seed {seed}")
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
            h = 10.0 ** rng.uniform(-4, -1)
            t0 = rng.uniform(-5, 5)
            mat = rng.standard_normal((n, n))
            rhs = lambda t, yy: mat @ yy + np.cos(t + yy)
            prob = ODEProblem(n, rhs, "rand")
            f = lambda t, yy: np.asarray(rhs(t, yy), dtype=float)
            ref_y, ref_hat, _ = erk_step_generic(tab, prob, t0, y, h)
            got_y, got_hat = mod._step(f, t0, y, h)
            for ref, got in ((ref_y, got_y), (ref_hat, got_hat)):
                denom = np.maximum(np.abs(ref), 1e-30)
                assert np.max(np.abs(got - ref) / denom) < 1e-12


class TestConvergenceAboveRoundoffFloor:
    """Order measurement with step sizes chosen so the error stays measurable.

    On y' = y over [0,1] the high-order methods hit the 64-bit roundoff floor
    below h ~ 0.1, so they are measured at larger steps; points within a few
    ulp of the floor are excluded from the fit.
    """

    @pytest.mark.parametrize("name", sorted(TABLEAUS))
    def test_order_measured(self, name):
        from rkforge.generated import METHODS as GEN
        mod = GEN[name]
        p = TABLEAUS[name].p
        hs = (0.5, 0.25, 0.125, 0.0625) if p >= 6 else (0.1, 0.05, 0.025, 0.0125)
        pts = []
        for h in hs:
            _, y = getattr(mod, f"{name}_fixed_last")(
                lambda t, y: y, h, np.array([1.0]), 0.0, 1.0)
            err = abs(float(y[0]) - math.e)
            if err > 1e-13:
                pts.append((h, err))
        assert len(pts) >= 2, f"{name}: not enough points above the floor"
        hs_v, errs = zip(*pts)
        slope = float(np.polyfit(np.log(hs_v), np.log(errs), 1)[0])
        assert slope >= p - 0.4, (name, p, slope, pts)
