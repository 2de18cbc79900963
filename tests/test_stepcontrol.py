import math
import zlib

import numpy as np
import pytest

from rkforge import shipped_methods
from rkforge.stepcontrol import (
    ControllerParams,
    DivergenceError,
    IntegrationOptions,
    MaxStepsExceeded,
    ODEProblem,
    StepSizeUnderflow,
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
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            Tolerances(0.0, 0.0)
        with pytest.raises(ValueError):
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

    def test_propagate_embedded_option(self):
        opts = IntegrationOptions(propagate_embedded=True)
        _, y_main = adaptive_integrate(kernel("DOPRI5"), lambda t, y: y,
                                       Tolerances(1e-8, 1e-8), np.array([1.0]),
                                       0.0, 1.0, last=True)
        _, y_emb = adaptive_integrate(kernel("DOPRI5"), lambda t, y: y,
                                      Tolerances(1e-8, 1e-8), np.array([1.0]),
                                      0.0, 1.0, last=True, options=opts)
        assert y_main[0] != y_emb[0]
        assert abs(y_emb[0] - math.e) < 1e-6

    def test_max_steps_guard(self):
        opts = IntegrationOptions(max_steps=5)
        with pytest.raises(MaxStepsExceeded) as exc:
            adaptive_integrate(kernel("DOPRI5"), lambda t, y: y,
                               Tolerances(1e-12, 1e-12), np.array([1.0]),
                               0.0, 100.0, options=opts)
        assert exc.value.log is not None
        assert exc.value.log.accepted_t.size <= 5

    def test_underflow_guard_on_unresolvable_problem(self):
        # discontinuous rhs forces endless rejections at the jump
        def rhs(t, y):
            return np.array([1.0 if t < 0.5 else 1e12])
        opts = IntegrationOptions(h_min=1e-6)
        with pytest.raises((StepSizeUnderflow, MaxStepsExceeded)):
            adaptive_integrate(kernel("DOPRI5"), rhs, Tolerances(1e-12, 1e-12),
                               np.array([0.0]), 0.0, 1.0, options=opts)

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
        with pytest.raises(ValueError):
            adaptive_integrate(kernel("DOPRI5"), lambda t, y: y,
                               Tolerances(1e-8, 1e-8), np.array([1.0]), 1.0, 1.0)


class TestFixedIntegrate:
    def test_point_count(self):
        prob = ODEProblem(1, lambda t, y: np.zeros(1), "null")
        traj = fixed_integrate(kernel("ERK43b"), prob, 0.01, np.array([1.0]),
                               0.0, 12.0)
        assert traj.times.size == 1201
        assert traj.times[-1] == 12.0
        assert np.all(traj.states == 1.0)

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
        with pytest.raises(ValueError, match="dimension 3, but y_0 has 2"):
            run()


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
