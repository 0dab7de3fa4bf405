import numpy as np
import pytest

import ensemble_oc as eoc
from ensemble_oc import transcription as tr
from ensemble_oc import (
    NlpPoint,
    SolveStatus,
    SolverConfig,
    barrier_value_and_gradient,
    minimize_box,
    solve,
)
from ensemble_oc.solver import BarrierInfeasible, _lbfgs_inner, _max_step
from test_integrators import Blowup
from test_transcription import _ugv_instance, _random_point


def test_barrier_symmetric_point_is_zero():
    value, grad = barrier_value_and_gradient(np.array([0.0]), [-1.0], [1.0], 1.0)
    assert value == pytest.approx(0.0)
    np.testing.assert_allclose(grad, [0.0])


def test_barrier_hand_value():
    # -mu (log(u - lo) + log(hi - u)) at u = 0.5 in [-1, 1]
    value, grad = barrier_value_and_gradient(np.array([0.5]), [-1.0], [1.0], 1.0)
    assert value == pytest.approx(-(np.log(1.5) + np.log(0.5)))
    assert value == pytest.approx(0.2876820724517809)
    # gradient: 1/(hi - u) - 1/(u - lo) = 2 - 2/3
    assert grad[0] == pytest.approx(2.0 - 1.0 / 1.5)


def test_barrier_infeasible_raises():
    with pytest.raises(BarrierInfeasible):
        barrier_value_and_gradient(np.array([1.0]), [-1.0], [1.0], 1.0)
    with pytest.raises(BarrierInfeasible):
        barrier_value_and_gradient(np.array([-1.5]), [-1.0], [1.0], 0.1)


def test_barrier_one_sided_bounds():
    value, grad = barrier_value_and_gradient(np.array([2.0]), [1.0], [np.inf], 2.0)
    assert value == pytest.approx(-2.0 * np.log(1.0))
    assert grad[0] == pytest.approx(-2.0)


def test_clipped_quadratic_reaches_active_bound():
    res = minimize_box(
        lambda x: (float((x[0] - 3.0) ** 2), np.array([2.0 * (x[0] - 3.0)])),
        np.array([0.0]),
        lo=np.array([-1.0]),
        hi=np.array([1.0]),
    )
    assert res.status == SolveStatus.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-4)


def test_unconstrained_quadratic_exact():
    c = np.array([2.0, -1.0, 0.5, 4.0])
    res = minimize_box(lambda x: (0.5 * float(np.sum((x - c) ** 2)), x - c), np.zeros(4))
    assert res.status == SolveStatus.converged
    assert np.abs(res.x - c).max() <= 1e-8


def test_rosenbrock_in_box():
    def rosen(x):
        v = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        g = np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )
        return float(v), g

    res = minimize_box(
        rosen,
        np.array([-1.2, 1.0]),
        lo=np.array([-2.0, -2.0]),
        hi=np.array([2.0, 2.0]),
        config=SolverConfig(max_inner=300),
    )
    assert res.status == SolveStatus.converged
    assert np.abs(res.x - 1.0).max() <= 1e-3


def test_barrier_path_approaches_constrained_optimum():
    # the mu -> 0 limit pulls the iterate to the true bound-constrained optimum
    tight = minimize_box(
        lambda x: (float((x[0] - 3.0) ** 2), np.array([2.0 * (x[0] - 3.0)])),
        np.array([-0.5]),
        lo=np.array([-1.0]),
        hi=np.array([1.0]),
        config=SolverConfig(outer_tol=1e-8, max_outer=16),
    )
    assert abs(tight.x[0] - 1.0) <= 1e-4


def test_fraction_to_boundary_cap():
    x = np.array([0.9, 0.0])
    d = np.array([1.0, 1.0])
    alpha = _max_step(x, d, np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 0.995)
    assert alpha == pytest.approx(0.995 * 0.1)


def test_minimize_box_rejects_equal_bounds():
    # the log barrier has no interior on a coordinate with lo == hi
    with pytest.raises(eoc.ParameterError, match=r"box bounds need lo < hi.*\[1\]"):
        minimize_box(
            lambda x: (float(x @ x), 2.0 * x), np.zeros(2),
            lo=np.array([-1.0, 0.5]), hi=np.array([1.0, 0.5]),
        )


def test_inner_iterates_stay_strictly_inside():
    seen = []

    def func(x):
        seen.append(x.copy())
        return float((x[0] - 3.0) ** 2), np.array([2.0 * (x[0] - 3.0)])

    minimize_box(
        func, np.array([0.0]), lo=np.array([-1.0]), hi=np.array([1.0]),
        config=SolverConfig(max_outer=10),
    )
    pts = np.array(seen)
    assert np.all(pts > -1.0) and np.all(pts < 1.0)


def test_armijo_accepted_steps_decrease_merit():
    merits = []

    def fg(x):
        v = float((x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2)
        return v, np.array([2 * (x[0] - 2.0), 2 * (x[1] + 1.0)])

    def gradient(z):
        merits.append(fg(z)[0])
        return fg(z)[1], fg(z)[0], 0.0

    cfg = SolverConfig()
    x, f, g, status, iters, _, _ = _lbfgs_inner(
        lambda z: (fg(z)[0], z),
        gradient,
        np.zeros(2),
        np.full(2, -np.inf),
        np.full(2, np.inf),
        1e-10,
        cfg,
    )
    assert status == "converged"
    # merit sequence recorded at accepted iterates decreases monotonically
    assert all(b <= a + 1e-15 for a, b in zip(merits, merits[1:]))


def test_minimize_box_evaluates_each_point_once():
    # one round: every later round starts by evaluating the point the
    # previous one returned, at its new barrier weight
    seen = []

    def func(x):
        seen.append(x.copy())
        a, b = x
        value = float((1.0 - a) ** 2 + 10.0 * (b - a * a) ** 2)
        return value, np.array([-2.0 * (1.0 - a) - 40.0 * a * (b - a * a), 20.0 * (b - a * a)])

    res = minimize_box(
        func, np.array([-0.5, 0.5]), lo=np.array([-2.0, -2.0]), hi=np.array([2.0, 0.8]),
        config=SolverConfig(max_outer=1, max_inner=60),
    )
    assert res.inner_iterations > 10
    assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))


def test_minimize_box_domain_error_in_trial_is_a_rejected_trial():
    def func(x):
        if x[0] > 0.5:
            raise eoc.DomainError("x must stay below 0.5")
        return float((x[0] - 3.0) ** 2), np.array([2.0 * (x[0] - 3.0)])

    res = minimize_box(func, np.array([0.0]))
    assert isinstance(res.status, SolveStatus)
    assert res.x[0] <= 0.5


def test_solve_propagates_each_evaluated_point_once(monkeypatch):
    from ensemble_oc.solver import _MeritEvaluator, _ReducedEvaluator

    counts = {"forward": 0, "value": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(tr, "forward_pass", counting("forward", tr.forward_pass))
    for cls in (_MeritEvaluator, _ReducedEvaluator):
        monkeypatch.setattr(cls, "value", counting("value", cls.value))
    problem = _ugv_instance(M=3, segments=3, steps=4)
    report = solve(problem, config=SolverConfig(max_outer=2, max_inner=8, polish_max_inner=8))
    assert len(report.history) == report.outer_iterations + 1  # the polish ran
    # the start check is the only forward pass that is not a trial
    assert counts["value"] > 0
    assert counts["forward"] == counts["value"] + 1


def test_solve_deterministic_ugv_quickly():
    problem = eoc.build("ugv-nominal", dt=0.5)  # tiny grid for speed
    report = solve(problem)
    assert report.status == SolveStatus.converged
    assert report.continuity_residual <= 1e-6
    assert report.objective < 9.0  # descent from the zero-control start


def test_solve_report_is_deterministic():
    problem = eoc.build("ugv-nominal", dt=0.5)
    a = solve(problem)
    b = solve(problem)
    np.testing.assert_array_equal(a.point.to_vector(), b.point.to_vector())
    assert a.objective == b.objective
    assert a.inner_iterations == b.inner_iterations


def test_solve_descent_against_initial_guess():
    problem = eoc.build("ugv-nominal", dt=0.5)
    guess = tr.default_start(problem)
    start_obj = eoc.evaluate_objective(problem, guess)
    report = solve(problem, initial_guess=guess)
    assert report.objective <= start_obj


def test_solve_iterates_respect_bounds():
    problem = eoc.build("ugv-nominal", dt=0.5)
    report = solve(problem)
    for block in report.point.controls:
        assert np.all(block >= -1.0) and np.all(block <= 1.0)
    assert report.max_bound_violation == 0.0


def test_solve_rejects_nonfinite_start(rng):
    problem = _ugv_instance(M=2, segments=2, steps=3)
    warm = tr.default_start(problem)
    bad = NlpPoint(warm.controls, (np.full_like(warm.interface_states[0], np.nan),))
    with pytest.raises(eoc.ParameterError):
        solve(problem, initial_guess=bad)


@pytest.mark.parametrize("layout", ["continuous", "one interface too many"])
def test_solve_rejects_initial_guess_of_wrong_layout(layout):
    problem = _ugv_instance(M=2, segments=2, steps=3)
    start = tr.default_start(problem)
    states = () if layout == "continuous" else 2 * start.interface_states
    with pytest.raises(eoc.ShapeMismatchError, match="initial guess"):
        solve(problem, initial_guess=NlpPoint(start.controls, states))


def test_merit_gradient_with_path_bounds_matches_fd(rng):
    from ensemble_oc.solver import _MeritEvaluator
    from ensemble_oc import PathBound

    problem = _ugv_instance(M=2, segments=2, steps=3).replace(
        path_bounds=(PathBound(0, -2.0, 2.0), PathBound(2, -1.5, 1.5))
    )
    ev = _MeritEvaluator(problem)
    point = _random_point(problem, rng, jitter=0.02)
    z = ev.to_scaled(point.to_vector())
    mu, nu, rho = 0.05, 0.3, 10.0
    grad, *_ = ev.gradient(ev.value(z, mu, nu, rho)[1])
    fd = eoc.fd_gradient(lambda v: ev.value(v, mu, nu, rho)[0], z)
    assert np.abs(grad - fd).max() <= 1e-5 * (1 + np.abs(grad).max())


def test_solve_respects_binding_path_bound():
    from ensemble_oc import PathBound

    # heading capped below the unconstrained optimum's peak
    problem = eoc.build("ugv-nominal", dt=0.25).replace(
        path_bounds=(PathBound(2, -0.55, 0.55),)
    )
    report = solve(problem, config=SolverConfig(max_inner=80, max_outer=8))
    assert report.max_bound_violation == 0.0
    headings = [
        seg[:, 0, 2].max() for seg in tr.forward_pass(problem, report.point)
    ]
    assert max(headings) <= 0.55
    free = solve(eoc.build("ugv-nominal", dt=0.25))
    free_heading = max(
        seg[:, 0, 2].max() for seg in tr.forward_pass(problem, free.point)
    )
    assert free_heading > 0.55  # the bound really binds


def test_uav_short_horizon_solve_smoke():
    # short window keeps the zero-control dive inside the elevation band
    problem = eoc.build("uav-nominal", t_f=1.2, dt=0.1)
    start = tr.default_start(problem)
    start_obj = eoc.evaluate_objective(problem, start)
    report = solve(problem, config=SolverConfig(max_inner=40, max_outer=4))
    assert report.objective < start_obj
    assert report.max_bound_violation == 0.0


def test_iteration_log_stream():
    lines = []
    problem = eoc.build("ugv-nominal", dt=0.5)
    solve(problem, log=lines.append)
    assert any(line.startswith("outer") for line in lines)
    assert any("merit=" in line for line in lines)


class CappedDrift(eoc.DynamicsModel):
    """x' = u, valid only while |x| < 2: past it every method raises."""

    n = 1
    m = 1
    control_affine = True
    name = "capped_drift"

    def _check(self, x):
        bad = np.abs(x[..., 0]) >= 2.0
        if np.any(bad):
            raise eoc.DomainError(
                "|x| must stay below 2", sample_index=int(np.flatnonzero(bad)[0])
            )

    def rhs(self, x, u):
        self._check(x)
        return np.broadcast_to(u, x.shape).copy()

    def jac_x(self, x, u):
        self._check(x)
        return np.zeros(x.shape + (1,))

    def jac_u(self, x, u):
        self._check(x)
        return np.ones(x.shape + (1,))


def _capped_problem():
    # a heavy terminal weight makes the first quasi-Newton trial (u ~ 15)
    # overshoot the valid region; shorter trials reach the target at 1.5
    return eoc.OcProblem(
        model=CappedDrift(),
        plan=eoc.uniform_plan(1.0, 1, 0.1),
        scheme=eoc.StepScheme("euler"),
        initial=eoc.RandomInputSpec((eoc.Uniform(-0.1, 0.1),)),
        M=3,
        cost=eoc.CostSpec(terminal_weights=np.array([100.0]), terminal_target=np.array([1.5])),
        control_lo=np.array([-np.inf]),
        control_hi=np.array([np.inf]),
        seed=4,
    )


def test_domain_error_in_trial_is_a_rejected_trial():
    problem = _capped_problem()
    start = tr.default_start(problem)
    g = tr.objective_gradient(problem, start)[1].to_vector()
    with pytest.raises(eoc.DomainError):  # the unit first trial leaves the region
        tr.evaluate_objective(problem, NlpPoint.from_vector(problem, -g))
    report = solve(problem)
    assert report.status in (SolveStatus.converged, SolveStatus.iteration_limit)
    assert report.objective < tr.evaluate_objective(problem, start)


def test_domain_error_at_initial_guess_names_sample():
    problem = _capped_problem()
    x0 = tr.initial_ensemble(problem)[:, 0]
    order = np.argsort(x0)
    worst, gap = order[-1], x0[order[-1]] - x0[order[-2]]
    # only the largest sample reaches |x| = 2, at the last node where the
    # rhs is evaluated (t = 0.9)
    u = np.full((10, 1), (2.0 - x0[worst] + 0.5 * gap) / 0.9)
    with pytest.raises(eoc.ParameterError, match=f"sample {worst}"):
        solve(problem, initial_guess=NlpPoint((u,), ()))


@pytest.mark.parametrize("kind", ["rk4", "ab2"])
def test_initial_guess_error_names_sample_and_step(kind):
    problem = _capped_problem().replace(scheme=eoc.StepScheme(kind))
    u = np.full((10, 1), 3.0)  # every sample leaves |x| < 2 before t = 0.8
    with pytest.raises(eoc.DomainError) as err:
        eoc.propagate_segment(
            problem.segment_scheme(0), problem.model, tr.initial_ensemble(problem), u
        )
    sample, step = err.value.sample_index, err.value.step_index
    assert step is not None
    with pytest.raises(eoc.ParameterError, match=f"sample {sample}, step {step}\\)"):
        solve(problem, initial_guess=NlpPoint((u,), ()))


def test_non_finite_initial_guess_names_sample_and_step_once():
    problem = eoc.OcProblem(
        model=Blowup(),
        plan=eoc.uniform_plan(1.0, 1, 0.1),
        scheme=eoc.StepScheme("euler"),
        initial=eoc.RandomInputSpec((eoc.Uniform(0.5, 1.0),)),
        M=3,
        cost=eoc.CostSpec(terminal_weights=np.array([1.0]), terminal_target=np.array([0.0])),
        control_lo=np.array([-np.inf]),
        control_hi=np.array([np.inf]),
    )
    with pytest.raises(eoc.ParameterError, match=r"\(sample \d+, step \d+\)") as err:
        solve(problem)
    assert str(err.value).count("(sample") == 1


def test_report_schema_status_enum_matches_solve_status():
    from ensemble_oc.reporting import load_report_schema

    schema = load_report_schema()
    assert set(schema["properties"]["status"]["enum"]) == {s.value for s in SolveStatus}
