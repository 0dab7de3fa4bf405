"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The expensive stochastic ground-vehicle solve is shared between the
improvement and verification criteria through a module-scoped fixture.

Criterion 7 is exercised exactly at its stated configuration (32 spatial
nodes, explicit Euler, dt = 0.002). That configuration is linearly unstable:
the stiffest eigenvalue of the truncated second-derivative operator scales
like 0.047 (n + 1)^4, giving |lambda|_max ~ 1.1e4 at n = 32 after the 1/5
diffusion factor, so explicit Euler would need dt <= 1.8e-4 (and no explicit
fixed-step scheme reaches dt = 2e-3). The test therefore fails honestly; the
companion test demonstrates the same improvement claim at the nearest stable
resolution (16 nodes, dt = 0.002, amplification 1.003 per step, which is the
physical growth rate of the zero state, not a scheme artifact).
"""

import time
import tracemalloc

import numpy as np
import pytest

import ensemble_oc as eoc
from ensemble_oc import transcription as tr
from ensemble_oc.gradients import backward_gradient, fd_gradient
from ensemble_oc.integrators import StepScheme, propagate_segment, step_jacobians
from ensemble_oc.pontryagin import adjoint_sweep
from ensemble_oc.grids import EnsembleTrajectory
from conftest import random_uav_state


def _report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: gradient exactness on the long-horizon steering benchmark
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_exactness():
    t0 = time.time()
    problem = eoc.build("ugv-bicycle", seed=11)
    assert problem.plan.total_steps == 1000 and problem.plan.step_sizes == (0.1,)
    rng = np.random.Generator(np.random.Philox(problem.seed))
    point = tr.NlpPoint((rng.uniform(-1.0, 1.0, (1000, 2)),), ())
    _, grad = tr.objective_gradient(problem, point)
    fd = tr.fd_objective_gradient(problem, point)
    err = float(np.abs(grad.controls[0] - fd.controls[0]).max())
    elapsed = time.time() - t0
    _report(1, err <= 1e-5 and elapsed <= 60.0, f"max |backward - fd| = {err:.2e}, {elapsed:.1f}s")
    assert err <= 1e-5
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# criterion 2: sweep auxiliary memory is flat in the number of steps
# ---------------------------------------------------------------------------


def test_criterion_2_memory_scaling():
    problem = eoc.build("ugv-bicycle", seed=3)
    model = problem.model
    scheme = problem.segment_scheme(0)
    rng = np.random.Generator(np.random.Philox(5))
    x0 = rng.uniform(-0.5, 0.5, (1000, 3))

    def sweep_aux_peak(n_steps):
        controls = rng.uniform(-1.0, 1.0, (n_steps, 2))
        states = propagate_segment(scheme, model, x0, controls)
        seed = states[-1] / x0.shape[0]
        backward_gradient(scheme, model, states, controls, seed)  # warm caches
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        backward_gradient(scheme, model, states, controls, seed)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak - base

    aux_500 = sweep_aux_peak(500)
    aux_1000 = sweep_aux_peak(1000)
    growth = (aux_1000 - aux_500) / aux_500
    _report(2, growth < 0.10, f"aux peak {aux_500/1e3:.0f} KB -> {aux_1000/1e3:.0f} KB, +{100*growth:.1f}%")
    assert growth < 0.10


# ---------------------------------------------------------------------------
# criterion 3: deterministic ground-vehicle solve from zero control
# ---------------------------------------------------------------------------


def test_criterion_3_deterministic_solve():
    problem = eoc.build("ugv-nominal", dt=0.1)
    report = eoc.solve(problem)
    terminal = tr.forward_pass(problem, report.point)[-1][-1]
    distance = float(np.hypot(terminal[0, 0] - 3.0, terminal[0, 1] - 3.0))
    ok = (
        distance < 0.05
        and report.continuity_residual <= 1e-6
        and report.inner_iterations <= 200
    )
    _report(
        3,
        ok,
        f"distance = {distance:.4f}, continuity = {report.continuity_residual:.1e}, "
        f"iterations = {report.inner_iterations}",
    )
    assert distance < 0.05
    assert report.continuity_residual <= 1e-6
    assert report.inner_iterations <= 200


# ---------------------------------------------------------------------------
# criteria 4 + 5 share the stochastic solve
# ---------------------------------------------------------------------------


def _ensemble_terminal_cost(problem, point):
    terminal = tr.forward_pass(problem, point)[-1][-1]
    return float(np.mean((terminal[:, 0] - 3.0) ** 2 + (terminal[:, 1] - 3.0) ** 2))


@pytest.fixture(scope="module")
def stochastic_ugv_solution():
    t0 = time.time()
    nominal_problem = eoc.build("ugv-nominal")
    nominal = eoc.solve(nominal_problem)
    problem = eoc.build("ugv-stochastic", M=1000, seed=42)
    guess = tr.default_start(problem, nominal.point.schedule(nominal_problem.plan))
    config = eoc.SolverConfig(inner_tol=1e-6, outer_tol=1e-6, max_inner=120, max_outer=6)
    report = eoc.solve(problem, initial_guess=guess, config=config)
    return {
        "problem": problem,
        "guess": guess,
        "report": report,
        "elapsed": time.time() - t0,
    }


def test_criterion_4_stochastic_improvement(stochastic_ugv_solution):
    sol = stochastic_ugv_solution
    base = _ensemble_terminal_cost(sol["problem"], sol["guess"])
    optimized = _ensemble_terminal_cost(sol["problem"], sol["report"].point)
    ratio = optimized / base
    ok = ratio <= 0.8 and sol["elapsed"] <= 600.0
    _report(4, ok, f"terminal cost ratio = {ratio:.3f}, solve time = {sol['elapsed']:.0f}s")
    assert ratio <= 0.8
    assert sol["elapsed"] <= 600.0


def test_criterion_5_minimum_principle_verification(stochastic_ugv_solution):
    sol = stochastic_ugv_solution
    problem = sol["problem"]
    schedule = sol["report"].point.schedule(problem.plan)
    report = eoc.verify(problem, schedule)
    control_range = 2.0  # both channels bounded in [-1, 1]
    ok_close = report.mean_discrepancy <= 0.05 * control_range

    perturbed = schedule.stacked().copy()
    perturbed[: perturbed.shape[0] // 2, 0] += 0.5
    perturbed_report = eoc.verify(
        problem, eoc.ControlSchedule.from_stacked(problem.plan, perturbed)
    )
    ok_detect = perturbed_report.max_discrepancy >= 0.4
    _report(
        5,
        ok_close and ok_detect,
        f"mean discrepancy = {report.mean_discrepancy:.4f}, "
        f"perturbed max = {perturbed_report.max_discrepancy:.2f}",
    )
    assert ok_close
    assert ok_detect


# ---------------------------------------------------------------------------
# criterion 6: sweep-vs-engine discrete adjoint equivalence
# ---------------------------------------------------------------------------


def test_criterion_6_discrete_adjoint_equivalence(rng):
    cases = []
    ugv = eoc.UgvDifferentialDrive(random_radius=True)
    x0 = rng.uniform(-0.3, 0.3, (6, 4))
    x0[:, 3] = rng.uniform(1.0, 1.5, 6)
    cases.append((ugv, x0, rng.uniform(-1, 1, (15, 2)), "rk4", 0.05))

    bike = eoc.UgvBicycle()
    cases.append((bike, rng.uniform(-1, 1, (4, 3)), rng.uniform(-0.9, 0.9, (12, 2)), "rk4", 0.1))

    uav = eoc.FixedWingUav()
    xu = np.stack([random_uav_state(rng) for _ in range(3)])
    xu[:, 3] = rng.uniform(22.0, 30.0, 3)
    xu[:, 4] = rng.uniform(-0.1, 0.1, 3)
    xu[:, 7] = rng.uniform(-0.1, 0.1, 3)  # moderate attack keeps pitch rates sane
    cases.append((uav, xu, rng.uniform(-0.05, 0.05, (6, 3)), "rk3", 0.005))

    pde = eoc.ChebyshevReactionDiffusion(n_nodes=10)
    cases.append((pde, 0.4 * rng.standard_normal((5, 10)), rng.uniform(-1, 1, (20, 1)), "euler", 0.002))

    worst = 0.0
    for model, x0, controls, kind, dt in cases:
        scheme = StepScheme(kind, dt)
        plan = eoc.uniform_plan(dt * controls.shape[0], 1, dt)
        schedule = eoc.ControlSchedule(plan, (controls,))
        states = propagate_segment(scheme, model, x0, controls)
        seed = rng.standard_normal(x0.shape)
        adjoint = adjoint_sweep(
            StepScheme(kind), model, EnsembleTrajectory(plan, (states,)), schedule, seed
        )
        contracted = np.empty_like(controls)
        for j in range(controls.shape[0]):
            _, b_mat = step_jacobians(scheme, model, states[j], controls[j])
            contracted[j] = np.einsum("mr,mrc->c", adjoint.segments[0][j + 1], b_mat)
        engine_u, engine_x0 = backward_gradient(scheme, model, states, controls, seed)
        worst = max(worst, float(np.abs(contracted - engine_u).max()))
        worst = max(worst, float(np.abs(adjoint.segments[0][0] - engine_x0).max()))
    _report(6, worst <= 1e-12, f"max deviation = {worst:.2e}")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# criterion 7: ensemble control of the collocated reaction-diffusion field
# ---------------------------------------------------------------------------


def _pde_metrics(problem, point):
    weights = problem.model.quadrature_weights
    segs = tr.forward_pass(problem, point)
    terminal = segs[-1][-1]
    mean_square = float(np.sum(terminal.mean(axis=0) ** 2))
    std_integral = 0.0
    for seg, states in zip(problem.plan.segments, segs):
        std_integral += seg.dt * float((states[:-1].std(axis=1) @ weights).sum())
    return mean_square, std_integral


def _pde_improvement(n_nodes, dt):
    t0 = time.time()
    nominal_problem = eoc.build("pde-nominal", n_nodes=n_nodes, dt=dt)
    nominal = eoc.solve(
        nominal_problem,
        config=eoc.SolverConfig(inner_tol=1e-6, outer_tol=1e-6, max_inner=250, max_outer=1),
    )
    problem = eoc.build("pde-stochastic", n_nodes=n_nodes, M=100, dt=dt, seed=9)
    guess = tr.default_start(problem, nominal.point.schedule(nominal_problem.plan))
    base = _pde_metrics(problem, guess)
    report = eoc.solve(
        problem,
        initial_guess=guess,
        config=eoc.SolverConfig(inner_tol=1e-5, outer_tol=1e-5, max_inner=220, max_outer=1),
    )
    optimized = _pde_metrics(problem, report.point)
    return base, optimized, time.time() - t0


def test_criterion_7_pde_control_as_specified():
    """Stated configuration: 32 nodes, dt = 0.002, t_f = 8, M = 100.

    Explicit Euler is unstable here (see the module docstring): the run
    diverges to non-finite values within a handful of steps regardless of the
    control, so the improvement ratios cannot be formed. The criterion is
    kept exactly as stated and fails; the companion test below carries the
    substance at the nearest stable resolution.
    """
    try:
        base, optimized, elapsed = _pde_improvement(n_nodes=32, dt=0.002)
    except (eoc.PropagationError, eoc.ParameterError) as err:
        _report(
            7,
            False,
            "unattainable as specified: explicit Euler at 32 nodes needs "
            f"dt <= 1.8e-4; the very first propagation diverges ({err})",
        )
        pytest.fail(
            "criterion 7 configuration (n=32, euler, dt=0.002) is numerically "
            "unstable: |lambda|_max of the truncated second-derivative operator "
            "with the 1/5 diffusion factor is ~ 1.1e4, so explicit Euler needs "
            f"dt <= 1.8e-4 and the run diverges immediately ({err}). "
            "See test_criterion_7_companion_stable_configuration for the same "
            "claim at 16 nodes, which passes."
        )
    ratios = (optimized[0] / base[0], optimized[1] / base[1])
    ok = ratios[0] <= 0.5 and ratios[1] <= 0.5 and elapsed <= 900.0
    _report(7, ok, f"ratios = {ratios[0]:.3f}, {ratios[1]:.3f}, {elapsed:.0f}s")
    assert ratios[0] <= 0.5 and ratios[1] <= 0.5
    assert elapsed <= 900.0


def test_criterion_7_companion_stable_configuration():
    base, optimized, elapsed = _pde_improvement(n_nodes=16, dt=0.002)
    ms_ratio = optimized[0] / base[0]
    std_ratio = optimized[1] / base[1]
    ok = ms_ratio <= 0.5 and std_ratio <= 0.5 and elapsed <= 900.0
    _report(
        "7-companion",
        ok,
        f"mean-square ratio = {ms_ratio:.3f}, stddev-integral ratio = {std_ratio:.3f}, "
        f"{elapsed:.0f}s",
    )
    assert ms_ratio <= 0.5
    assert std_ratio <= 0.5
    assert elapsed <= 900.0


@pytest.mark.parametrize("block_steps", [1, 16])
def test_criterion_7_failure_text_is_unchanged(monkeypatch, block_steps):
    # the known red test reports this text; it must not depend on how many
    # steps the march takes between its finiteness checks
    from ensemble_oc import integrators

    monkeypatch.setattr(integrators, "_BLOCK_STEPS", block_steps)
    nominal_problem = eoc.build("pde-nominal", n_nodes=32, dt=0.002)
    with pytest.raises(eoc.ParameterError) as err:
        eoc.solve(
            nominal_problem,
            config=eoc.SolverConfig(inner_tol=1e-6, outer_tol=1e-6, max_inner=250, max_outer=1),
        )
    assert str(err.value) == (
        "initial guess does not propagate: "
        "propagation produced a non-finite state (sample 0, step 9)"
    )


# ---------------------------------------------------------------------------
# criterion 8: the property suites themselves, re-run compactly
# ---------------------------------------------------------------------------


def test_criterion_8_property_suite_budget(rng):
    t0 = time.time()

    # integrator order (fourth-order scheme on the exponential)
    from test_integrators import Linear1d

    errors = []
    for dt in (0.1, 0.05, 0.025):
        steps = round(1.0 / dt)
        states = propagate_segment(
            StepScheme("rk4", dt), Linear1d(a=1.0), np.array([[1.0]]), np.zeros((steps, 1))
        )
        errors.append(abs(states[-1, 0, 0] - np.e))
    order = min(np.log2(errors[i] / errors[i + 1]) for i in range(2))
    assert order >= 3.8

    # jacobian-vs-fd spot check on the aerial model
    from conftest import fd_jac_x

    uav = eoc.FixedWingUav()
    x = random_uav_state(rng)
    u = rng.uniform(-0.05, 0.05, 3)
    assert np.abs(uav.jac_x(x, u) - fd_jac_x(uav, x, u)).max() <= 1e-6 * (
        1 + np.abs(uav.jac_x(x, u)).max()
    )

    # sampling determinism
    spec = eoc.RandomInputSpec((eoc.Uniform(-1, 1), eoc.Normal(0, 1)))
    np.testing.assert_array_equal(
        eoc.sample_initial_ensemble(spec, 64, 5), eoc.sample_initial_ensemble(spec, 64, 5)
    )

    # continuity-residual gradient against finite differences
    from test_transcription import _ugv_instance, _random_point

    problem = _ugv_instance(M=2, segments=2, steps=4)
    point = _random_point(problem, rng, jitter=0.05)
    _, grad = eoc.continuity_residual(problem, point)
    fd = fd_gradient(
        lambda v: tr.continuity_residual(problem, tr.NlpPoint.from_vector(problem, v))[0],
        point.to_vector(),
    )
    assert np.abs(grad.to_vector() - fd).max() <= 1e-6

    # optimizer descent and in-bounds iterates
    small = eoc.build("ugv-nominal", dt=0.5)
    report = eoc.solve(small)
    assert report.objective <= eoc.evaluate_objective(small, tr.default_start(small))
    assert report.max_bound_violation == 0.0

    elapsed = time.time() - t0
    _report(8, elapsed < 300.0, f"compact property pass in {elapsed:.1f}s; "
            "full suites live in the per-module test files")
    assert elapsed < 300.0
