import numpy as np
import pytest

import ensemble_oc as eoc
from ensemble_oc import transcription as tr
from ensemble_oc import (
    ControlSchedule,
    CostSpec,
    Dirac,
    EnsembleTrajectory,
    OcProblem,
    RandomInputSpec,
    StepScheme,
    adjoint_sweep,
    ensemble_argmin_control,
    hamiltonian,
    propagate_segment,
    uniform_plan,
    verify,
)
from ensemble_oc.gradients import backward_gradient
from ensemble_oc.integrators import step_jacobians
from ensemble_oc.models import UgvBicycle, UgvDifferentialDrive, FixedWingUav, ChebyshevReactionDiffusion
from ensemble_oc.pontryagin import mean_hamiltonian
from conftest import random_uav_state
from test_integrators import Linear1d, Zero


def test_hamiltonian_ugv_hand_value():
    model = UgvDifferentialDrive(random_radius=False, radius=1.25)
    h = hamiltonian(
        model,
        u=np.array([1.0, 0.0]),
        x=np.array([0.0, 0.0, 0.0]),
        lam=np.array([1.0, 0.0, 0.0]),
        q=0.01,
    )
    assert h == pytest.approx(0.005 + 1.25)


def test_hamiltonian_trivial_zero():
    model = UgvDifferentialDrive(random_radius=False)
    h = hamiltonian(model, np.zeros(2), np.zeros(3), np.zeros(3), q=0.3)
    assert h == 0.0


def test_hamiltonian_orthogonal_costate():
    model = UgvDifferentialDrive(random_radius=False, radius=1.0)
    x = np.array([0.0, 0.0, 0.0])
    u = np.array([0.7, 0.0])  # f = (0.7, 0, 0)
    lam = np.array([0.0, 1.0, 1.0])
    assert hamiltonian(model, u, x, lam, q=0.2) == pytest.approx(0.5 * 0.2 * 0.49)


def _continuous_trajectory(problem, schedule):
    state = tr.initial_ensemble(problem)
    segs = []
    for k in range(problem.n_segments):
        states = propagate_segment(
            problem.segment_scheme(k), problem.model, state, schedule.values[k]
        )
        segs.append(states)
        state = states[-1]
    return EnsembleTrajectory(problem.plan, tuple(segs))


def test_adjoint_constant_rates_for_planar_ugv(rng):
    # position costates never change: their adjoint rates vanish identically
    model = UgvDifferentialDrive(random_radius=False, radius=1.25)
    plan = uniform_plan(2.0, 1, 0.1)
    schedule = ControlSchedule(plan, (rng.uniform(-1, 1, (20, 2)),))
    x0 = rng.uniform(-0.2, 0.2, (3, 3))
    states = propagate_segment(StepScheme("rk4", 0.1), model, x0, schedule.values[0])
    traj = EnsembleTrajectory(plan, (states,))
    terminal = rng.standard_normal((3, 3))
    adj = adjoint_sweep(StepScheme("rk4"), model, traj, schedule, terminal)
    lam = adj.segments[0]
    assert np.abs(lam[:, :, 0] - lam[-1, :, 0]).max() <= 1e-14
    assert np.abs(lam[:, :, 1] - lam[-1, :, 1]).max() <= 1e-14
    assert np.abs(np.diff(lam[:, :, 2], axis=0)).max() > 0


def test_adjoint_constant_without_state_feedback(rng):
    model = Zero()
    plan = uniform_plan(1.0, 1, 0.25)
    schedule = ControlSchedule(plan, (rng.uniform(-1, 1, (4, 1)),))
    states = propagate_segment(StepScheme("rk3", 0.25), model, np.zeros((2, 2)), schedule.values[0])
    traj = EnsembleTrajectory(plan, (states,))
    terminal = rng.standard_normal((2, 2))
    adj = adjoint_sweep(StepScheme("rk3"), model, traj, schedule, terminal)
    np.testing.assert_array_equal(adj.segments[0], np.broadcast_to(terminal, (5, 2, 2)))


@pytest.mark.parametrize("kind,tol_order", [("euler", 1), ("rk3", 3), ("rk4", 4)])
def test_adjoint_linear_system_exponential(kind, tol_order):
    # x' = a x has costate lam(t) = lam(T) exp(a (T - t))
    a = -0.7
    model = Linear1d(a=a)
    dt, n_steps = 0.05, 20
    plan = uniform_plan(1.0, 1, dt)
    schedule = ControlSchedule(plan, (np.zeros((n_steps, 1)),))
    states = propagate_segment(StepScheme(kind, dt), model, np.array([[1.0]]), schedule.values[0])
    traj = EnsembleTrajectory(plan, (states,))
    adj = adjoint_sweep(StepScheme(kind), model, traj, schedule, np.array([[2.0]]))
    times = dt * np.arange(n_steps + 1)
    exact = 2.0 * np.exp(a * (1.0 - times))
    err = np.abs(adj.segments[0][:, 0, 0] - exact).max()
    assert err <= 5.0 * dt**tol_order


def test_argmin_closed_form_with_clipping():
    model = UgvDifferentialDrive(random_radius=False, radius=1.25)
    u_star = ensemble_argmin_control(
        model,
        states=np.array([[0.0, 0.0, 0.0]]),
        costates=np.array([[1.0, 0.0, 0.0]]),
        q=1.0,
        lo=[-1.0, -1.0],
        hi=[1.0, 1.0],
    )
    np.testing.assert_allclose(u_star, [-1.0, 0.0])


def test_argmin_zero_costate_gives_zero_control():
    model = UgvDifferentialDrive(random_radius=False)
    u_star = ensemble_argmin_control(
        model, np.zeros((4, 3)), np.zeros((4, 3)), q=0.5, lo=[-1, -1], hi=[1, 1]
    )
    np.testing.assert_allclose(u_star, [0.0, 0.0])


def test_argmin_symmetric_ensemble_cancels():
    model = UgvDifferentialDrive(random_radius=False, radius=1.0)
    states = np.zeros((2, 3))
    costates = np.array([[1.0, 0.0, 0.5], [-1.0, 0.0, -0.5]])
    u_star = ensemble_argmin_control(model, states, costates, q=0.2, lo=[-1, -1], hi=[1, 1])
    np.testing.assert_allclose(u_star, [0.0, 0.0], atol=1e-14)


def test_argmin_bang_bang_flag():
    model = UgvDifferentialDrive(random_radius=False, radius=1.25)
    u_star, bang = ensemble_argmin_control(
        model,
        np.array([[0.0, 0.0, 0.0]]),
        np.array([[1.0, 0.0, -0.3]]),
        q=0.0,
        lo=[-1.0, -1.0],
        hi=[1.0, 1.0],
        return_flag=True,
    )
    assert bang
    np.testing.assert_allclose(u_star, [-1.0, 1.0])


def test_argmin_coordinate_search_interior_stationarity(rng):
    # bicycle couples the channels, so the solver falls back to golden section
    model = UgvBicycle()
    states = rng.uniform(-0.5, 0.5, (6, 3))
    costates = 0.3 * rng.standard_normal((6, 3))
    u_star = ensemble_argmin_control(model, states, costates, q=1.0, lo=[-1, -1], hi=[1, 1])
    assert np.all(np.abs(u_star) <= 1.0)
    for c in range(2):
        if abs(u_star[c]) < 0.999:  # interior channel
            h = 1e-6
            up, um = u_star.copy(), u_star.copy()
            up[c] += h
            um[c] -= h
            deriv = (
                mean_hamiltonian(model, up, states, costates, 1.0)
                - mean_hamiltonian(model, um, states, costates, 1.0)
            ) / (2 * h)
            assert abs(deriv) <= 1e-8


def _lq_problem(dt=0.05):
    return OcProblem(
        model=Linear1d(a=0.0, b=1.0),
        plan=uniform_plan(1.0, 1, dt),
        scheme=StepScheme("euler"),
        initial=RandomInputSpec((Dirac(1.0),)),
        M=1,
        cost=CostSpec(
            terminal_weights=np.array([1.0]),
            terminal_target=np.array([0.0]),
            control_energy=1.0,
        ),
        control_lo=np.array([-2.0]),
        control_hi=np.array([2.0]),
    )


def test_verify_lq_optimal_control_is_stationary():
    # x' = u, J = x(T)^2/2 + |u|^2/2: the optimum is u = -x0 / (1 + T)
    problem = _lq_problem()
    n_steps = problem.plan.total_steps
    u_opt = -1.0 / 2.0
    schedule = ControlSchedule(problem.plan, (np.full((n_steps, 1), u_opt),))
    report = verify(problem, schedule)
    assert report.max_discrepancy <= 1e-10
    assert report.passed
    assert report.fraction_within == 1.0
    assert not report.bang_bang
    assert "necessary" in report.note.lower()


def test_verify_detects_perturbation():
    problem = _lq_problem()
    n_steps = problem.plan.total_steps
    u = np.full((n_steps, 1), -0.5)
    u[n_steps // 2 :] += 0.5
    report = verify(problem, ControlSchedule(problem.plan, (u,)))
    assert report.max_discrepancy >= 0.4
    assert not report.passed


def test_verify_grid_mismatch_rejected():
    problem = _lq_problem()
    wrong = ControlSchedule(uniform_plan(1.0, 1, 0.1), (np.zeros((10, 1)),))
    with pytest.raises(eoc.ShapeMismatchError):
        verify(problem, wrong)


def test_report_discrepancies_nonnegative_and_csv(tmp_path):
    problem = _lq_problem(dt=0.1)
    schedule = ControlSchedule(problem.plan, (np.full((10, 1), -0.4),))
    report = verify(problem, schedule)
    assert np.all(report.discrepancy >= 0.0)
    out = tmp_path / "pmp.csv"
    report.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,u_hat_1,u_star_1,discrepancy_1"
    assert len(lines) == 11


def _equivalence_case(model, x0, controls, kind, dt, rng):
    plan = uniform_plan(dt * controls.shape[0], 1, dt)
    schedule = ControlSchedule(plan, (controls,))
    scheme = StepScheme(kind, dt)
    states = propagate_segment(scheme, model, x0, controls)
    traj = EnsembleTrajectory(plan, (states,))
    seed = rng.standard_normal(x0.shape)
    adj = adjoint_sweep(StepScheme(kind), model, traj, schedule, seed)
    # contract stored costates with the control Jacobian of each step
    contracted = np.empty_like(controls)
    for j in range(controls.shape[0]):
        _, b_mat = step_jacobians(scheme, model, states[j], controls[j])
        contracted[j] = np.einsum("mr,mrc->c", adj.segments[0][j + 1], b_mat)
    g_u, g_x0 = backward_gradient(scheme, model, states, controls, seed)
    assert np.abs(contracted - g_u).max() <= 1e-12
    np.testing.assert_allclose(adj.segments[0][0], g_x0, atol=1e-12)


def test_discrete_adjoint_equivalence_all_models(rng):
    # same recursion computed two ways must agree to machine precision
    ugv = UgvDifferentialDrive(random_radius=True)
    x0 = rng.uniform(-0.3, 0.3, (5, 4))
    x0[:, 3] = rng.uniform(1.0, 1.5, 5)
    _equivalence_case(ugv, x0, rng.uniform(-1, 1, (12, 2)), "rk4", 0.05, rng)

    bike = UgvBicycle()
    _equivalence_case(
        bike, rng.uniform(-1, 1, (4, 3)), rng.uniform(-0.9, 0.9, (10, 2)), "rk3", 0.1, rng
    )

    uav = FixedWingUav()
    x0 = np.stack([random_uav_state(rng) for _ in range(3)])
    x0[:, 3] = rng.uniform(22.0, 30.0, 3)  # keep pitch rates mild over the window
    x0[:, 4] = rng.uniform(-0.1, 0.1, 3)
    _equivalence_case(uav, x0, rng.uniform(-0.05, 0.05, (8, 3)), "rk3", 0.02, rng)

    pde = ChebyshevReactionDiffusion(n_nodes=8)
    x0 = 0.5 * rng.standard_normal((4, 8))
    _equivalence_case(pde, x0, rng.uniform(-1, 1, (15, 1)), "euler", 0.002, rng)


def _dense_adjoint(problem, segs, controls, terminal, running_seed):
    """Costates by dense step Jacobians, last segment first; the running seed
    enters at the left nodes of each step only, never at a segment's end."""
    lam = terminal
    out = [None] * problem.n_segments
    for k in range(problem.n_segments - 1, -1, -1):
        scheme = problem.segment_scheme(k)
        costates = np.empty_like(segs[k])
        costates[-1] = lam
        for j in range(controls[k].shape[0] - 1, -1, -1):
            a_mat, _ = step_jacobians(scheme, problem.model, segs[k][j], controls[k][j])
            lam = np.einsum("mr,mrc->mc", lam, a_mat) + running_seed(k, j)
            costates[j] = lam
        out[k] = costates
    return out


@pytest.mark.parametrize("kind", ["euler", "rk4"])
def test_adjoint_sweep_two_segments_matches_dense_reference(kind, rng):
    problem = eoc.build("ugv-stochastic", M=3, seed=5, t_f=1.0, dt=0.1, segments=2).replace(
        scheme=StepScheme(kind)
    )
    schedule = ControlSchedule.from_stacked(problem.plan, rng.uniform(-1, 1, (10, 2)))
    segs = tr.forward_pass(problem, tr.NlpPoint(schedule.values, ()))
    terminal = rng.standard_normal((3, 4))

    def running(k, j):  # nonzero at every node, segment ends included
        return 0.1 * (k + 1) * segs[k][j]

    adj = adjoint_sweep(
        problem.scheme, problem.model, EnsembleTrajectory(problem.plan, tuple(segs)),
        schedule, terminal, running_seed=running,
    )
    ref = _dense_adjoint(problem, segs, schedule.values, terminal, running)
    for got, want in zip(adj.segments, ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _ab_case(kind, rng):
    problem = eoc.build("ugv-stochastic", M=4, seed=2, t_f=1.0, dt=0.1, segments=1).replace(
        scheme=StepScheme(kind)
    )
    x0 = tr.initial_ensemble(problem)
    controls = rng.uniform(-1, 1, (10, 2))
    return problem, x0, controls, rng.standard_normal(x0.shape)


@pytest.mark.parametrize("kind", ["ab2", "ab3"])
def test_adjoint_sweep_adams_bashforth_is_the_engine_adjoint(kind, rng):
    problem, x0, controls, w = _ab_case(kind, rng)
    scheme = problem.segment_scheme(0)
    states = propagate_segment(scheme, problem.model, x0, controls)
    schedule = ControlSchedule(problem.plan, (controls,))
    adj = adjoint_sweep(
        problem.scheme, problem.model, EnsembleTrajectory(problem.plan, (states,)), schedule, w
    )
    _, g_x0 = backward_gradient(scheme, problem.model, states, controls, w)
    np.testing.assert_array_equal(adj.initial, g_x0)

    def terminal_of_x0(flat):
        st_ = propagate_segment(scheme, problem.model, flat.reshape(x0.shape), controls)
        return float(np.sum(w * st_[-1]))

    fd = eoc.fd_gradient(terminal_of_x0, x0.ravel()).reshape(x0.shape)
    assert np.abs(adj.initial - fd).max() <= 1e-6


def test_verify_runs_on_adams_bashforth_problem():
    problem = eoc.build("ugv-stochastic", M=3, seed=1, t_f=2.0, dt=0.1, segments=2).replace(
        scheme=StepScheme("ab2")
    )
    u = np.full((problem.plan.total_steps, 2), 0.3)
    report = verify(problem, ControlSchedule.from_stacked(problem.plan, u))
    assert report.minimizer.shape == u.shape
    assert np.all(np.isfinite(report.discrepancy))
