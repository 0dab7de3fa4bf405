import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensemble_oc as eoc
from ensemble_oc import transcription as tr
from ensemble_oc import (
    CostSpec,
    Dirac,
    NlpPoint,
    OcProblem,
    PathBound,
    RandomInputSpec,
    StepScheme,
    Uniform,
    clip_controls,
    uniform_plan,
)
from test_integrators import Zero


def _zero_dyn_problem(n_segments=1, steps=4, M=1, q=0.0):
    return OcProblem(
        model=Zero(),
        plan=uniform_plan(2.0, n_segments, 2.0 / (n_segments * steps)),
        scheme=StepScheme("euler"),
        initial=RandomInputSpec((Dirac(0.0), Dirac(0.0))),
        M=M,
        cost=CostSpec(
            terminal_weights=np.array([2.0, 2.0]),
            terminal_target=np.array([3.0, 3.0]),
            control_energy=q,
        ),
        control_lo=np.array([-np.inf]),
        control_hi=np.array([np.inf]),
    )


def _ugv_instance(M=2, segments=2, steps=5, seed=0, q=0.01):
    plan = uniform_plan(1.0, segments, 1.0 / (segments * steps))
    return OcProblem(
        model=eoc.UgvDifferentialDrive(random_radius=True),
        plan=plan,
        scheme=StepScheme("rk4"),
        initial=RandomInputSpec(
            (Uniform(-0.05, 0.05), Uniform(-0.05, 0.05), Uniform(-0.05, 0.05), Uniform(1.0, 1.5))
        ),
        M=M,
        cost=CostSpec(
            terminal_weights=np.array([1.0, 1.0, 0.0, 0.0]),
            terminal_target=np.array([3.0, 3.0, 0.0, 0.0]),
            control_energy=q,
        ),
        control_lo=np.array([-1.0, -1.0]),
        control_hi=np.array([1.0, 1.0]),
        seed=seed,
    )


def _running_cost(problem):
    c = problem.cost
    return problem.replace(cost=CostSpec(
        c.terminal_weights, c.terminal_target, c.control_energy,
        running_weights=np.array([0.5, 0.3, 0.2, 0.0]),
    ))


def _random_point(problem, rng, jitter=0.02):
    blocks = tuple(
        rng.uniform(-0.9, 0.9, (seg.steps, problem.model.m))
        for seg in problem.plan.segments
    )
    warm = tr.default_start(problem, tr.ControlSchedule(problem.plan, blocks))
    ifaces = tuple(
        s + jitter * rng.standard_normal(s.shape) for s in warm.interface_states
    )
    return NlpPoint(blocks, ifaces)


def test_objective_zero_dynamics_distance():
    # state never moves, so the cost is the squared distance to (3, 3)
    problem = _zero_dyn_problem()
    point = tr.default_start(problem)
    assert eoc.evaluate_objective(problem, point) == pytest.approx(18.0)


def test_objective_control_energy_only():
    problem = OcProblem(
        model=Zero(),
        plan=uniform_plan(10.0, 1, 0.5),
        scheme=StepScheme("euler"),
        initial=RandomInputSpec((Dirac(0.0), Dirac(0.0))),
        M=1,
        cost=CostSpec(
            terminal_weights=np.zeros(2),
            terminal_target=np.zeros(2),
            control_energy=0.002,
        ),
        control_lo=np.array([-np.inf]),
        control_hi=np.array([np.inf]),
    )
    # constant u = 1 on one channel gives (q/2) * |u|^2 * t_f = 0.01; two
    # channels of the ground-vehicle form would double it, this model has one
    point = tr.default_start(problem, np.array([1.0]))
    assert eoc.evaluate_objective(problem, point) == pytest.approx(0.001 * 10.0)


def test_zero_dynamics_gradient_structure():
    problem = _zero_dyn_problem(n_segments=2, steps=3, M=4)
    point = tr.default_start(problem)
    value, grad = eoc.objective_gradient(problem, point)
    assert value == pytest.approx(18.0)
    for block in grad.controls:
        np.testing.assert_array_equal(block, 0.0)
    # terminal gradient flows to the interface states: 2 (x - 3) / M per sample
    np.testing.assert_allclose(
        grad.interface_states[0], 2.0 * (0.0 - 3.0) / 4 * np.ones((4, 2))
    )


def test_objective_gradient_matches_fd(rng):
    problem = _ugv_instance(M=3, segments=2, steps=5)
    point = _random_point(problem, rng)
    _, grad = eoc.objective_gradient(problem, point)

    def functional(vec):
        return eoc.evaluate_objective(problem, NlpPoint.from_vector(problem, vec))

    fd = eoc.fd_gradient(functional, point.to_vector())
    assert np.abs(grad.to_vector() - fd).max() <= 1e-5


def test_continuity_zero_at_warm_start():
    problem = _ugv_instance(M=2)
    point = tr.default_start(problem, np.array([0.5, -0.25]))
    c, grad = eoc.continuity_residual(problem, point)
    assert c == 0.0
    assert np.abs(grad.to_vector()).max() <= 1e-14


def test_continuity_hand_value():
    # M = 2 with per-sample gaps (1,0,0,0) and (0,1,0,0): c = (1 + 1) / 2
    problem = _ugv_instance(M=2, segments=2, steps=2, q=0.0)
    warm = tr.default_start(problem)
    shifted = warm.interface_states[0].copy()
    shifted[0, 0] -= 1.0
    shifted[1, 1] -= 1.0
    point = NlpPoint(warm.controls, (shifted,))
    c, _ = eoc.continuity_residual(problem, point)
    assert c == pytest.approx(1.0)


def test_continuity_gradient_matches_fd(rng):
    problem = _ugv_instance(M=2, segments=3, steps=4)
    point = _random_point(problem, rng, jitter=0.05)
    c, grad = eoc.continuity_residual(problem, point)
    assert c > 0

    def functional(vec):
        return tr.continuity_residual(problem, NlpPoint.from_vector(problem, vec))[0]

    fd = eoc.fd_gradient(functional, point.to_vector())
    assert np.abs(grad.to_vector() - fd).max() <= 1e-6


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_continuity_nonnegative(seed):
    gen = np.random.Generator(np.random.Philox(seed))
    problem = _ugv_instance(M=2, segments=2, steps=3)
    point = _random_point(problem, gen, jitter=0.1)
    c, _ = eoc.continuity_residual(problem, point)
    assert c >= 0.0


def test_single_vs_multi_shooting_objective_agree(rng):
    # a feasible 2-segment point evaluates exactly like single shooting
    single = _ugv_instance(M=3, segments=1, steps=10, seed=5)
    double = _ugv_instance(M=3, segments=2, steps=5, seed=5)
    stacked = rng.uniform(-1, 1, (10, 2))
    p1 = tr.default_start(single, tr.ControlSchedule(single.plan, (stacked,)))
    p2 = tr.default_start(
        double, tr.ControlSchedule(double.plan, (stacked[:5], stacked[5:]))
    )
    c, _ = eoc.continuity_residual(double, p2)
    assert c == 0.0
    j1 = eoc.evaluate_objective(single, p1)
    j2 = eoc.evaluate_objective(double, p2)
    assert abs(j1 - j2) <= 1e-10


def test_path_constraint_values_mean_semantics():
    problem = OcProblem(
        model=Zero(),
        plan=uniform_plan(1.0, 1, 0.5),
        scheme=StepScheme("euler"),
        initial=RandomInputSpec((Dirac(10.0), Dirac(20.0))),
        M=1,
        cost=CostSpec(terminal_weights=np.zeros(2), terminal_target=np.zeros(2)),
        control_lo=np.array([-1.0]),
        control_hi=np.array([1.0]),
        path_bounds=(PathBound(0, lo=13.0),),
    )
    # a single mean at 10 violates; two samples at 10 and 20 average to 15
    point = tr.default_start(problem)
    values = eoc.path_constraint_values(problem, point)
    assert all(v.value == 10.0 for v in values)

    spec2 = RandomInputSpec((Uniform(10.0, 10.0), Dirac(0.0)))
    problem2 = problem.replace(
        initial=RandomInputSpec((Dirac(10.0), Dirac(0.0))), M=2
    )
    # emulate one sample at 10 and one at 20 through a two-point support
    x0 = tr.initial_ensemble(problem2)
    assert x0.shape == (2, 2)
    values = eoc.path_constraint_values(problem2, tr.default_start(problem2))
    assert all(v.value == 10.0 for v in values)


def test_path_values_constant_interior():
    problem = OcProblem(
        model=Zero(),
        plan=uniform_plan(1.0, 1, 0.25),
        scheme=StepScheme("euler"),
        initial=RandomInputSpec((Dirac(27.5), Dirac(0.0))),
        M=3,
        cost=CostSpec(terminal_weights=np.zeros(2), terminal_target=np.zeros(2)),
        control_lo=np.array([-1.0]),
        control_hi=np.array([1.0]),
        path_bounds=(PathBound(0, 13.0, 42.0),),
    )
    values = eoc.path_constraint_values(problem, tr.default_start(problem))
    assert len(values) == 5
    for v in values:
        assert v.value == pytest.approx(27.5)
        assert v.lo < v.value < v.hi


def test_clip_controls_projection():
    plan = uniform_plan(1.0, 1, 0.5)
    point = NlpPoint((np.array([[1.5, -3.0], [0.2, 0.9]]),), ())
    clipped = clip_controls(point, [-1.0, -1.0], [1.0, 1.0])
    np.testing.assert_array_equal(clipped.controls[0], [[1.0, -1.0], [0.2, 0.9]])
    again = clip_controls(clipped, [-1.0, -1.0], [1.0, 1.0])
    np.testing.assert_array_equal(again.controls[0], clipped.controls[0])


def test_nlp_vector_roundtrip(rng):
    problem = _ugv_instance(M=2, segments=2, steps=3)
    point = _random_point(problem, rng)
    vec = point.to_vector()
    assert vec.size == tr.nlp_dimension(problem) == 2 * 6 + 1 * 2 * 4
    back = NlpPoint.from_vector(problem, vec)
    np.testing.assert_array_equal(back.to_vector(), vec)


def test_uav_objective_gradient_matches_fd(rng):
    # short horizon keeps the flight envelope valid under random controls
    problem = eoc.build("uav-stochastic", M=3, seed=4, t_f=1.0, dt=0.25)
    blocks = (rng.uniform(-0.04, 0.04, (4, 3)),)
    point = NlpPoint(blocks, ())
    _, grad = eoc.objective_gradient(problem, point)
    fd = tr.fd_objective_gradient(problem, point)
    scale = 1.0 + np.abs(grad.to_vector()).max()
    assert np.abs(grad.to_vector() - fd.to_vector()).max() <= 1e-5 * scale


def test_pde_objective_gradient_matches_fd(rng):
    problem = eoc.build("pde-stochastic", n_nodes=10, M=4, seed=2, t_f=0.2, dt=0.002)
    blocks = (rng.uniform(-1.0, 1.0, (100, 1)),)
    point = NlpPoint(blocks, ())
    _, grad = eoc.objective_gradient(problem, point)
    fd = tr.fd_objective_gradient(problem, point)
    assert np.abs(grad.to_vector() - fd.to_vector()).max() <= 1e-5


def test_uav_path_values_along_flight(rng):
    problem = eoc.build("uav-stochastic", M=6, seed=1, t_f=1.0, dt=0.25)
    point = tr.default_start(problem)
    values = eoc.path_constraint_values(problem, point)
    # four bounded coordinates (the periodic heading is excluded) at five nodes
    assert len(values) == 4 * 5
    by_state = {}
    for v in values:
        by_state.setdefault(v.state_index, []).append(v)
    # speed stays near its 27.5 m/s mean and inside [13, 42]
    speeds = [v.value for v in by_state[3]]
    assert all(13.0 < s < 42.0 for s in speeds)
    assert abs(speeds[0] - 27.5) < 1.5
    # attack-angle band is the tighter path bound
    assert by_state[7][0].hi == pytest.approx(np.pi / 12)


def test_batched_fd_matches_serial(rng):
    problem = _ugv_instance(M=2, segments=1, steps=6)
    point = _random_point(problem, rng)
    batched = tr.fd_objective_gradient(problem, point)

    def functional(vec):
        return eoc.evaluate_objective(problem, NlpPoint.from_vector(problem, vec))

    serial = eoc.fd_gradient(functional, point.to_vector())
    assert np.abs(batched.to_vector() - serial).max() <= 1e-9


@pytest.mark.parametrize("running", [False, True])
@pytest.mark.parametrize("kind", ["rk4", "ab2"])
@pytest.mark.parametrize("segments", [1, 2, 3])
def test_batched_fd_matches_serial_every_plan(rng, segments, kind, running):
    # q != 0 and interface states off continuity; every segment's controls
    # and start states go through the one batched path
    problem = _ugv_instance(M=2, segments=segments, steps=6).replace(scheme=StepScheme(kind))
    if running:
        problem = _running_cost(problem)
    point = _random_point(problem, rng)
    batched = tr.fd_objective_gradient(problem, point).to_vector()

    def functional(vec):
        return eoc.evaluate_objective(problem, NlpPoint.from_vector(problem, vec))

    serial = eoc.fd_gradient(functional, point.to_vector())
    assert np.abs(batched - serial).max() <= 1e-8 * (1.0 + np.abs(serial).max())


@pytest.mark.parametrize("kind", ["ab2", "rk4", "euler"])
def test_batched_fd_memory_flat_in_steps(kind, rng):
    # one copied ensemble is rows x n floats; the pass keeps a few states and
    # stages of the wide ensemble, never its trajectory
    problem = _ugv_instance(M=2, segments=1, steps=200).replace(scheme=StepScheme(kind))
    point = NlpPoint((rng.uniform(-0.9, 0.9, (200, 2)),), ())
    ensemble_bytes = 2 * point.controls[0].size * problem.M * problem.model.n * 8
    tr.fd_objective_gradient(problem, point)
    tracemalloc.start()
    try:
        tr.fd_objective_gradient(problem, point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * ensemble_bytes


@pytest.mark.parametrize("kind", ["rk4", "ab2"])
@pytest.mark.parametrize("segments", [2, 3])
def test_point_without_interface_states_is_the_continuous_trajectory(rng, segments, kind):
    problem = _running_cost(
        _ugv_instance(M=3, segments=segments, steps=4).replace(scheme=StepScheme(kind))
    )
    controls = _random_point(problem, rng).controls
    continuous = NlpPoint(controls, ())
    warm = tr.default_start(problem, tr.ControlSchedule(problem.plan, controls))
    for got, want in zip(tr.forward_pass(problem, continuous), tr.forward_pass(problem, warm)):
        np.testing.assert_array_equal(got, want)

    _, grad = eoc.objective_gradient(problem, continuous)
    assert grad.interface_states == ()
    m = problem.model.m
    ends = np.cumsum([seg.steps * m for seg in problem.plan.segments])[:-1]

    def functional(vec):
        blocks = tuple(b.reshape(-1, m) for b in np.split(vec, ends))
        return eoc.evaluate_objective(problem, NlpPoint(blocks, ()))

    fd = eoc.fd_gradient(functional, continuous.to_vector())
    assert np.abs(grad.to_vector() - fd).max() <= 1e-6 * np.abs(fd).max()


def test_problem_rejects_equal_control_bounds():
    # the log barrier has no interior on a channel with lo == hi
    problem = _ugv_instance()
    with pytest.raises(eoc.ParameterError, match=r"control_bounds.*\[1\]"):
        problem.replace(control_lo=np.array([-1.0, 0.0]), control_hi=np.array([1.0, 0.0]))


def test_path_bound_rejects_equal_bounds():
    with pytest.raises(eoc.ParameterError, match="path bound on state 2"):
        PathBound(2, lo=0.5, hi=0.5)


@pytest.mark.parametrize("segments", [2, 3])
def test_forward_pass_rejects_partial_interface_layouts(rng, segments):
    problem = _ugv_instance(M=2, segments=segments, steps=3)
    point = _random_point(problem, rng)
    state = point.interface_states[0]
    for count in {1, segments} - {0, segments - 1}:
        with pytest.raises(eoc.ShapeMismatchError, match="interface states"):
            tr.forward_pass(problem, NlpPoint(point.controls, count * (state,)))


def test_fd_gradient_needs_interface_states(rng):
    problem = _ugv_instance(M=2, segments=2, steps=3)
    point = _random_point(problem, rng)
    with pytest.raises(eoc.ShapeMismatchError, match="start states"):
        tr.fd_objective_gradient(problem, NlpPoint(point.controls, ()))
