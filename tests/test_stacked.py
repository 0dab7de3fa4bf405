"""Stacked multiple shooting: the segments of a point with interface states
march and sweep as one stack per group of equal (dt, steps). Every result
must equal, bit for bit, the segment-by-segment loop kept here as the
reference."""

import tracemalloc

import numpy as np
import pytest

import ensemble_oc as eoc
from ensemble_oc import problems, solver
from ensemble_oc import transcription as tr
from ensemble_oc.grids import ControlSchedule, Segment, ShootingPlan
from ensemble_oc.models import DynamicsModel
from ensemble_oc.transcription import NlpPoint


def _reference_forward(problem, point):
    """One propagate_segment per segment, in order."""
    segs = []
    for k, u in enumerate(point.controls):
        if k == 0:
            start = tr.initial_ensemble(problem)
        elif point.interface_states:
            start = point.interface_states[k - 1]
        else:
            start = segs[-1][-1]
        segs.append(eoc.propagate_segment(problem.segment_scheme(k), problem.model, start, u))
    return segs


def _reference_gradient(problem, point, segs, objective=True, gap_weight=0.0, path_coefs=None):
    """merit_gradient as one backward sweep per segment, last first."""
    cost, M, n_seg = problem.cost, problem.M, len(segs)
    terminal = [np.zeros_like(states[-1]) for states in segs]
    running = [None] * n_seg
    if objective:
        terminal[-1] = cost.terminal_grad(segs[-1][-1]) / M
        if cost.has_running:
            for k, (seg, states) in enumerate(zip(problem.plan.segments, segs)):
                arr = np.zeros_like(states)
                np.subtract(states[:-1], cost.running_target, out=arr[:-1])
                arr[:-1] *= cost.running_weights
                arr[:-1] *= seg.dt / M
                running[k] = arr
    gaps = [states[-1] - start for states, start in zip(segs, point.interface_states)]
    gaps = gaps if gap_weight != 0.0 else []
    for k, gap in enumerate(gaps):
        terminal[k] = terminal[k] + (2.0 * gap_weight / M) * gap
    if path_coefs is not None:
        for k, coef in enumerate(path_coefs):
            base = np.zeros_like(segs[k]) if running[k] is None else running[k]
            running[k] = base + coef[:, None, :] / M
    du, dx0 = [None] * n_seg, [None] * n_seg
    for k in range(n_seg - 1, -1, -1):
        seed = terminal[k]
        if not point.interface_states and k < n_seg - 1:
            seed = seed + dx0[k + 1]
        du[k], dx0[k] = eoc.backward_gradient(
            problem.segment_scheme(k), problem.model, segs[k], point.controls[k], seed,
            running_seed=running[k],
        )
    q = cost.control_energy if objective else 0.0
    if q != 0.0:
        for k, seg in enumerate(problem.plan.segments):
            du[k] = du[k] + q * seg.dt * point.controls[k]
    iface = dx0[1:] if point.interface_states else []
    for k, gap in enumerate(gaps):
        iface[k] = iface[k] - (2.0 * gap_weight / M) * gap
    return NlpPoint(tuple(du), tuple(iface))


def _assert_points_equal(a, b):
    assert len(a.controls) == len(b.controls)
    assert len(a.interface_states) == len(b.interface_states)
    for x, y in zip(a.controls + a.interface_states, b.controls + b.interface_states):
        assert x.shape == y.shape and np.array_equal(x, y)


def _point(problem, seed, amp=0.9, jitter=0.02):
    rng = np.random.Generator(np.random.Philox(seed))
    blocks = tuple(
        np.clip(rng.uniform(-amp, amp, (seg.steps, problem.model.m)),
                problem.control_lo, problem.control_hi)
        for seg in problem.plan.segments
    )
    warm = tr.default_start(problem, ControlSchedule(problem.plan, blocks))
    ifaces = tuple(s + jitter * rng.standard_normal(s.shape) for s in warm.interface_states)
    return NlpPoint(blocks, ifaces)


def _check_against_reference(problem, point, path=False):
    for p in (point, NlpPoint(point.controls, ())):
        ref = _reference_forward(problem, p)
        segs = tr.forward_pass(problem, p)
        assert len(segs) == len(ref)
        for states, expected in zip(segs, ref):
            assert states.shape == expected.shape and np.array_equal(states, expected)

        value = tr.evaluate_objective(problem, p, ref)
        assert tr.evaluate_objective(problem, p, segs) == value
        assert tr.evaluate_objective(problem, p) == value
        v, grad = tr.objective_gradient(problem, p)
        assert v == value
        _assert_points_equal(grad, _reference_gradient(problem, p, ref))

        c, c_grad = tr.continuity_residual(problem, p)
        if p.interface_states:
            gaps = [s[-1] - x for s, x in zip(ref, p.interface_states)]
            assert c == sum(float(np.sum(g * g)) for g in gaps) / problem.M
            _assert_points_equal(
                c_grad, _reference_gradient(problem, p, ref, objective=False, gap_weight=1.0)
            )
        else:
            assert c == 0.0

        coefs = None
        if path:
            coefs = solver._path_barrier_terms(problem, tr.segment_means(ref), 0.1)[1]
        _assert_points_equal(
            tr.merit_gradient(problem, p, segs, gap_weight=0.7, path_coefs=coefs),
            _reference_gradient(problem, p, ref, gap_weight=0.7, path_coefs=coefs),
        )


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("M", [1, 20, 4682, 5000])
def test_ugv_segments_equal_the_segment_loop(M, K):
    # 4682 samples straddle the sweep's sample batch of 4681
    steps = 10 if M < 100 else 3
    problem = problems.build("ugv-stochastic", M=M, seed=3, segments=K, dt=0.05,
                             t_f=0.05 * steps * K)
    _check_against_reference(problem, _point(problem, 10 + K))


@pytest.mark.parametrize("kind", ["ab2", "ab3"])
def test_adams_bashforth_segments_equal_the_segment_loop(kind):
    # four steps per segment: every segment runs its bootstrap steps
    problem = problems.build("ugv-stochastic", M=7, seed=4, segments=3, dt=0.05,
                             t_f=0.6).replace(scheme=eoc.StepScheme(kind))
    _check_against_reference(problem, _point(problem, 5))


def test_bicycle_segments_equal_the_segment_loop():
    problem = problems.build("ugv-bicycle", M=5, seed=5, segments=2, t_f=2.0)
    _check_against_reference(problem, _point(problem, 6))


def test_uav_segments_with_path_bounds_equal_the_segment_loop():
    problem = problems.build("uav-stochastic", M=8, seed=6, segments=2, t_f=2.0)
    assert problem.path_bounds
    _check_against_reference(problem, _point(problem, 7, amp=0.02, jitter=0.0), path=True)


@pytest.mark.parametrize("M", [25, 600])
def test_field_segments_with_running_cost_equal_the_segment_loop(M):
    problem = problems.build("pde-stochastic", n_nodes=16, M=M, seed=7, segments=2,
                             dt=0.002, t_f=0.04)
    assert problem.cost.has_running
    _check_against_reference(problem, _point(problem, 8, jitter=0.001))


def test_plan_with_two_groups_equals_the_segment_loop():
    plan = ShootingPlan((Segment(0.0, 1.0, 10), Segment(1.0, 1.5, 10),
                         Segment(1.5, 2.5, 10), Segment(2.5, 3.0, 10)))
    problem = problems.build("ugv-stochastic", M=7, seed=8).replace(plan=plan)
    assert tr._groups(problem, 4, continuous=False) == [(0, 2), (1, 3)]
    _check_against_reference(problem, _point(problem, 9))


def _solve_logged(problem, start, cfg):
    lines = []
    report = solver.solve(problem, start, cfg, log=lines.append)
    return report, lines


@pytest.mark.parametrize("case", ["ugv", "field"])
def test_solve_report_equals_segment_by_segment_solve(monkeypatch, case):
    if case == "ugv":
        problem = problems.build("ugv-stochastic", M=20, seed=42)
    else:
        problem = problems.build("pde-stochastic", n_nodes=16, M=25, seed=9, segments=2,
                                 dt=0.002, t_f=0.2)
    cfg = solver.SolverConfig(max_inner=6, max_outer=2, polish_max_inner=5)
    start = tr.default_start(problem)
    stacked, stacked_log = _solve_logged(problem, start, cfg)
    # every segment a group of its own: the segment-by-segment passes
    monkeypatch.setattr(tr, "_groups", lambda problem, count, continuous: [
        (k,) for k in range(count)])
    single, single_log = _solve_logged(problem, start, cfg)
    assert stacked_log == single_log
    assert np.array_equal(stacked.point.to_vector(), single.point.to_vector())
    for name in ("objective", "continuity_residual", "max_bound_violation", "grad_inf",
                 "outer_iterations", "inner_iterations", "status", "history"):
        assert getattr(stacked, name) == getattr(single, name)


class Blowup(DynamicsModel):
    """x' = x^2 + u: a start x0 > 0 reaches infinity at t = 1 / x0."""

    n = 1
    m = 1
    name = "blowup"

    def rhs(self, x, u):
        return x * x + u

    def jac_x(self, x, u):
        return (2.0 * x)[..., None]

    def jac_u(self, x, u):
        return np.ones(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (1, 1))


def _blowup_problem(lo, hi):
    return tr.OcProblem(
        model=Blowup(),
        plan=eoc.uniform_plan(2.0, 2, 0.01),
        scheme=eoc.StepScheme("rk4"),
        initial=eoc.RandomInputSpec((eoc.Uniform(lo, hi),)),
        M=3,
        cost=tr.CostSpec(terminal_weights=np.ones(1), terminal_target=np.zeros(1)),
        control_lo=np.array([-1.0]),
        control_hi=np.array([1.0]),
        seed=1,
    )


def _raised(fn, *args):
    with pytest.raises((eoc.PropagationError, eoc.DomainError)) as info:
        fn(*args)
    err = info.value
    return type(err), str(err), err.sample_index, err.step_index


def test_divergence_names_the_first_failing_segment_in_order():
    problem = _blowup_problem(1.5, 3.0)
    controls = (np.zeros((100, 1)), np.zeros((100, 1)))
    # segment 0 blows up within its 100 steps, segment 1 (sample 1) sooner
    point = NlpPoint(controls, (np.array([[0.1], [40.0], [0.2]]),))
    first = _raised(eoc.propagate_segment, problem.segment_scheme(0), problem.model,
                    tr.initial_ensemble(problem), controls[0])
    later = _raised(eoc.propagate_segment, problem.segment_scheme(1), problem.model,
                    point.interface_states[0], controls[1])
    assert later[3] < first[3]
    assert _raised(tr.forward_pass, problem, point) == first
    assert _raised(tr.evaluate_objective, problem, point) == first

    # segment 0 propagates: the error is segment 1's, indexed within it
    calm = _blowup_problem(0.1, 0.3)
    assert later[2] == 1
    assert _raised(tr.forward_pass, calm, point) == later
    assert _raised(tr.evaluate_objective, calm, point) == later
    with pytest.raises(eoc.ParameterError, match=rf"\(sample 1, step {later[3]}\)$"):
        solver.solve(calm, point)


def test_steering_error_names_the_first_failing_segment_in_order():
    problem = problems.build("ugv-bicycle", M=3, seed=5, segments=2, t_f=2.0)
    point = _point(problem, 11)
    blocks = [b.copy() for b in point.controls]
    blocks[1][3, 1] = 1.7  # segment 1 fails at step 3, segment 0 at step 7
    blocks[0][7, 1] = -1.6
    bad = NlpPoint(tuple(blocks), point.interface_states)
    first = _raised(eoc.propagate_segment, problem.segment_scheme(0), problem.model,
                    tr.initial_ensemble(problem), blocks[0])
    assert first[0] is eoc.DomainError and first[2:] == (None, 7)
    assert _raised(tr.forward_pass, problem, bad) == first
    assert _raised(tr.evaluate_objective, problem, bad) == first

    only_later = NlpPoint((point.controls[0], blocks[1]), point.interface_states)
    later = _raised(eoc.propagate_segment, problem.segment_scheme(1), problem.model,
                    point.interface_states[0], blocks[1])
    assert later[2:] == (None, 3)
    assert _raised(tr.forward_pass, problem, only_later) == later


def test_stacked_gradient_peak_memory_no_higher_than_segment_loop():
    problem = problems.build("ugv-stochastic", M=5000, seed=11, t_f=2.0).replace(
        scheme=eoc.StepScheme("ab2"))
    rng = np.random.Generator(np.random.Philox(3))
    u = rng.uniform(-0.5, 0.5, (problem.plan.total_steps, 2))
    point = tr.default_start(problem, ControlSchedule.from_stacked(problem.plan, u))

    def reference():
        segs = _reference_forward(problem, point)
        value = tr.evaluate_objective(problem, point, segs)
        return value, _reference_gradient(problem, point, segs)

    def peak(fn):
        fn()
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    stacked_peak, (value, grad) = peak(lambda: tr.objective_gradient(problem, point))
    reference_peak, (ref_value, ref_grad) = peak(reference)
    assert value == ref_value
    _assert_points_equal(grad, ref_grad)
    assert stacked_peak <= reference_peak
