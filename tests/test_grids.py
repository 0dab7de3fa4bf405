import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_oc import (
    ControlSchedule,
    EmptyEnsembleError,
    ParameterError,
    Segment,
    ShootingPlan,
    ensemble_mean,
    grid_times,
    uniform_plan,
)


def test_single_segment_grid():
    plan = ShootingPlan((Segment(0.0, 1.0, 2),))
    np.testing.assert_allclose(grid_times(plan), [0.0, 0.5, 1.0])


def test_two_segment_grid_has_duplicated_interface():
    plan = uniform_plan(10.0, 2, 0.05)
    times = grid_times(plan)
    assert times.size == 202  # (100 + 1) per segment, boundary inclusive
    assert plan.step_sizes == (0.05, 0.05)
    # the interface time appears once as a segment end and once as a start
    assert times[100] == pytest.approx(5.0) and times[101] == pytest.approx(5.0)


def test_long_single_segment_step_size():
    plan = uniform_plan(100.0, 1, 0.1)
    assert plan.total_steps == 1000
    assert plan.segments[0].dt == pytest.approx(0.1)


def test_plan_contiguity_enforced():
    with pytest.raises(ParameterError):
        ShootingPlan((Segment(0.0, 1.0, 2), Segment(1.5, 2.0, 2)))
    with pytest.raises(ParameterError):
        ShootingPlan((Segment(0.5, 1.0, 2),))
    with pytest.raises(ParameterError):
        Segment(0.0, 1.0, 0)


@settings(max_examples=30, deadline=None)
@given(
    n_segments=st.integers(1, 4),
    steps=st.lists(st.integers(1, 7), min_size=4, max_size=4),
    t_f=st.floats(0.5, 50.0, allow_nan=False),
)
def test_grid_times_properties(n_segments, steps, t_f):
    edges = np.linspace(0.0, t_f, n_segments + 1)
    plan = ShootingPlan(
        tuple(
            Segment(edges[k], edges[k + 1], steps[k]) for k in range(n_segments)
        )
    )
    times = grid_times(plan)
    assert times.size == plan.total_steps + plan.n_segments
    row = 0
    for seg in plan.segments:
        block = times[row : row + seg.steps + 1]
        assert np.all(np.diff(block) > 0)  # strictly increasing inside a segment
        assert block[0] == pytest.approx(seg.t_start)
        assert block[-1] == pytest.approx(seg.t_end)
        row += seg.steps + 1


def test_ensemble_mean_constant_rows():
    v = np.array([1.5, -2.0, 0.25])
    states = np.tile(v, (7, 1))
    np.testing.assert_array_equal(ensemble_mean(states), v)


def test_ensemble_mean_symmetry():
    states = np.array([[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(ensemble_mean(states), [1.0, 1.0])


def test_ensemble_mean_of_uniform_band(rng):
    lo, hi = 25.575, 29.425
    states = rng.uniform(lo, hi, size=(1000, 1))
    assert abs(ensemble_mean(states)[0] - 27.5) < 0.2


def test_ensemble_mean_rejects_empty():
    with pytest.raises(EmptyEnsembleError):
        ensemble_mean(np.zeros((0, 3)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ensemble_mean_permutation_invariant(seed):
    gen = np.random.Generator(np.random.Philox(seed))
    states = gen.standard_normal((11, 3))
    perm = gen.permutation(11)
    np.testing.assert_allclose(
        ensemble_mean(states), ensemble_mean(states[perm]), atol=1e-12
    )


def test_control_schedule_shape_checks():
    plan = uniform_plan(1.0, 2, 0.25)
    ControlSchedule(plan, (np.zeros((2, 2)), np.zeros((2, 2))))
    with pytest.raises(Exception):
        ControlSchedule(plan, (np.zeros((3, 2)), np.zeros((2, 2))))


def test_control_schedule_roundtrip():
    plan = uniform_plan(2.0, 2, 0.5)
    stacked = np.arange(8.0).reshape(4, 2)
    sched = ControlSchedule.from_stacked(plan, stacked)
    np.testing.assert_array_equal(sched.stacked(), stacked)
    assert sched.m == 2


@pytest.mark.parametrize("t_final", [0.0, -1.0])
def test_uniform_plan_rejects_empty_horizon(t_final):
    # the horizon is at fault, not the step size that cannot divide it
    with pytest.raises(ParameterError, match=r"need t_final > 0"):
        uniform_plan(t_final, 2, 0.05)


@pytest.mark.parametrize("t_final, dt, message", [
    (float("nan"), 0.05, "need t_final > 0, got nan"),
    (float("inf"), 0.05, "need a finite t_final, got inf"),
    (1.0, float("nan"), "need dt > 0, got nan"),
    (1.0, float("inf"), "need a finite dt, got inf"),
], ids=["t_final-nan", "t_final-inf", "dt-nan", "dt-inf"])
def test_uniform_plan_rejects_non_finite_grid(t_final, dt, message):
    with pytest.raises(ParameterError, match=message):
        uniform_plan(t_final, 2, dt)
