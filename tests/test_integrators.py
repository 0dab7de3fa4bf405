import warnings

import numpy as np
import pytest

from ensemble_oc import (
    DomainError,
    ParameterError,
    PropagationError,
    StepScheme,
    UgvDifferentialDrive,
    propagate_segment,
    step,
    step_jacobians,
)
from ensemble_oc.models import DynamicsModel


class Linear1d(DynamicsModel):
    """x' = a x + b u, the analytic workhorse for order checks."""

    n = 1
    m = 1
    control_affine = True
    name = "linear_1d"

    def __init__(self, a=1.0, b=0.0):
        self.a, self.b = a, b

    def rhs(self, x, u):
        return self.a * x + self.b * u

    def jac_x(self, x, u):
        shape = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        return np.full(shape + (1, 1), self.a)

    def jac_u(self, x, u):
        shape = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        return np.full(shape + (1, 1), self.b)


class Zero(DynamicsModel):
    n = 2
    m = 1
    name = "zero"

    def rhs(self, x, u):
        return np.zeros(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (2,))

    def jac_x(self, x, u):
        return np.zeros(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (2, 2))

    def jac_u(self, x, u):
        return np.zeros(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (2, 1))


class Blowup(DynamicsModel):
    n = 1
    m = 1
    name = "blowup"

    def rhs(self, x, u):
        return x * x * 1e8

    def jac_x(self, x, u):
        return (2e8 * x)[..., None, None] * np.ones((1, 1))

    def jac_u(self, x, u):
        return np.zeros(x.shape[:-1] + (1, 1))


ALL_KINDS = ["euler", "rk2", "rk3", "rk4", "ab1", "ab2", "ab3"]


def test_consistency_weights_sum_to_one():
    for kind in ALL_KINDS:
        assert StepScheme(kind, 0.1).weights.sum() == pytest.approx(1.0)


def test_ab_weight_tables():
    np.testing.assert_allclose(StepScheme("ab1", 1.0).weights, [1.0])
    np.testing.assert_allclose(StepScheme("ab2", 1.0).weights, [1.5, -0.5])
    np.testing.assert_allclose(
        StepScheme("ab3", 1.0).weights, [23 / 12, -16 / 12, 5 / 12]
    )


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        StepScheme("rk5", 0.1)
    with pytest.raises(ParameterError):
        StepScheme("rk4", -0.1)


def test_euler_step_hand_value():
    model = UgvDifferentialDrive(random_radius=False, radius=1.25)
    out = step(StepScheme("euler", 0.1), model, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [0.125, 0.0, 0.0])


@pytest.mark.parametrize("kind", ["euler", "rk3", "rk4"])
def test_zero_field_is_identity(kind, rng):
    x = rng.standard_normal((5, 2))
    out = step(StepScheme(kind, 0.3), Zero(), x, np.array([0.7]))
    np.testing.assert_array_equal(out, x)


def test_rk4_one_step_of_exponential():
    out = step(StepScheme("rk4", 0.1), Linear1d(a=1.0), np.array([1.0]), np.array([0.0]))
    # truncated exponential series: within 1e-7 of exp(0.1) = 1.105170918
    assert out[0] == pytest.approx(np.exp(0.1), abs=1e-7)
    assert out[0] == pytest.approx(1.1051708333333332, abs=1e-13)


# ab3 sits slightly above its asymptotic rate at dt = 0.1 even with exact
# starting values, so it gets the next finer step triple
@pytest.mark.parametrize(
    "kind,order,dts",
    [
        ("euler", 1, (0.1, 0.05, 0.025)),
        ("rk2", 2, (0.1, 0.05, 0.025)),
        ("rk3", 3, (0.1, 0.05, 0.025)),
        ("rk4", 4, (0.1, 0.05, 0.025)),
        ("ab2", 2, (0.1, 0.05, 0.025)),
        ("ab3", 3, (0.05, 0.025, 0.0125)),
    ],
)
def test_empirical_convergence_order(kind, order, dts):
    model = Linear1d(a=1.0)
    t_final = 1.0
    errors = []
    for dt in dts:
        steps = round(t_final / dt)
        states = propagate_segment(
            StepScheme(kind, dt), model, np.array([[1.0]]), np.zeros((steps, 1))
        )
        errors.append(abs(states[-1, 0, 0] - np.e))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(rates) >= order - 0.2


def test_step_jacobians_identity_when_no_feedback():
    a_mat, b_mat = step_jacobians(StepScheme("euler", 0.25), Zero(), np.zeros((3, 2)), np.array([0.1]))
    np.testing.assert_array_equal(a_mat, np.broadcast_to(np.eye(2), (3, 2, 2)))
    np.testing.assert_array_equal(b_mat, np.zeros((3, 2, 1)))


def test_euler_step_jacobians_hand_value():
    model = UgvDifferentialDrive(random_radius=False, radius=1.25)
    x = np.array([0.0, 0.0, 0.0])
    u = np.array([1.0, 0.0])
    a_mat, b_mat = step_jacobians(StepScheme("euler", 0.1), model, x, u)
    np.testing.assert_allclose(a_mat, np.eye(3) + 0.1 * model.jac_x(x, u))
    assert b_mat[2, 1] == pytest.approx(0.125)


def test_rk4_step_jacobians_match_fd(rng):
    model = UgvDifferentialDrive(random_radius=True)
    scheme = StepScheme("rk4", 0.07)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-1, 1, 4)
        x[3] = rng.uniform(1.0, 1.5)
        u = rng.uniform(-1, 1, 2)
        a_mat, b_mat = step_jacobians(scheme, model, x, u)
        h = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            col = (step(scheme, model, xp, u) - step(scheme, model, xm, u)) / (2 * h)
            worst = max(worst, np.abs(a_mat[:, i] - col).max())
        for i in range(2):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            col = (step(scheme, model, x, up) - step(scheme, model, x, um)) / (2 * h)
            worst = max(worst, np.abs(b_mat[:, i] - col).max())
    assert worst <= 1e-6


def test_multistep_jacobians_rejected():
    with pytest.raises(ParameterError):
        step_jacobians(StepScheme("ab2", 0.1), Linear1d(), np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize("kind", ["ab2", "ab3"])
def test_step_rejects_multistep(kind):
    with pytest.raises(ParameterError):
        step(StepScheme(kind, 0.1), Linear1d(), np.array([1.0]), np.array([0.0]))


def test_propagate_telescoping_sum():
    # x' = u with Euler and dt = 1 accumulates the partial sums of u
    model = Linear1d(a=0.0, b=1.0)
    controls = np.array([[1.0], [2.0], [3.0]])
    states = propagate_segment(StepScheme("euler", 1.0), model, np.array([[0.0]]), controls)
    np.testing.assert_allclose(states[:, 0, 0], [0.0, 1.0, 3.0, 6.0])


def test_propagate_zero_controls_keeps_ugv_still():
    model = UgvDifferentialDrive(random_radius=True)
    x0 = np.array([[0.2, -0.4, 0.1, 1.2]])
    states = propagate_segment(StepScheme("rk4", 0.1), model, x0, np.zeros((10, 2)))
    np.testing.assert_array_equal(states, np.broadcast_to(x0, (11, 1, 4)))


def test_propagate_batch_invariance(rng):
    model = UgvDifferentialDrive(random_radius=True)
    x0 = rng.uniform(-0.5, 0.5, (16, 4))
    x0[:, 3] = rng.uniform(1.0, 1.5, 16)
    controls = rng.uniform(-1, 1, (25, 2))
    scheme = StepScheme("rk4", 0.05)
    full = propagate_segment(scheme, model, x0, controls)
    half_a = propagate_segment(scheme, model, x0[:8], controls)
    half_b = propagate_segment(scheme, model, x0[8:], controls)
    glued = np.concatenate([half_a, half_b], axis=1)
    assert np.abs(full - glued).max() <= 1e-12


def test_per_sample_controls_match_individual_runs(rng):
    model = UgvDifferentialDrive(random_radius=False)
    x0 = rng.uniform(-0.5, 0.5, (3, 3))
    per_sample = rng.uniform(-1, 1, (8, 3, 2))
    scheme = StepScheme("rk3", 0.1)
    batched = propagate_segment(scheme, model, x0, per_sample)
    for i in range(3):
        single = propagate_segment(scheme, model, x0[i : i + 1], per_sample[:, i])
        np.testing.assert_allclose(batched[:, i], single[:, 0], atol=1e-14)


def test_propagation_failure_carries_indices():
    model = Blowup()
    x0 = np.array([[0.0], [1.0]])
    with pytest.raises(PropagationError) as err:
        propagate_segment(StepScheme("euler", 1.0), model, x0, np.zeros((10, 1)))
    assert err.value.sample_index == 1
    assert err.value.step_index is not None


@pytest.mark.parametrize("kind", ["euler", "rk4", "ab2"])
def test_propagation_failure_names_step_once_without_warnings(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PropagationError) as err:
            propagate_segment(
                StepScheme(kind, 1.0), Blowup(), np.array([[0.0], [1.0]]), np.zeros((10, 1))
            )
    assert str(err.value) == (
        f"propagation produced a non-finite state (sample 1, step {err.value.step_index})"
    )


def test_ab_bootstrap_matches_reference_update():
    # after the startup step, ab2 must reproduce the two-term update exactly
    model = Linear1d(a=-0.8)
    scheme = StepScheme("ab2", 0.1)
    states = propagate_segment(scheme, model, np.array([[1.0]]), np.zeros((4, 1)))
    f = lambda x: -0.8 * x
    x1 = states[1, 0, 0]
    expected2 = x1 + 0.1 * (1.5 * f(x1) - 0.5 * f(1.0))
    assert states[2, 0, 0] == pytest.approx(expected2, abs=1e-15)


class Capped(DynamicsModel):
    """x' = 1, valid only while x < 0.595."""

    n = 1
    m = 1
    name = "capped"

    def rhs(self, x, u):
        bad = x[..., 0] >= 0.595
        if np.any(bad):
            raise DomainError("x must stay below 0.595", sample_index=int(np.flatnonzero(bad)[0]))
        return np.ones_like(x)

    def jac_x(self, x, u):
        return np.zeros(x.shape + (1,))

    def jac_u(self, x, u):
        return np.zeros(x.shape + (1,))


@pytest.mark.parametrize("kind,step_index", [("rk4", 5), ("ab2", 6)])
def test_domain_error_carries_step_index(kind, step_index):
    # sample 1 sits at 0.02 + 0.1 j: rk4 reaches 0.62 in the last stage of
    # step 5, ab2 evaluates the rhs there at the start of step 6
    x0 = np.array([[-1.0], [0.02], [-0.3]])
    with pytest.raises(DomainError) as err:
        propagate_segment(StepScheme(kind, 0.1), Capped(), x0, np.zeros((10, 1)))
    assert err.value.sample_index == 1
    assert err.value.step_index == step_index
