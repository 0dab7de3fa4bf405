import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_uav_state
from ensemble_oc import (
    ChebyshevReactionDiffusion,
    FixedWingUav,
    StepScheme,
    UgvBicycle,
    UgvDifferentialDrive,
    backward_gradient,
    fd_gradient,
    gradients,
    propagate_segment,
    step_jacobians,
)
from test_integrators import Linear1d, Zero


def test_control_integrator_terminal_quadratic():
    # x' = u, Euler, J = x_N^2 / 2: every control grid cell gets x_N * dt
    model = Linear1d(a=0.0, b=1.0)
    scheme = StepScheme("euler", 0.5)
    controls = np.array([[1.0], [2.0], [-0.5], [0.25]])
    states = propagate_segment(scheme, model, np.array([[0.3]]), controls)
    x_n = states[-1, 0, 0]
    g_u, g_x0 = backward_gradient(scheme, model, states, controls, np.array([[x_n]]))
    np.testing.assert_allclose(g_u, x_n * 0.5 * np.ones((4, 1)), atol=1e-14)
    np.testing.assert_allclose(g_x0, [[x_n]], atol=1e-14)


def test_zero_field_controls_never_enter():
    model = Zero()
    scheme = StepScheme("rk4", 0.1)
    x0 = np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 1.0]])
    controls = np.ones((6, 1))
    states = propagate_segment(scheme, model, x0, controls)
    seed = 2.0 * states[-1] / 3.0  # d/dx of mean |x|^2
    g_u, g_x0 = backward_gradient(scheme, model, states, controls, seed)
    np.testing.assert_array_equal(g_u, np.zeros((6, 1)))
    np.testing.assert_allclose(g_x0, 2.0 * x0 / 3.0)


@pytest.mark.parametrize("kind", ["euler", "rk3", "rk4", "ab2", "ab3"])
def test_backward_matches_fd_all_schemes(kind, rng):
    model = UgvBicycle()
    scheme = StepScheme(kind, 0.05)
    n_steps = 14
    x0 = rng.uniform(-1, 1, (4, 3))
    controls = rng.uniform(-0.8, 0.8, (n_steps, 2))
    w = rng.standard_normal((4, 3))
    states = propagate_segment(scheme, model, x0, controls)
    g_u, g_x0 = backward_gradient(scheme, model, states, controls, w)

    def terminal_of_u(flat):
        st_ = propagate_segment(scheme, model, x0, flat.reshape(n_steps, 2))
        return float(np.sum(w * st_[-1]))

    def terminal_of_x(flat):
        st_ = propagate_segment(scheme, model, flat.reshape(4, 3), controls)
        return float(np.sum(w * st_[-1]))

    fd_u = fd_gradient(terminal_of_u, controls.ravel()).reshape(n_steps, 2)
    fd_x = fd_gradient(terminal_of_x, x0.ravel()).reshape(4, 3)
    assert np.abs(g_u - fd_u).max() <= 1e-6
    assert np.abs(g_x0 - fd_x).max() <= 1e-6


def _reference_sweep(scheme, model, states, controls, terminal_seed, running):
    """The dense-Jacobian sweep over all samples at once: step Jacobians for
    one-step maps and bootstrap steps, model Jacobians contracted with the
    gathered Adams-Bashforth costates for the multi-step updates."""
    n_steps = controls.shape[0]
    s = scheme.ab_steps if scheme.ab_steps else 1
    w, dt = scheme.weights, scheme.dt
    du = np.zeros((n_steps, model.m))
    lam_ahead = [terminal_seed + running[n_steps]]  # costates at nodes p+1, p+2, ...
    for p in range(n_steps - 1, -1, -1):
        x_p, u_p = states[p], controls[p]
        if s == 1:
            a_mat, b_mat = step_jacobians(scheme, model, x_p, u_p)
            du[p] = np.einsum("mr,mrc->c", lam_ahead[0], b_mat)
            lam_p = np.einsum("mr,mrc->mc", lam_ahead[0], a_mat)
        else:
            gather = np.zeros_like(lam_ahead[0])
            for j in range(max(p, s - 1), min(p + s - 1, n_steps - 1) + 1):
                gather += dt * w[j - p] * lam_ahead[j - p]
            du[p] = np.einsum("mr,mrc->c", gather, model.jac_u(x_p, u_p))
            lam_p = np.einsum("mr,mrc->mc", gather, model.jac_x(x_p, u_p))
            if p <= s - 2:
                a_mat, b_mat = step_jacobians(scheme.bootstrap(), model, x_p, u_p)
                du[p] += np.einsum("mr,mrc->c", lam_ahead[0], b_mat)
                lam_p += np.einsum("mr,mrc->mc", lam_ahead[0], a_mat)
            else:
                lam_p += lam_ahead[0]
        lam_ahead.insert(0, lam_p + running[p])
    return du, lam_ahead[0]


def _force_batch(monkeypatch, model, size):
    """Make the sweep's default batch hold `size` samples of this model."""
    monkeypatch.setattr(
        gradients, "_BATCH_TARGET_FLOATS", size * model.n * (model.n + model.m + 1)
    )
    assert gradients.samples_per_batch(model.n, model.m) == size


def _sweep_case(name, rng):
    """(model, dt, x0, controls) with 7 samples: one default batch, or
    several forced ones."""
    n_steps, n_samples = 11, 7
    if name == "uav":
        x0 = np.stack([random_uav_state(rng) for _ in range(n_samples)])
        x0[:, 3] = rng.uniform(22.0, 30.0, n_samples)
        x0[:, 4] = rng.uniform(-0.1, 0.1, n_samples)
        return FixedWingUav(), 0.01, x0, rng.uniform(-0.05, 0.05, (n_steps, 3))
    if name == "chebyshev":
        model = ChebyshevReactionDiffusion(n_nodes=8)
        x0 = 0.5 * rng.standard_normal((n_samples, 8))
        return model, 0.002, x0, rng.uniform(-1, 1, (n_steps, 1))
    x0 = rng.uniform(-0.3, 0.3, (n_samples, 4))
    x0[:, 3] = rng.uniform(1.0, 1.5, n_samples)
    model = UgvDifferentialDrive(random_radius=True)
    return model, 0.05, x0, rng.uniform(-1, 1, (n_steps, 2))


@pytest.mark.parametrize("kind", ["euler", "rk2", "rk3", "rk4", "ab2", "ab3"])
@pytest.mark.parametrize("name", ["ugv", "uav", "chebyshev"])
def test_stage_reverse_sweep_matches_dense_reference(name, kind, rng, monkeypatch):
    model, dt, x0, controls = _sweep_case(name, rng)
    scheme = StepScheme(kind, dt)
    states = propagate_segment(scheme, model, x0, controls)
    seed = rng.standard_normal(x0.shape)
    running = 0.1 * rng.standard_normal(states.shape)
    ref_u, ref_x = _reference_sweep(scheme, model, states, controls, seed, running)
    for batch in (None, 3):  # one batch of all 7 samples, then batches of 3
        if batch is not None:
            _force_batch(monkeypatch, model, batch)
        g_u, g_x = backward_gradient(
            scheme, model, states, controls, seed, running_seed=running
        )
        assert np.abs(g_u - ref_u).max() <= 1e-12 * np.abs(ref_u).max()
        assert np.abs(g_x - ref_x).max() <= 1e-12 * np.abs(ref_x).max()


def test_running_seed_accumulates(rng):
    # J = sum_j dt * 1^T x_j over left nodes, via per-node running seeds
    model = UgvDifferentialDrive(random_radius=False)
    scheme = StepScheme("rk4", 0.1)
    n_steps = 10
    x0 = rng.uniform(-0.5, 0.5, (2, 3))
    controls = rng.uniform(-1, 1, (n_steps, 2))
    states = propagate_segment(scheme, model, x0, controls)
    running = np.zeros_like(states)
    running[:-1] = 0.1
    g_u, _ = backward_gradient(
        scheme, model, states, controls, np.zeros((2, 3)), running_seed=running
    )

    def functional(flat):
        st_ = propagate_segment(scheme, model, x0, flat.reshape(n_steps, 2))
        return float(0.1 * st_[:-1].sum())

    fd_u = fd_gradient(functional, controls.ravel()).reshape(n_steps, 2)
    assert np.abs(g_u - fd_u).max() <= 1e-6


def test_sample_linearity_m3(rng):
    # gradient of the 3-sample mean equals the mean of per-sample gradients
    model = UgvDifferentialDrive(random_radius=True)
    scheme = StepScheme("rk4", 0.1)
    x0 = rng.uniform(-0.3, 0.3, (3, 4))
    x0[:, 3] = rng.uniform(1.0, 1.5, 3)
    controls = rng.uniform(-1, 1, (8, 2))
    states = propagate_segment(scheme, model, x0, controls)
    seed = states[-1].copy()
    g_mean, _ = backward_gradient(scheme, model, states, controls, seed / 3.0)
    singles = []
    for i in range(3):
        g_i, _ = backward_gradient(
            scheme, model, states[:, i : i + 1], controls, seed[i : i + 1]
        )
        singles.append(g_i)
    np.testing.assert_allclose(g_mean, np.mean(singles, axis=0), atol=1e-13)


def test_batch_split_deterministic(rng, monkeypatch):
    model = UgvDifferentialDrive(random_radius=True)
    scheme = StepScheme("rk4", 0.05)
    x0 = rng.uniform(-0.3, 0.3, (37, 4))
    x0[:, 3] = rng.uniform(1.0, 1.5, 37)
    controls = rng.uniform(-1, 1, (12, 2))
    states = propagate_segment(scheme, model, x0, controls)
    seed = rng.standard_normal((37, 4))
    ref_u, ref_x = backward_gradient(scheme, model, states, controls, seed)  # one batch
    for batch in (5, 10):
        _force_batch(monkeypatch, model, batch)
        g_u, g_x = backward_gradient(scheme, model, states, controls, seed)
        np.testing.assert_allclose(g_u, ref_u, atol=1e-12)
        np.testing.assert_array_equal(g_x, ref_x)


def test_repeated_calls_bit_identical(rng):
    model = UgvBicycle()
    scheme = StepScheme("rk3", 0.1)
    x0 = rng.uniform(-1, 1, (5, 3))
    controls = rng.uniform(-0.9, 0.9, (9, 2))
    states = propagate_segment(scheme, model, x0, controls)
    seed = rng.standard_normal((5, 3))
    a = backward_gradient(scheme, model, states, controls, seed)
    b = backward_gradient(scheme, model, states, controls, seed)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_fd_exact_on_quadratic():
    g = fd_gradient(lambda v: float(v[0] ** 2), np.array([1.0]), h=1e-4)
    assert g[0] == pytest.approx(2.0, abs=1e-10)


def test_fd_sine_taylor_bound():
    g = fd_gradient(lambda v: float(np.sin(v[0])), np.array([0.0]), h=1e-4)
    assert g[0] == pytest.approx(1.0, abs=2e-9)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    c=st.floats(-3, 3, allow_nan=False),
)
def test_fd_exact_on_random_quadratics(a, b, c):
    # centered differences are exact on quadratics up to roundoff
    def f(v):
        return float(a * v[0] ** 2 + b * v[0] + c)

    x = np.array([0.7])
    g = fd_gradient(f, x, h=1e-4)
    assert g[0] == pytest.approx(2 * a * 0.7 + b, abs=1e-8)


@pytest.mark.parametrize("kind", ["rk4", "ab2"])
def test_costates_output_independent_of_batching(kind, rng, monkeypatch):
    model = UgvDifferentialDrive(random_radius=True)
    scheme = StepScheme(kind, 0.05)
    x0 = rng.uniform(-0.3, 0.3, (9, 4))
    x0[:, 3] = rng.uniform(1.0, 1.5, 9)
    controls = rng.uniform(-1, 1, (12, 2))
    states = propagate_segment(scheme, model, x0, controls)
    seed = rng.standard_normal((9, 4))
    running = 0.1 * rng.standard_normal(states.shape)
    outputs = []
    for batch in (None, 1, 2):  # one batch of all 9 samples first
        if batch is not None:
            _force_batch(monkeypatch, model, batch)
        costates = np.full_like(states, np.nan)
        _, g_x = backward_gradient(
            scheme, model, states, controls, seed, running_seed=running, costates=costates
        )
        np.testing.assert_array_equal(costates[0], g_x)
        np.testing.assert_array_equal(costates[-1], seed + running[-1])
        outputs.append(costates)
    for other in outputs[1:]:
        np.testing.assert_array_equal(other, outputs[0])
