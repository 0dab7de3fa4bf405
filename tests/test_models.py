import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_jac_x, fd_jac_u, random_uav_state
from ensemble_oc import (
    ChebyshevReactionDiffusion,
    DomainError,
    FixedWingUav,
    UgvBicycle,
    UgvDifferentialDrive,
)
from ensemble_oc.models import DynamicsModel


def _rel_err(analytic, approx):
    return np.abs(analytic - approx).max() / (1.0 + np.abs(analytic).max())


class TestUgvDifferentialDrive:
    def test_rhs_hand_value(self):
        model = UgvDifferentialDrive(random_radius=False, radius=1.25)
        out = model.rhs(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.25, 0.0, 0.0])

    def test_rhs_with_appended_radius(self):
        model = UgvDifferentialDrive(random_radius=True)
        out = model.rhs(np.array([0.0, 0.0, 0.0, 1.25]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.25, 0.0, 0.0, 0.0])

    def test_jac_x_hand_value(self):
        # at x3 = 0 the only nonzero entry is d(x2')/d(x3) = R u1
        model = UgvDifferentialDrive(random_radius=False, radius=1.25)
        jac = model.jac_x(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0]))
        expected = np.zeros((3, 3))
        expected[1, 2] = 1.25
        np.testing.assert_allclose(jac, expected)

    def test_jac_u_steering_column(self):
        model = UgvDifferentialDrive(random_radius=False, radius=1.25)
        jac = model.jac_u(np.array([0.4, -0.1, 0.3]), np.array([0.2, 0.8]))
        np.testing.assert_allclose(jac[:, 1], [0.0, 0.0, 1.25])

    def test_batched_rhs_matches_rows(self, rng):
        model = UgvDifferentialDrive(random_radius=True)
        states = rng.uniform(-1, 1, (6, 4))
        u = rng.uniform(-1, 1, 2)
        batched = model.rhs(states, u)
        for i in range(6):
            np.testing.assert_allclose(batched[i], model.rhs(states[i], u))


class TestUgvBicycle:
    def test_heading_rate(self):
        model = UgvBicycle(wheelbase=2.0)
        out = model.rhs(np.array([0.0, 0.0, 0.0]), np.array([0.8, 0.3]))
        assert out[2] == pytest.approx(0.8 * np.tan(0.3) / 2.0)

    def test_steering_domain(self):
        model = UgvBicycle()
        with pytest.raises(DomainError):
            model.rhs(np.zeros(3), np.array([0.5, np.pi / 2]))

    def test_steering_domain_reports_sample(self):
        model = UgvBicycle()
        u = np.array([[0.1, 0.0], [0.1, 1.8]])
        with pytest.raises(DomainError) as err:
            model.rhs(np.zeros((2, 3)), u)
        assert err.value.sample_index == 1


class TestFixedWingUav:
    def test_kinematic_rows_level_flight(self):
        model = FixedWingUav()
        x = model.nominal_state()
        x[5] = 0.0  # heading along +x
        out = model.rhs(x, np.zeros(3))
        np.testing.assert_allclose(out[:3], [27.5, 0.0, 0.0], atol=1e-12)

    def test_air_density_at_sea_level(self):
        assert FixedWingUav.rho0 == pytest.approx(1.21)

    def test_rejects_singular_states(self):
        model = FixedWingUav()
        x = model.nominal_state()
        x[3] = 0.0
        with pytest.raises(DomainError):
            model.rhs(x, np.zeros(3))
        x = model.nominal_state()
        x[4] = np.pi / 2
        with pytest.raises(DomainError) as err:
            model.rhs(x, np.zeros(3))
        assert err.value.sample_index == 0

    def test_validity_metadata(self):
        bounds = FixedWingUav.state_validity
        assert bounds[3] == (13.0, 42.0)
        assert bounds[7][1] == pytest.approx(np.pi / 8)
        assert FixedWingUav.path_bound_defaults[7][1] == pytest.approx(np.pi / 12)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: UgvDifferentialDrive(random_radius=False, radius=1.25),
        lambda: UgvDifferentialDrive(random_radius=True),
        lambda: UgvBicycle(wheelbase=1.3),
        FixedWingUav,
        lambda: ChebyshevReactionDiffusion(n_nodes=10),
    ],
)
def test_jacobians_match_finite_differences(builder, rng):
    model = builder()
    worst_x = worst_u = 0.0
    for _ in range(100):
        if isinstance(model, FixedWingUav):
            x = random_uav_state(rng)
            u = rng.uniform(-0.05, 0.05, 3)
        elif isinstance(model, ChebyshevReactionDiffusion):
            x = rng.uniform(-1.5, 1.5, model.n)
            u = rng.uniform(-2.0, 2.0, 1)
        else:
            x = rng.uniform(-1.0, 1.0, model.n)
            if model.n == 4:
                x[3] = rng.uniform(1.0, 1.5)
            u = rng.uniform(-0.9, 0.9, 2)
        worst_x = max(worst_x, _rel_err(model.jac_x(x, u), fd_jac_x(model, x, u)))
        worst_u = max(worst_u, _rel_err(model.jac_u(x, u), fd_jac_u(model, x, u)))
    assert worst_x <= 1e-6
    assert worst_u <= 1e-6


class TestChebyshevReactionDiffusion:
    def test_zero_is_uncontrolled_equilibrium(self):
        model = ChebyshevReactionDiffusion(n_nodes=16)
        out = model.rhs(np.zeros(16), np.zeros(1))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_control_enters_on_support_only(self):
        model = ChebyshevReactionDiffusion(n_nodes=32)
        inside = (model.nodes >= -0.5) & (model.nodes <= -0.2)
        out = model.rhs(np.zeros(32), np.array([2.0]))
        np.testing.assert_allclose(out[inside], 2.0)
        np.testing.assert_allclose(out[~inside], 0.0)

    def test_spatial_operator_spectral_convergence(self):
        # rhs at psi = sin(pi x), u = 0 versus the analytic spatial operator
        def analytic(x):
            s = np.sin(np.pi * x)
            return (
                s * np.pi * np.cos(np.pi * x)
                + 0.2 * (-np.pi**2) * s
                + 1.5 * s * np.exp(-s / 10.0)
            )

        errors = []
        for n in (8, 16, 32):
            model = ChebyshevReactionDiffusion(n_nodes=n)
            psi = np.sin(np.pi * model.nodes)
            err = np.abs(model.rhs(psi, np.zeros(1)) - analytic(model.nodes)).max()
            errors.append(err)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-8


class Pendulum(DynamicsModel):
    """Pendulum with control-set damping and a quadratic input; it defines
    no vjp of its own, so the base-class default is the one under test."""

    n = 2
    m = 2
    name = "pendulum"

    def rhs(self, x, u):
        out = np.empty(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (2,))
        out[..., 0] = x[..., 1]
        out[..., 1] = -np.sin(x[..., 0]) + u[..., 0] * x[..., 1] + u[..., 1] ** 2
        return out

    def jac_x(self, x, u):
        jac = np.zeros(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (2, 2))
        jac[..., 0, 1] = 1.0
        jac[..., 1, 0] = -np.cos(x[..., 0])
        jac[..., 1, 1] = u[..., 0]
        return jac

    def jac_u(self, x, u):
        jac = np.zeros(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (2, 2))
        jac[..., 1, 0] = x[..., 1]
        jac[..., 1, 1] = 2.0 * u[..., 1]
        return jac


_VJP_MODELS = {
    "ugv": lambda: UgvDifferentialDrive(random_radius=False, radius=1.25),
    "ugv-random-radius": lambda: UgvDifferentialDrive(random_radius=True),
    "bicycle": lambda: UgvBicycle(wheelbase=1.3),
    "uav": FixedWingUav,
    "chebyshev-8": lambda: ChebyshevReactionDiffusion(n_nodes=8),
    "chebyshev-16": lambda: ChebyshevReactionDiffusion(n_nodes=16),
    "custom-default": Pendulum,
}


def _vjp_inputs(model, rng, n_samples, shared):
    if isinstance(model, FixedWingUav):
        x = np.stack([random_uav_state(rng) for _ in range(n_samples)])
        u = rng.uniform(-0.05, 0.05, (n_samples, model.m))
    elif isinstance(model, ChebyshevReactionDiffusion):
        x = rng.uniform(-1.5, 1.5, (n_samples, model.n))
        u = rng.uniform(-2.0, 2.0, (n_samples, model.m))
    else:
        x = rng.uniform(-1.0, 1.0, (n_samples, model.n))
        if model.n == 4:
            x[:, 3] = rng.uniform(1.0, 1.5, n_samples)
        u = rng.uniform(-0.9, 0.9, (n_samples, model.m))
    lam = rng.standard_normal((n_samples, model.n))
    return x, (u[0] if shared else u), lam


def _assert_rel_close(actual, reference, rtol=1e-12):
    assert actual.shape == reference.shape
    assert np.abs(actual - reference).max() <= rtol * np.abs(reference).max()


@pytest.mark.parametrize("name", sorted(_VJP_MODELS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 6), shared=st.booleans())
def test_vjp_matches_transposed_jacobians(name, seed, n_samples, shared):
    model = _VJP_MODELS[name]()
    rng = np.random.Generator(np.random.Philox(seed))
    x, u, lam = _vjp_inputs(model, rng, n_samples, shared)
    lam_x, lam_u = model.vjp(x, u, lam)
    _assert_rel_close(lam_x, np.einsum("mr,mrc->mc", lam, model.jac_x(x, u)))
    _assert_rel_close(lam_u, np.einsum("mr,mrc->mc", lam, model.jac_u(x, u)))


def test_uav_vjp_raises_like_jacobian(rng):
    model = FixedWingUav()
    x = np.stack([random_uav_state(rng) for _ in range(4)])
    x[2, 4] = np.pi / 2
    u = np.zeros(3)
    with pytest.raises(DomainError) as jac_err:
        model.jac_x(x, u)
    with pytest.raises(DomainError) as vjp_err:
        model.vjp(x, u, np.ones_like(x))
    assert str(vjp_err.value) == str(jac_err.value)
    assert vjp_err.value.sample_index == jac_err.value.sample_index == 2
