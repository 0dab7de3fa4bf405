import numpy as np
import pytest

import ensemble_oc as eoc
from ensemble_oc import build, catalog
from ensemble_oc.sampling import Dirac, Normal, SphericalShell, Uniform


def test_catalog_lists_all_ids():
    ids = set(catalog())
    assert ids == {
        "ugv-nominal",
        "ugv-stochastic",
        "ugv-bicycle",
        "uav-nominal",
        "uav-stochastic",
        "pde-nominal",
        "pde-stochastic",
    }


def test_unknown_id_rejected():
    with pytest.raises(eoc.ParameterError):
        build("ugv")


class TestUgvDefaults:
    def test_nominal(self):
        p = build("ugv-nominal")
        assert p.plan.t_final == 10.0
        assert p.n_segments == 2
        assert p.plan.step_sizes == (0.05, 0.05)
        assert p.scheme.kind == "rk4"
        assert p.M == 1
        comps = p.initial.components
        assert comps[:3] == (Dirac(0.0),) * 3
        assert comps[3] == Dirac(1.25)
        np.testing.assert_array_equal(p.control_lo, [-1.0, -1.0])
        np.testing.assert_array_equal(p.control_hi, [1.0, 1.0])
        np.testing.assert_array_equal(p.cost.terminal_target[:2], [3.0, 3.0])

    def test_stochastic(self):
        p = build("ugv-stochastic")
        assert p.M == 10000
        comps = p.initial.components
        assert comps[0] == Uniform(-0.05, 0.05)
        assert comps[3] == Uniform(1.0, 1.5)

    def test_bicycle_gradient_benchmark(self):
        p = build("ugv-bicycle")
        assert p.plan.t_final == 100.0
        assert p.plan.total_steps == 1000
        assert p.plan.step_sizes == (0.1,)
        assert p.cost.control_energy == 0.0


class TestUavDefaults:
    def test_nominal_initial_state(self):
        p = build("uav-nominal")
        x0 = eoc.initial_ensemble(p)[0]
        assert x0[3] == pytest.approx(27.5)  # speed
        assert x0[5] == pytest.approx(np.pi)  # heading
        assert x0[6] == pytest.approx(16.1)  # thrust
        assert x0[7] == pytest.approx(-0.0088)  # angle of attack
        assert x0[9] == pytest.approx(-0.03554)
        assert x0[12] == pytest.approx(-5.578)

    def test_stochastic_distributions(self):
        p = build("uav-stochastic")
        assert p.M == 4800
        assert p.scheme.kind == "rk3"
        assert p.plan.step_sizes == (0.1,)
        comps = p.initial.components
        assert comps[0] == SphericalShell(5.0)
        assert comps[1] == Uniform(25.575, 29.425)
        assert comps[3] == Uniform(3.1, 3.2)
        assert comps[10] == Uniform(-5.9685, -5.1875)

    def test_path_bounds_use_tight_attack_band(self):
        p = build("uav-stochastic")
        by_state = {pb.state_index: pb for pb in p.path_bounds}
        assert by_state[3].lo == 13.0 and by_state[3].hi == 42.0
        assert by_state[6].lo == 3.0 and by_state[6].hi == 35.0
        assert by_state[7].hi == pytest.approx(np.pi / 12)
        # the periodic heading band stays out of the barrier set: the nominal
        # heading sits exactly on +pi and the stochastic mean just past it
        assert 5 not in by_state

    def test_control_bounds(self):
        p = build("uav-nominal")
        np.testing.assert_array_equal(p.control_lo, [-1.0, -0.05, -0.05])
        np.testing.assert_array_equal(p.control_hi, [1.0, 0.05, 0.05])

    def test_control_energy_weight(self):
        # (1/200) integral |u|^2 expressed as (q/2) |u|^2 means q = 0.01
        assert build("uav-nominal").cost.control_energy == pytest.approx(0.01)


class TestPdeDefaults:
    def test_nominal(self):
        p = build("pde-nominal")
        assert p.plan.t_final == 8.0
        assert p.scheme.kind == "euler"
        assert p.plan.step_sizes == (5e-4,)
        assert p.model.n == 64
        x0 = eoc.initial_ensemble(p)[0]
        np.testing.assert_allclose(x0, 2.0 * np.sin(np.pi * p.model.nodes))

    def test_stochastic(self):
        p = build("pde-stochastic")
        assert p.M == 1000
        comp = p.initial.components[0]
        assert isinstance(comp, Normal)
        assert comp.stddev == pytest.approx(np.sqrt(1e-3))

    def test_cost_weights(self):
        p = build("pde-nominal")
        w = p.model.quadrature_weights
        np.testing.assert_allclose(p.cost.terminal_weights, w)
        np.testing.assert_allclose(p.cost.running_weights, 2.0 * w)
        assert p.cost.control_energy == pytest.approx(0.1)  # (1/20) integral u^2

    def test_control_support(self):
        p = build("pde-nominal", n_nodes=32)
        inside = (p.model.nodes >= -0.5) & (p.model.nodes <= -0.2)
        np.testing.assert_array_equal(p.model.indicator, inside.astype(float))


def test_override_semantics():
    p = build("pde-stochastic", n_nodes=32, M=100)
    assert p.model.n == 32
    assert p.M == 100
    # everything else still at the documented defaults
    assert p.plan.t_final == 8.0
    assert p.scheme.kind == "euler"
    assert p.cost.control_energy == pytest.approx(0.1)


@pytest.mark.parametrize("problem_id, override", [
    ("ugv-stochastic", {"M": 0}),
    ("ugv-stochastic", {"segments": 0}),
    ("ugv-stochastic", {"dt": 0.0}),
    ("ugv-stochastic", {"t_f": 0.0}),
    ("pde-stochastic", {"n_nodes": 0}),
], ids=["M", "segments", "dt", "t_f", "n_nodes"])
def test_zero_override_is_rejected(problem_id, override):
    # zero is a value, not an absent override: it must not become the default
    with pytest.raises(eoc.ParameterError):
        build(problem_id, **override)


def test_seed_and_dt_overrides():
    p = build("ugv-stochastic", M=16, seed=99, dt=0.1, segments=1)
    assert p.seed == 99
    assert p.n_segments == 1
    assert p.plan.total_steps == 100
    a = eoc.initial_ensemble(p)
    b = eoc.initial_ensemble(build("ugv-stochastic", M=16, seed=99, dt=0.1, segments=1))
    np.testing.assert_array_equal(a, b)
