import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_oc import (
    Dirac,
    Normal,
    ParameterError,
    RandomInputSpec,
    SphericalShell,
    Uniform,
    sample_initial_ensemble,
)


def test_dirac_rows_are_constant():
    spec = RandomInputSpec((Dirac(3.0), Dirac(3.0)))
    out = sample_initial_ensemble(spec, 4, seed=1)
    assert out.shape == (4, 2)
    assert np.all(out == 3.0)


def test_uniform_samples_stay_in_wheel_radius_band():
    spec = RandomInputSpec((Uniform(1.0, 1.5),))
    out = sample_initial_ensemble(spec, 20000, seed=7)
    assert out.min() >= 1.0 and out.max() <= 1.5


def test_uniform_mean_within_clt_bound():
    # U(-0.05, 0.05): sigma = 0.1 / sqrt(12); 4-sigma-of-the-mean band
    m = 10**5
    spec = RandomInputSpec((Uniform(-0.05, 0.05),))
    out = sample_initial_ensemble(spec, m, seed=123)
    bound = 4 * (0.1 / np.sqrt(12.0)) / np.sqrt(m)
    assert abs(out.mean()) <= bound


def test_spherical_shell_radius_bounded():
    spec = RandomInputSpec((SphericalShell(5.0),))
    out = sample_initial_ensemble(spec, 5000, seed=3)
    radii = np.linalg.norm(out, axis=1)
    assert out.shape == (5000, 3)
    assert radii.max() <= 5.0 + 1e-12


def test_mixed_spec_dimensions():
    spec = RandomInputSpec((SphericalShell(5.0), Uniform(25.575, 29.425), Dirac(16.1)))
    assert spec.dim == 5
    out = sample_initial_ensemble(spec, 10, seed=0)
    assert out.shape == (10, 5)
    assert np.all(out[:, 4] == 16.1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1), m=st.integers(1, 50))
def test_sampling_deterministic_for_fixed_seed(seed, m):
    spec = RandomInputSpec((Uniform(-1.0, 2.0), Normal(0.5, 0.25), SphericalShell(2.0)))
    a = sample_initial_ensemble(spec, m, seed)
    b = sample_initial_ensemble(spec, m, seed)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    spec = RandomInputSpec((Normal(0.0, 1.0),))
    a = sample_initial_ensemble(spec, 8, seed=1)
    b = sample_initial_ensemble(spec, 8, seed=2)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Uniform(1.0, 0.5),
        lambda: Normal(0.0, -1.0),
        lambda: Dirac(np.nan),
        lambda: SphericalShell(-2.0),
    ],
)
def test_invalid_distribution_parameters(bad):
    with pytest.raises(ParameterError):
        bad()


def test_sample_count_must_be_positive():
    spec = RandomInputSpec((Dirac(0.0),))
    with pytest.raises(ParameterError):
        sample_initial_ensemble(spec, 0, seed=1)


@pytest.mark.parametrize("seed", [-1, 2.0, None], ids=["negative", "float", "none"])
def test_seed_must_be_a_non_negative_integer(seed):
    spec = RandomInputSpec((Dirac(0.0),))
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        sample_initial_ensemble(spec, 3, seed=seed)
