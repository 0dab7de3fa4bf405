"""Random initial-state sampling.

Uncertain model parameters are appended to the state vector as extra
coordinates with zero dynamics, so a single sampling path covers both random
initial conditions and random parameters. Sampling uses the Philox 4x64
counter-based bit generator, so a fixed (spec, M, seed) triple reproduces
bit-identical ensembles across platforms and numpy builds of the same series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Dirac:
    """Coordinate pinned to a single deterministic value."""

    value: float

    dim = 1

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ParameterError(f"Dirac value must be finite, got {self.value}")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.full((m, 1), float(self.value))


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    dim = 1

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ParameterError("Uniform bounds must be finite")
        if self.lo > self.hi:
            raise ParameterError(f"Uniform requires lo <= hi, got ({self.lo}, {self.hi})")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(m, 1))


@dataclass(frozen=True)
class Normal:
    mean: float
    stddev: float

    dim = 1

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.stddev)):
            raise ParameterError("Normal parameters must be finite")
        if self.stddev < 0:
            raise ParameterError(f"Normal requires stddev >= 0, got {self.stddev}")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.normal(self.mean, self.stddev, size=(m, 1))


@dataclass(frozen=True)
class SphericalShell:
    """Random point inside a ball of radius r_max, filling three coordinates.

    radius ~ U(0, r_max), polar angle ~ U(0, pi), azimuth ~ U(0, 2 pi); the
    draws are mapped to Cartesian (x, y, z).
    """

    r_max: float

    dim = 3

    def __post_init__(self):
        if not np.isfinite(self.r_max) or self.r_max < 0:
            raise ParameterError(f"SphericalShell requires r_max >= 0, got {self.r_max}")

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        r = rng.uniform(0.0, self.r_max, size=m)
        theta = rng.uniform(0.0, np.pi, size=m)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
        return np.column_stack(
            [
                r * np.sin(theta) * np.cos(phi),
                r * np.sin(theta) * np.sin(phi),
                r * np.cos(theta),
            ]
        )


Distribution = Dirac | Uniform | Normal | SphericalShell


@dataclass(frozen=True)
class RandomInputSpec:
    """Per-coordinate distributions of the initial state vector."""

    components: tuple[Distribution, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ParameterError("RandomInputSpec needs at least one component")

    @property
    def dim(self) -> int:
        return sum(c.dim for c in self.components)

    @classmethod
    def all_dirac(cls, values) -> "RandomInputSpec":
        return cls(tuple(Dirac(float(v)) for v in np.asarray(values, dtype=float)))


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")


def _seeded_generator(seed: int) -> np.random.Generator:
    """The Philox generator of a non-negative integer seed."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(seed))


def sample_initial_ensemble(spec: RandomInputSpec, M: int, seed: int) -> np.ndarray:
    """Draw an (M, d) matrix of i.i.d. initial states.

    Components are drawn in declaration order from a single Philox stream,
    which makes the result a pure function of (spec, M, seed).
    """
    if M < 1:
        raise ParameterError(f"sample count must be >= 1, got {M}")
    rng = _seeded_generator(seed)
    return np.concatenate([c.draw(rng, M) for c in spec.components], axis=1)
