"""Ready-to-run problem catalog: ground vehicle, aerial vehicle, and the
collocated reaction-diffusion control case, each in a deterministic
(nominal) and a stochastic variant.

Every entry returns a fully populated OcProblem; keyword overrides replace
the documented defaults (sample count, step size, horizon, seeds, weights)
without touching anything else.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .integrators import StepScheme
from .grids import uniform_plan
from .models import (
    ChebyshevReactionDiffusion,
    FixedWingUav,
    UgvBicycle,
    UgvDifferentialDrive,
)
from .sampling import Dirac, Normal, RandomInputSpec, SphericalShell, Uniform
from .transcription import CostSpec, OcProblem, PathBound

UGV_TARGET = (3.0, 3.0)
UGV_RADIUS_NOMINAL = 1.25
UGV_RADIUS_RANGE = (1.0, 1.5)
UGV_START_JITTER = 0.05
UGV_CONTROL_ENERGY = 0.01  # free parameter of the study, exposed as override

UAV_TARGET = (500.0, 500.0, 500.0)
UAV_CONTROL_ENERGY = 0.01  # (1/200) integral of |u|^2 written as (q/2)|u|^2

PDE_CONTROL_ENERGY = 0.1  # (1/20) integral of u^2 written as (q/2) u^2
PDE_RUNNING_WEIGHT = 2.0
PDE_NOISE_VARIANCE = 1e-3


def _given(value, default):
    """An override, or the default where none is given; a zero override is
    kept, so that it reaches the validation of the value."""
    return default if value is None else value


def _ugv_cost(q):
    return CostSpec(
        terminal_weights=np.array([1.0, 1.0, 0.0, 0.0]),
        terminal_target=np.array([*UGV_TARGET, 0.0, 0.0]),
        control_energy=q,
    )


def _ugv(stochastic: bool, M, seed, dt, segments, t_f, q):
    model = UgvDifferentialDrive(random_radius=True)
    if stochastic:
        jitter = Uniform(-UGV_START_JITTER, UGV_START_JITTER)
        initial = RandomInputSpec((jitter, jitter, jitter, Uniform(*UGV_RADIUS_RANGE)))
        m_default = 10000
    else:
        initial = RandomInputSpec(
            (Dirac(0.0), Dirac(0.0), Dirac(0.0), Dirac(UGV_RADIUS_NOMINAL))
        )
        m_default = 1
    return OcProblem(
        model=model,
        plan=uniform_plan(_given(t_f, 10.0), _given(segments, 2), _given(dt, 0.05)),
        scheme=StepScheme("rk4"),
        initial=initial,
        M=_given(M, m_default),
        cost=_ugv_cost(UGV_CONTROL_ENERGY if q is None else q),
        control_lo=np.array([-1.0, -1.0]),
        control_hi=np.array([1.0, 1.0]),
        seed=seed,
    )


def _ugv_bicycle(M, seed, dt, segments, t_f, q):
    # gradient benchmark: terminal squared distance to the origin, free energy
    model = UgvBicycle(wheelbase=1.0)
    return OcProblem(
        model=model,
        plan=uniform_plan(_given(t_f, 100.0), _given(segments, 1), _given(dt, 0.1)),
        scheme=StepScheme("rk4"),
        initial=RandomInputSpec.all_dirac([0.0, 0.0, 0.0]),
        M=_given(M, 1),
        cost=CostSpec(
            terminal_weights=np.array([2.0, 2.0, 0.0]),
            terminal_target=np.zeros(3),
            control_energy=0.0 if q is None else q,
        ),
        control_lo=np.array([-1.0, -1.0]),
        control_hi=np.array([1.0, 1.0]),
        seed=seed,
    )


def _uav(stochastic: bool, M, seed, dt, segments, t_f, q):
    model = FixedWingUav()
    nominal = model.nominal_state()
    if stochastic:
        initial = RandomInputSpec(
            (
                SphericalShell(5.0),
                Uniform(25.575, 29.425),
                Uniform(-0.05, 0.05),
                Uniform(3.1, 3.2),
                Dirac(nominal[6]),
                Dirac(nominal[7]),
                Dirac(nominal[8]),
                Uniform(-0.0380, -0.0330),
                Uniform(0.0027, 0.0031),
                Uniform(-0.0589, -0.0548),
                Uniform(-5.9685, -5.1875),
            )
        )
        m_default = 4800
    else:
        initial = RandomInputSpec.all_dirac(nominal)
        m_default = 1
    weights = np.zeros(model.n)
    target = np.zeros(model.n)
    weights[:3] = 2.0  # plain squared distance to the target
    target[:3] = UAV_TARGET
    # heading is 2*pi-periodic and its nominal value sits exactly on +pi, so
    # the [-pi, pi] band is a chart boundary rather than a usable mean bound
    bounds = tuple(
        PathBound(idx, lo, hi)
        for idx, (lo, hi) in sorted(model.path_bound_defaults.items())
        if idx != 5
    )
    return OcProblem(
        model=model,
        # horizon chosen so the turn-and-climb maneuver is flyable at the
        # nominal speed; not part of any quantitative acceptance check
        plan=uniform_plan(_given(t_f, 60.0), _given(segments, 1), _given(dt, 0.1)),
        scheme=StepScheme("rk3"),
        initial=initial,
        M=_given(M, m_default),
        cost=CostSpec(
            terminal_weights=weights,
            terminal_target=target,
            control_energy=UAV_CONTROL_ENERGY if q is None else q,
        ),
        control_lo=np.array([-1.0, -0.05, -0.05]),
        control_hi=np.array([1.0, 0.05, 0.05]),
        path_bounds=bounds,
        seed=seed,
    )


def _pde(stochastic: bool, M, seed, dt, segments, t_f, q, n_nodes, noise_variance):
    model = ChebyshevReactionDiffusion(n_nodes=_given(n_nodes, 64))
    profile = 2.0 * np.sin(np.pi * model.nodes)
    if stochastic:
        std = float(np.sqrt(PDE_NOISE_VARIANCE if noise_variance is None else noise_variance))
        initial = RandomInputSpec(tuple(Normal(v, std) for v in profile))
        m_default = 1000
    else:
        initial = RandomInputSpec.all_dirac(profile)
        m_default = 1
    w = model.quadrature_weights
    return OcProblem(
        model=model,
        plan=uniform_plan(_given(t_f, 8.0), _given(segments, 1), _given(dt, 5e-4)),
        scheme=StepScheme("euler"),
        initial=initial,
        M=_given(M, m_default),
        cost=CostSpec(
            terminal_weights=w.copy(),
            terminal_target=np.zeros(model.n),
            control_energy=PDE_CONTROL_ENERGY if q is None else q,
            running_weights=PDE_RUNNING_WEIGHT * w,
        ),
        control_lo=np.array([-np.inf]),
        control_hi=np.array([np.inf]),
        seed=seed,
    )


_DESCRIPTIONS = {
    "ugv-nominal": "differential-drive vehicle to (3, 3), deterministic start, R = 1.25",
    "ugv-stochastic": "differential-drive vehicle to (3, 3), uniform start jitter and wheel radius",
    "ugv-bicycle": "bicycle-steered vehicle, terminal distance-to-origin gradient benchmark",
    "uav-nominal": "fixed-wing aircraft to (500, 500, 500), deterministic start",
    "uav-stochastic": "fixed-wing aircraft to (500, 500, 500), random start and aero coefficients",
    "pde-nominal": "reaction-diffusion field driven to zero, deterministic initial profile",
    "pde-stochastic": "reaction-diffusion field driven to zero, noisy initial profile",
}


def catalog() -> dict[str, str]:
    """Problem ids with one-line descriptions."""
    return dict(_DESCRIPTIONS)


def build(
    problem_id: str,
    M: int | None = None,
    seed: int = 0,
    dt: float | None = None,
    segments: int | None = None,
    t_f: float | None = None,
    q: float | None = None,
    n_nodes: int | None = None,
    noise_variance: float | None = None,
) -> OcProblem:
    """Instantiate a catalog problem, applying any overrides."""
    if problem_id not in _DESCRIPTIONS:
        known = ", ".join(sorted(_DESCRIPTIONS))
        raise ParameterError(f"unknown problem id {problem_id!r}; known ids: {known}")
    if problem_id == "ugv-nominal":
        return _ugv(False, M, seed, dt, segments, t_f, q)
    if problem_id == "ugv-stochastic":
        return _ugv(True, M, seed, dt, segments, t_f, q)
    if problem_id == "ugv-bicycle":
        return _ugv_bicycle(M, seed, dt, segments, t_f, q)
    if problem_id == "uav-nominal":
        return _uav(False, M, seed, dt, segments, t_f, q)
    if problem_id == "uav-stochastic":
        return _uav(True, M, seed, dt, segments, t_f, q)
    if problem_id == "pde-nominal":
        return _pde(False, M, seed, dt, segments, t_f, q, n_nodes, noise_variance)
    return _pde(True, M, seed, dt, segments, t_f, q, n_nodes, noise_variance)
