"""Shooting grids, piecewise-constant control storage, ensemble containers.

Ensembles are plain float64 arrays of shape (M, n), one row per sample. All
containers here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsembleError, ParameterError, ShapeMismatchError

_REL_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ParameterError(f"segment needs steps >= 1, got {self.steps}")
        if not self.t_end > self.t_start:
            raise ParameterError(
                f"segment times must increase, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps


@dataclass(frozen=True)
class ShootingPlan:
    """Contiguous partition of [0, t_f] with per-segment step counts."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ParameterError("plan needs at least one segment")
        scale = max(1.0, abs(self.segments[-1].t_end))
        if abs(self.segments[0].t_start) > _REL_TOL * scale:
            raise ParameterError("first segment must start at t = 0")
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.t_end - b.t_start) > _REL_TOL * scale:
                raise ParameterError(
                    f"segments are not contiguous at t = {a.t_end} vs {b.t_start}"
                )

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def total_steps(self) -> int:
        return sum(s.steps for s in self.segments)

    @property
    def t_final(self) -> float:
        return self.segments[-1].t_end

    @property
    def step_sizes(self) -> tuple[float, ...]:
        return tuple(s.dt for s in self.segments)


def uniform_plan(t_final: float, n_segments: int, dt: float) -> ShootingPlan:
    """Plan with equal segments and a shared step size dt."""
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not value > 0:
            raise ParameterError(f"need {name} > 0, got {value}")
        if not np.isfinite(value):
            raise ParameterError(f"need a finite {name}, got {value}")
    if n_segments < 1:
        raise ParameterError(f"need n_segments >= 1, got {n_segments}")
    seg_len = t_final / n_segments
    steps = round(seg_len / dt)
    if steps < 1 or abs(steps * dt - seg_len) > 1e-9 * max(1.0, t_final):
        raise ParameterError(
            f"dt={dt} does not evenly divide segments of length {seg_len}"
        )
    return ShootingPlan(
        tuple(Segment(k * seg_len, (k + 1) * seg_len, steps) for k in range(n_segments))
    )


def grid_times(plan: ShootingPlan) -> np.ndarray:
    """Boundary-inclusive times of every segment, concatenated segment-major.

    Each segment contributes steps + 1 points including both endpoints, so
    interior interfaces appear twice (segment end, next segment start) and the
    total length is total_steps + n_segments.
    """
    parts = [
        s.t_start + s.dt * np.arange(s.steps + 1, dtype=float) for s in plan.segments
    ]
    return np.concatenate(parts)


def control_times(plan: ShootingPlan) -> np.ndarray:
    """Left endpoints of the grid cells, where piecewise-constant values live."""
    parts = [s.t_start + s.dt * np.arange(s.steps, dtype=float) for s in plan.segments]
    return np.concatenate(parts)


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant controls, one (N_k, m) block per shooting segment.

    u(t) = values[k][j] for t in [t_{k,j}, t_{k,j+1}).
    """

    plan: ShootingPlan
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.values) != self.plan.n_segments:
            raise ShapeMismatchError(
                f"expected {self.plan.n_segments} control blocks, got {len(self.values)}"
            )
        m = None
        for seg, block in zip(self.plan.segments, self.values):
            block = np.asarray(block, dtype=float)
            if block.ndim != 2 or block.shape[0] != seg.steps:
                raise ShapeMismatchError(
                    f"control block shape {block.shape} does not match {seg.steps} steps"
                )
            if m is None:
                m = block.shape[1]
            elif block.shape[1] != m:
                raise ShapeMismatchError("control blocks disagree on control dimension")

    @property
    def m(self) -> int:
        return self.values[0].shape[1]

    def stacked(self) -> np.ndarray:
        """All control rows as one (total_steps, m) array."""
        return np.concatenate(self.values, axis=0)

    @classmethod
    def constant(cls, plan: ShootingPlan, u) -> "ControlSchedule":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(plan, tuple(np.tile(u, (s.steps, 1)) for s in plan.segments))

    @classmethod
    def from_stacked(cls, plan: ShootingPlan, arr) -> "ControlSchedule":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != plan.total_steps:
            raise ShapeMismatchError(
                f"stacked controls shape {arr.shape} does not match {plan.total_steps} steps"
            )
        blocks, row = [], 0
        for s in plan.segments:
            blocks.append(arr[row : row + s.steps].copy())
            row += s.steps
        return cls(plan, tuple(blocks))


@dataclass(frozen=True)
class EnsembleTrajectory:
    """Per-segment stacks of ensemble states, shaped (N_k + 1, M, n) each."""

    plan: ShootingPlan
    segments: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.segments) != self.plan.n_segments:
            raise ShapeMismatchError("segment count does not match plan")
        for seg, states in zip(self.plan.segments, self.segments):
            if states.ndim != 3 or states.shape[0] != seg.steps + 1:
                raise ShapeMismatchError(
                    f"segment states shape {states.shape} does not match {seg.steps} steps"
                )

    @property
    def n_states(self) -> int:
        """Total stored grid states, equals total_steps + n_segments."""
        return sum(s.shape[0] for s in self.segments)

    @property
    def terminal(self) -> np.ndarray:
        return self.segments[-1][-1]

    def stacked(self) -> np.ndarray:
        """(n_states, M, n) stack in segment-major time order."""
        return np.concatenate(self.segments, axis=0)


def ensemble_mean(states: np.ndarray) -> np.ndarray:
    """Coordinate-wise mean over sample rows of an (M, n) ensemble."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] == 0:
        raise EmptyEnsembleError(f"need a non-empty (M, n) ensemble, got {states.shape}")
    return states.mean(axis=0)
