"""Fixed-step explicit one-step maps and their exact derivatives.

Every scheme realizes a discrete map x_{j+1} = Q(x_j, u_j) with the control
held constant over the step. Backward sweeps differentiate a Runge-Kutta
step in reverse mode: the stage states are recomputed and the stages are
walked backward through the transposed tableau with one model
vector-Jacobian product each, so no dense step Jacobian is formed. The dense
step Jacobians dQ/dx and dQ/du, assembled by chaining the model Jacobians
through the stages, stay available in `step_jacobians` as an independent
reference. Adams-Bashforth schemes combine the latest rhs evaluations with
the standard weight tables and bootstrap their startup steps with a
Runge-Kutta method of matching order; their multi-step structure is
differentiated inside the backward sweep. One step loop, `_march`, drives
every scheme; `propagate_segment` stores what it yields, and the batched
finite difference of `transcription` reduces it as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParameterError, PropagationError, ShapeMismatchError
from .models import DynamicsModel

# (stage matrix, weights, abscissae)
_BUTCHER = {
    "euler": (
        np.zeros((1, 1)),
        np.array([1.0]),
        np.array([0.0]),
    ),
    "rk2": (
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([0.5, 0.5]),
        np.array([0.0, 1.0]),
    ),
    "rk3": (
        np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]]),
        np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]),
        np.array([0.0, 0.5, 1.0]),
    ),
    "rk4": (
        np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        ),
        np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]),
        np.array([0.0, 0.5, 0.5, 1.0]),
    ),
}

# most recent rhs first
_AB_WEIGHTS = {
    1: np.array([1.0]),
    2: np.array([1.5, -0.5]),
    3: np.array([23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0]),
}

_ORDER = {"euler": 1, "rk2": 2, "rk3": 3, "rk4": 4, "ab1": 1, "ab2": 2, "ab3": 3}
_AB_BOOTSTRAP = {2: "rk2", 3: "rk3"}


@dataclass(frozen=True)
class StepScheme:
    """Explicit integration scheme plus its step size.

    kind is one of euler, rk2, rk3, rk4, ab1, ab2, ab3. dt may be left None
    for schemes that get bound to a segment step size later.
    """

    kind: str
    dt: float | None = None

    def __post_init__(self):
        if self.kind not in _ORDER:
            raise ParameterError(f"unknown scheme kind {self.kind!r}")
        if self.dt is not None and not self.dt > 0:
            raise ParameterError(f"step size must be positive, got {self.dt}")

    @property
    def order(self) -> int:
        return _ORDER[self.kind]

    @property
    def ab_steps(self) -> int | None:
        """Number of history values for Adams-Bashforth kinds, else None."""
        return int(self.kind[2]) if self.kind.startswith("ab") else None

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights of the update; they sum to one for consistency."""
        s = self.ab_steps
        return _AB_WEIGHTS[s] if s else _BUTCHER[self.kind][1]

    def bootstrap(self) -> "StepScheme":
        s = self.ab_steps
        if not s or s == 1:
            raise ParameterError(f"{self.kind} has no bootstrap scheme")
        return StepScheme(_AB_BOOTSTRAP[s], self.dt)

    def with_dt(self, dt: float) -> "StepScheme":
        return replace(self, dt=float(dt))

    def _require_dt(self) -> float:
        if self.dt is None:
            raise ParameterError(f"scheme {self.kind} has no step size bound")
        return self.dt


def _check_finite(x: np.ndarray, step_index=None):
    bad = ~np.isfinite(x)
    if bad.any():
        flat = bad.reshape(-1, x.shape[-1]) if x.ndim > 1 else bad[None, :]
        sample = int(np.flatnonzero(flat.any(axis=1))[0]) if x.ndim > 1 else None
        raise PropagationError(
            f"propagation produced a non-finite state (sample {sample}, step {step_index})",
            sample_index=sample,
            step_index=step_index,
        )


def _tableau(scheme: StepScheme):
    """Butcher tableau of a one-step scheme; ab1 is explicit Euler."""
    return _BUTCHER["euler" if scheme.ab_steps == 1 else scheme.kind]


def _rk_step(scheme, model, x, u):
    a, b, _ = _tableau(scheme)
    dt = scheme._require_dt()
    stages = []
    # divergence shows up as non-finite output and is reported by the caller,
    # so intermediate overflow warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(b.size):
            xi = x
            for j in range(i):
                if a[i, j] != 0.0:
                    xi = xi + dt * a[i, j] * stages[j]
            stages.append(model.rhs(xi, u))
        out = x
        for bi, ki in zip(b, stages):
            out = out + dt * bi * ki
    return out


def step(scheme: StepScheme, model: DynamicsModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Advance the ensemble one step of size scheme.dt with a one-step scheme.

    ab1 is explicit Euler. Adams-Bashforth kinds with s > 1 depend on past
    rhs values and are rejected here; `propagate_segment` runs them.
    """
    if scheme.ab_steps not in (None, 1):
        raise ParameterError(f"{scheme.kind} is a multi-step map; propagate a segment instead")
    out = _rk_step(scheme, model, np.asarray(x, dtype=float), np.asarray(u, dtype=float))
    _check_finite(out)
    return out


def step_jacobians(scheme: StepScheme, model: DynamicsModel, x, u):
    """Exact Jacobians (dQ/dx, dQ/du) of a single Runge-Kutta step.

    Shapes follow the batch convention of the models: (..., n, n) and
    (..., n, m). Adams-Bashforth kinds with s > 1 depend on several past
    states and are rejected here; the backward sweep differentiates them.
    """
    if scheme.ab_steps not in (None, 1):
        raise ParameterError(
            f"{scheme.kind} is a multi-step map; its derivatives live in the backward sweep"
        )
    a, b, _ = _tableau(scheme)
    dt = scheme._require_dt()
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    n, m = model.n, model.m
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    eye = np.broadcast_to(np.eye(n), batch + (n, n))

    stages, dk_dx, dk_du = [], [], []
    for i in range(b.size):
        xi = x
        sx = eye
        su = np.zeros(batch + (n, m))
        for j in range(i):
            if a[i, j] != 0.0:
                xi = xi + dt * a[i, j] * stages[j]
                sx = sx + dt * a[i, j] * dk_dx[j]
                su = su + dt * a[i, j] * dk_du[j]
        stages.append(model.rhs(xi, u))
        jx = model.jac_x(xi, u)
        dk_dx.append(jx @ sx if i else jx)
        dk_du.append(jx @ su + model.jac_u(xi, u) if i else model.jac_u(xi, u))

    a_mat = eye + dt * sum(bi * d for bi, d in zip(b, dk_dx))
    b_mat = dt * sum(bi * d for bi, d in zip(b, dk_du))
    return a_mat, b_mat


def _rk_step_vjp(scheme: StepScheme, model: DynamicsModel, x, u, lam):
    """Reverse pass of one Runge-Kutta step: (lam . dQ/dx, lam . dQ/du).

    The stage states of the forward step are recomputed with `rhs`, then the
    stages are walked backward through the transposed Butcher tableau with
    one model VJP per stage (Sandu 2006, "On the properties of Runge-Kutta
    discrete adjoints"). Rows stay per sample: shapes (..., n) and (..., m).
    The caller guarantees a one-step scheme with a bound step size.
    """
    a, b, _ = _tableau(scheme)
    dt = scheme._require_dt()
    n_stages = b.size
    # the last stage's rhs feeds no later stage, so it is never recomputed
    points, stages = [], []
    for i in range(n_stages):
        xi = x
        for j in range(i):
            if a[i, j] != 0.0:
                xi = xi + dt * a[i, j] * stages[j]
        points.append(xi)
        if i < n_stages - 1:
            stages.append(model.rhs(xi, u))

    point_bars = [None] * n_stages
    lam_x, lam_u = lam, 0.0
    for i in range(n_stages - 1, -1, -1):
        stage_bar = (dt * b[i]) * lam
        for k in range(i + 1, n_stages):
            if a[k, i] != 0.0:
                stage_bar = stage_bar + (dt * a[k, i]) * point_bars[k]
        point_bars[i], u_bar = model.vjp(points[i], u, stage_bar)
        lam_x = lam_x + point_bars[i]
        lam_u = lam_u + u_bar
    return lam_x, lam_u


def _march(scheme: StepScheme, model: DynamicsModel, x0: np.ndarray, controls):
    """Yield the ensemble state after each step, one step per control row.

    The one step loop of every scheme: Runge-Kutta steps, and Adams-Bashforth
    steps after their Runge-Kutta bootstrap. controls is iterated row by row,
    so its rows may be built as the steps run. A non-finite state raises
    `PropagationError` and a model's `DomainError` gets the step index.
    """
    s = scheme.ab_steps or 1
    w = _AB_WEIGHTS[s]
    x = x0
    history: list[np.ndarray] = []  # rhs values, most recent first
    for j, uj in enumerate(controls):
        try:
            if s == 1:
                x = _rk_step(scheme, model, x, uj)
            else:
                # as in `_rk_step`; scoped to the step, so the caller's error
                # state holds between yields
                with np.errstate(over="ignore", invalid="ignore"):
                    fj = model.rhs(x, uj)
                    if j < s - 1:
                        x = _rk_step(scheme.bootstrap(), model, x, uj)
                    else:
                        acc = w[0] * fj
                        for q in range(1, s):
                            acc = acc + w[q] * history[q - 1]
                        x = x + scheme._require_dt() * acc
                history.insert(0, fj)
                del history[s - 1 :]
        except DomainError as err:
            err.step_index = j
            raise
        _check_finite(x, step_index=j)
        yield x


def propagate_segment(
    scheme: StepScheme,
    model: DynamicsModel,
    x0: np.ndarray,
    controls: np.ndarray,
) -> np.ndarray:
    """Push the whole ensemble forward through one shooting segment.

    x0: (M, n) initial ensemble. controls: (N, m) rows shared across samples
    or (N, M, m) per-sample rows. Returns the (N + 1, M, n) stack of states
    including x0; all samples advance simultaneously in lock step.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    controls = np.asarray(controls, dtype=float)
    if controls.ndim not in (2, 3):
        raise ShapeMismatchError(f"controls must be (N, m) or (N, M, m), got {controls.shape}")
    if controls.shape[-1] != model.m:
        raise ShapeMismatchError(
            f"control dimension {controls.shape[-1]} != model.m = {model.m}"
        )
    if controls.ndim == 3 and controls.shape[1] != x0.shape[0]:
        raise ShapeMismatchError("per-sample controls do not match the ensemble size")
    out = np.empty((controls.shape[0] + 1,) + x0.shape)
    out[0] = x0
    for j, x in enumerate(_march(scheme, model, x0, controls), 1):
        out[j] = x
    return out
