"""Exact functional gradients via backward propagation over stored states.

The forward trajectory is kept in memory. Each backward step recomputes the
Runge-Kutta stage states from the stored state and pulls the costate back
through the stages with model vector-Jacobian products, so no dense step
Jacobian is formed; with an analytic model VJP the sweep costs about one
forward pass. The samples are swept in batches of a size derived from the
state and control dimensions, so its auxiliary memory is bounded by the
batch and does not grow with the number of time steps. On request the
sweep also records the costate at every node (`costates`), which is the
discrete adjoint trajectory of the minimum-principle check. A central
finite-difference fallback serves as the independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeMismatchError
from .integrators import StepScheme, _rk_step_vjp
from .models import DynamicsModel

# fixes the sample-batch boundaries of the sweep, and with them the order in
# which the per-batch control gradients are summed; changing it moves the last
# bits of every gradient
_BATCH_TARGET_FLOATS = 131072


def samples_per_batch(n: int, m: int) -> int:
    return max(1, _BATCH_TARGET_FLOATS // (n * (n + m + 1)))


def _seed_accessor(running_seed, n_nodes):
    """Normalize running_seed (None | (N+1, M, n) array | callable) to a callable."""
    if running_seed is None:
        return lambda j: None
    if callable(running_seed):
        return running_seed
    arr = np.asarray(running_seed, dtype=float)
    if arr.shape[0] != n_nodes:
        raise ShapeMismatchError(
            f"running seed has {arr.shape[0]} rows, expected {n_nodes}"
        )
    return lambda j: arr[j]


def _sweep_single_step(scheme, model, states, controls, lam, seed_at, sl, costates):
    """Backward recursion for one-step schemes over one sample batch."""
    n_steps = controls.shape[0]
    du = np.zeros((n_steps, model.m))
    for j in range(n_steps - 1, -1, -1):
        lam, lam_u = _rk_step_vjp(scheme, model, states[j][sl], controls[j], lam)
        du[j] = lam_u.sum(axis=0)
        seed = seed_at(j)
        if seed is not None:
            lam = lam + seed[sl]
        if costates is not None:
            costates[j, sl] = lam
    return du, lam


def _sweep_multi_step(scheme, model, states, controls, lam_n, seed_at, sl, costates):
    """Backward recursion for Adams-Bashforth maps.

    Each rhs value f(x_p, u_p) feeds up to s later updates, so the adjoint at
    node p collects the weighted future costates before one model VJP;
    startup steps integrated by the bootstrap Runge-Kutta scheme add its
    reverse stage pass.
    """
    s = scheme.ab_steps
    w = scheme.weights
    dt = scheme.dt
    boot = scheme.bootstrap() if s > 1 else None
    n_steps = controls.shape[0]
    du = np.zeros((n_steps, model.m))
    lam_ahead = [lam_n]  # costates at nodes p+1, p+2, ...
    for p in range(n_steps - 1, -1, -1):
        u_p = controls[p]
        x_p = states[p][sl]
        gather = np.zeros_like(lam_ahead[0])
        for j in range(max(p, s - 1), min(p + s - 1, n_steps - 1) + 1):
            gather += w[j - p] * lam_ahead[j - p]
        gather *= dt
        lam_x, lam_u = model.vjp(x_p, u_p, gather)
        if p <= s - 2:
            boot_x, boot_u = _rk_step_vjp(boot, model, x_p, u_p, lam_ahead[0])
            lam_p = boot_x + lam_x
            lam_u = boot_u + lam_u
        else:
            lam_p = lam_ahead[0] + lam_x
        du[p] = lam_u.sum(axis=0)
        seed = seed_at(p)
        if seed is not None:
            lam_p = lam_p + seed[sl]
        if costates is not None:
            costates[p, sl] = lam_p
        lam_ahead.insert(0, lam_p)
        del lam_ahead[s:]
    return du, lam_ahead[0]


def backward_gradient(
    scheme: StepScheme,
    model: DynamicsModel,
    states: np.ndarray,
    controls: np.ndarray,
    terminal_seed: np.ndarray,
    running_seed=None,
    costates: np.ndarray | None = None,
):
    """Gradient of a seeded scalar functional over one shooting segment.

    states: (N + 1, M, n) stack produced by propagate_segment with the same
    scheme and controls. controls: (N, m), shared across samples.
    terminal_seed: (M, n) rows holding each sample's d(scalar)/dx at the
    segment end. running_seed optionally supplies additional per-node seeds,
    either as an (N + 1, M, n) array or as a callable j -> (M, n) or None.
    costates, when given, is an (N + 1, M, n) array that receives the
    costate at every node, running seeds included; its row 0 equals the
    returned initial-state gradient.

    Returns (dJ/dU, dJ/dX0) with shapes (N, m) and (M, n); the control
    gradient is summed over samples, the initial-state gradient is per
    sample. The sample batches are swept and their control gradients summed
    in sample order.
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    terminal_seed = np.asarray(terminal_seed, dtype=float)
    if controls.ndim != 2:
        raise ShapeMismatchError("backward sweep expects shared (N, m) controls")
    if states.shape[0] != controls.shape[0] + 1:
        raise ShapeMismatchError(
            f"{states.shape[0]} stored states do not match {controls.shape[0]} steps"
        )
    if terminal_seed.shape != states.shape[1:]:
        raise ShapeMismatchError(
            f"terminal seed shape {terminal_seed.shape} != {states.shape[1:]}"
        )
    if scheme.dt is None:
        raise ParameterError("scheme must have a bound step size")
    if costates is not None and costates.shape != states.shape:
        raise ShapeMismatchError(f"costate output shape {costates.shape} != {states.shape}")

    n_samples = states.shape[1]
    seed_at = _seed_accessor(running_seed, states.shape[0])
    batch = samples_per_batch(model.n, model.m)
    multi = scheme.ab_steps is not None and scheme.ab_steps > 1
    sweep = _sweep_multi_step if multi else _sweep_single_step
    grad_controls = np.zeros((controls.shape[0], model.m))
    grad_initial = np.empty_like(terminal_seed)
    for start in range(0, n_samples, batch):
        sl = slice(start, min(start + batch, n_samples))
        lam = terminal_seed[sl].copy()
        seed = seed_at(controls.shape[0])
        if seed is not None:
            lam += seed[sl]
        if costates is not None:
            costates[-1, sl] = lam
        du, grad_initial[sl] = sweep(scheme, model, states, controls, lam, seed_at, sl, costates)
        grad_controls += du
    return grad_controls, grad_initial


def fd_gradient(functional, point: np.ndarray, h: float | None = None) -> np.ndarray:
    """Second-order centered finite differences of a scalar functional.

    The default step 1e-6 * (1 + |coordinate|) keeps the truncation and
    cancellation errors near 1e-7 for well-scaled functionals.
    """
    point = np.asarray(point, dtype=float)
    grad = np.empty(point.size)
    flat = point.ravel()
    for i in range(flat.size):
        hi = h if h is not None else 1e-6 * (1.0 + abs(flat[i]))
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += hi
        minus[i] -= hi
        grad[i] = (functional(plus.reshape(point.shape)) - functional(minus.reshape(point.shape))) / (2.0 * hi)
    return grad.reshape(point.shape)
