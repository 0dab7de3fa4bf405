"""Controlled ODE models with analytic right-hand sides and Jacobians.

All models evaluate batch-wise: states have shape (..., n) with the leading
axes ranging over samples, controls have shape (..., m) broadcastable against
the state batch (typically (m,) shared across samples or (M, m) per sample).
rhs returns (..., n), jac_x returns (..., n, n) and jac_u returns (..., n, m).
vjp(x, u, lam) returns the row-vector products (lam . f_x, lam . f_u) with
shapes (..., n) and (..., m); the backward sweeps use it instead of the dense
Jacobians. Models are stateless after construction and safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

from .chebyshev import chebyshev_operators
from .errors import DomainError, ShapeMismatchError


def _batch_shape(x: np.ndarray, u: np.ndarray) -> tuple:
    return np.broadcast_shapes(x.shape[:-1], u.shape[:-1])


def _first_bad_sample(mask: np.ndarray):
    """Index of the first True along the leading axis, None for 0-d masks."""
    mask = np.atleast_1d(mask)
    idx = np.flatnonzero(mask.reshape(mask.shape[0], -1).any(axis=1))
    return int(idx[0]) if idx.size else None


class DynamicsModel:
    """Interface shared by every model: n, m, name, rhs, jac_x, jac_u, vjp.

    A model needs only rhs, jac_x and jac_u; vjp defaults to contracting the
    dense Jacobians and is an optional speed override.
    """

    n: int
    m: int
    name: str
    control_affine: bool = False

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac_x(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac_u(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def vjp(self, x: np.ndarray, u: np.ndarray, lam: np.ndarray):
        """(lam . f_x, lam . f_u) with shapes (..., n) and (..., m)."""
        lam = np.asarray(lam, dtype=float)[..., None, :]
        return (lam @ self.jac_x(x, u))[..., 0, :], (lam @ self.jac_u(x, u))[..., 0, :]

    def _check_dims(self, x: np.ndarray, u: np.ndarray):
        if x.shape[-1] != self.n:
            raise ShapeMismatchError(
                f"{self.name}: state dimension {x.shape[-1]} != {self.n}"
            )
        if u.shape[-1] != self.m:
            raise ShapeMismatchError(
                f"{self.name}: control dimension {u.shape[-1]} != {self.m}"
            )


class UgvDifferentialDrive(DynamicsModel):
    """Differential-drive ground vehicle.

    States (x1, x2) planar position, x3 heading; controls u1 velocity and u2
    steering rate, both scaled by the wheel radius R:

        x1' = R u1 cos(x3),  x2' = R u1 sin(x3),  x3' = R u2.

    With random_radius=True the radius is read from an appended fourth state
    coordinate with zero dynamics; otherwise it is the fixed `radius`.
    """

    m = 2
    control_affine = True

    def __init__(self, random_radius: bool = False, radius: float = 1.25):
        self.random_radius = bool(random_radius)
        self.radius = float(radius)
        self.n = 4 if self.random_radius else 3
        self.name = "ugv_differential_drive"

    def _radius(self, x):
        return x[..., 3] if self.random_radius else self.radius

    def rhs(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        r = self._radius(x)
        c3, s3 = np.cos(x[..., 2]), np.sin(x[..., 2])
        out = np.zeros(_batch_shape(x, u) + (self.n,))
        out[..., 0] = r * u[..., 0] * c3
        out[..., 1] = r * u[..., 0] * s3
        out[..., 2] = r * u[..., 1]
        return out

    def jac_x(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        r = self._radius(x)
        c3, s3 = np.cos(x[..., 2]), np.sin(x[..., 2])
        jac = np.zeros(_batch_shape(x, u) + (self.n, self.n))
        jac[..., 0, 2] = -r * u[..., 0] * s3
        jac[..., 1, 2] = r * u[..., 0] * c3
        if self.random_radius:
            jac[..., 0, 3] = u[..., 0] * c3
            jac[..., 1, 3] = u[..., 0] * s3
            jac[..., 2, 3] = u[..., 1]
        return jac

    def jac_u(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        r = self._radius(x)
        jac = np.zeros(_batch_shape(x, u) + (self.n, self.m))
        jac[..., 0, 0] = r * np.cos(x[..., 2])
        jac[..., 1, 0] = r * np.sin(x[..., 2])
        jac[..., 2, 1] = r
        return jac

    def vjp(self, x, u, lam):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        lam = np.asarray(lam, dtype=float)
        self._check_dims(x, u)
        r = self._radius(x)
        c3, s3 = np.cos(x[..., 2]), np.sin(x[..., 2])
        batch = np.broadcast_shapes(_batch_shape(x, u), lam.shape[:-1])
        along = lam[..., 0] * c3 + lam[..., 1] * s3  # lam . (cos x3, sin x3)
        lam_x = np.zeros(batch + (self.n,))
        lam_x[..., 2] = r * u[..., 0] * (lam[..., 1] * c3 - lam[..., 0] * s3)
        if self.random_radius:
            lam_x[..., 3] = u[..., 0] * along + u[..., 1] * lam[..., 2]
        lam_u = np.empty(batch + (self.m,))
        lam_u[..., 0] = r * along
        lam_u[..., 1] = r * lam[..., 2]
        return lam_x, lam_u


class UgvBicycle(DynamicsModel):
    """Bicycle-steered ground vehicle with wheelbase L.

        x1' = u1 cos(x3),  x2' = u1 sin(x3),  x3' = (u1 / L) tan(u2),

    valid only for |u2| < pi/2.
    """

    n = 3
    m = 2
    control_affine = False

    def __init__(self, wheelbase: float = 1.0):
        self.wheelbase = float(wheelbase)
        self.name = "ugv_bicycle"

    def _check_steering(self, u):
        bad = np.abs(u[..., 1]) >= np.pi / 2
        if np.any(bad):
            raise DomainError(
                "steering angle |u2| must stay below pi/2",
                sample_index=_first_bad_sample(bad) if u.ndim > 1 else None,
            )

    def rhs(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        self._check_steering(u)
        out = np.zeros(_batch_shape(x, u) + (self.n,))
        out[..., 0] = u[..., 0] * np.cos(x[..., 2])
        out[..., 1] = u[..., 0] * np.sin(x[..., 2])
        out[..., 2] = u[..., 0] * np.tan(u[..., 1]) / self.wheelbase
        return out

    def jac_x(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        self._check_steering(u)
        jac = np.zeros(_batch_shape(x, u) + (self.n, self.n))
        jac[..., 0, 2] = -u[..., 0] * np.sin(x[..., 2])
        jac[..., 1, 2] = u[..., 0] * np.cos(x[..., 2])
        return jac

    def jac_u(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        self._check_steering(u)
        jac = np.zeros(_batch_shape(x, u) + (self.n, self.m))
        jac[..., 0, 0] = np.cos(x[..., 2])
        jac[..., 1, 0] = np.sin(x[..., 2])
        jac[..., 2, 0] = np.tan(u[..., 1]) / self.wheelbase
        jac[..., 2, 1] = u[..., 0] / (self.wheelbase * np.cos(u[..., 1]) ** 2)
        return jac

    def vjp(self, x, u, lam):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        lam = np.asarray(lam, dtype=float)
        self._check_dims(x, u)
        self._check_steering(u)
        c3, s3 = np.cos(x[..., 2]), np.sin(x[..., 2])
        batch = np.broadcast_shapes(_batch_shape(x, u), lam.shape[:-1])
        lam_x = np.zeros(batch + (self.n,))
        lam_x[..., 2] = u[..., 0] * (lam[..., 1] * c3 - lam[..., 0] * s3)
        lam_u = np.empty(batch + (self.m,))
        lam_u[..., 0] = (
            lam[..., 0] * c3 + lam[..., 1] * s3 + lam[..., 2] * np.tan(u[..., 1]) / self.wheelbase
        )
        lam_u[..., 1] = lam[..., 2] * u[..., 0] / (self.wheelbase * np.cos(u[..., 1]) ** 2)
        return lam_x, lam_u


class FixedWingUav(DynamicsModel):
    """Fixed-wing aerial vehicle, nine physical states plus four appended
    aerodynamic coefficients treated as constant state coordinates.

    States: x, y, z position; v speed; gamma elevation; sigma heading;
    T thrust; alpha angle of attack; mu bank angle; then Cx0, Cxa, Cz0, Cza.
    Controls: rates (u_T, u_alpha, u_mu).

        x'     = v cos(gamma) cos(sigma)
        y'     = v cos(gamma) sin(sigma)
        z'     = v sin(gamma)
        v'     = (-D + T cos(alpha)) / mass - g sin(gamma)
        gamma' = cos(mu) (L + T sin(alpha)) / (mass v) - (g / v) cos(gamma)
        sigma' = sin(mu) (L + T sin(alpha)) / (mass v cos(gamma))
        T'     = u_T,  alpha' = u_alpha,  mu' = u_mu

    with lift and drag L = q S C_L, D = q S C_D, dynamic pressure
    q = rho(z) v^2 / 2, air density rho(z) = 1.21 exp(-z / 8000), and

        C_L = (Cx0 + Cxa a) sin(a) - (Cz0 + Cza a) cos(a)
        C_D = -(Cx0 + Cxa a) cos(a) - (Cz0 + Cza a) sin(a)

    for a = alpha. The vector field is singular at v = 0 and |gamma| = pi/2;
    such states are rejected with the offending sample index.
    """

    n = 13
    m = 3
    control_affine = True

    mass = 2.0
    gravity = 9.8
    wing_area = 0.982
    rho0 = 1.21
    z_scale = 8000.0

    # hard validity box of the physical model (state index -> (lo, hi))
    state_validity = {
        3: (13.0, 42.0),
        4: (-np.pi / 6, np.pi / 6),
        5: (-np.pi, np.pi),
        6: (3.0, 35.0),
        7: (-np.pi / 8, np.pi / 8),
    }
    # default ensemble-mean path bounds; tighter angle-of-attack band
    path_bound_defaults = {
        3: (13.0, 42.0),
        4: (-np.pi / 6, np.pi / 6),
        5: (-np.pi, np.pi),
        6: (3.0, 35.0),
        7: (-np.pi / 12, np.pi / 12),
    }

    def __init__(self):
        self.name = "fixed_wing_uav"

    def _check_singular(self, x):
        bad_v = x[..., 3] <= 0.0
        if np.any(bad_v):
            raise DomainError(
                "speed must be positive", sample_index=_first_bad_sample(bad_v)
            )
        bad_g = np.abs(x[..., 4]) >= np.pi / 2
        if np.any(bad_g):
            raise DomainError(
                "elevation |gamma| must stay below pi/2",
                sample_index=_first_bad_sample(bad_g),
            )

    def _aero(self, x):
        z, v, alpha = x[..., 2], x[..., 3], x[..., 7]
        cx = x[..., 9] + x[..., 10] * alpha
        cz = x[..., 11] + x[..., 12] * alpha
        sa, ca = np.sin(alpha), np.cos(alpha)
        cl = cx * sa - cz * ca
        cd = -cx * ca - cz * sa
        q = 0.5 * self.rho0 * np.exp(-z / self.z_scale) * v**2 * self.wing_area
        return q, cl, cd, cx, cz, sa, ca

    def rhs(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        self._check_singular(x)
        v, gam, sig = x[..., 3], x[..., 4], x[..., 5]
        thrust, mu = x[..., 6], x[..., 8]
        q, cl, cd, _, _, sa, ca = self._aero(x)
        lift, drag = q * cl, q * cd
        cg, sg = np.cos(gam), np.sin(gam)
        w = lift + thrust * sa
        out = np.zeros(_batch_shape(x, u) + (self.n,))
        out[..., 0] = v * cg * np.cos(sig)
        out[..., 1] = v * cg * np.sin(sig)
        out[..., 2] = v * sg
        out[..., 3] = (-drag + thrust * ca) / self.mass - self.gravity * sg
        out[..., 4] = np.cos(mu) * w / (self.mass * v) - self.gravity * cg / v
        out[..., 5] = np.sin(mu) * w / (self.mass * v * cg)
        out[..., 6] = u[..., 0]
        out[..., 7] = u[..., 1]
        out[..., 8] = u[..., 2]
        return out

    def jac_x(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        self._check_singular(x)
        v, gam, sig = x[..., 3], x[..., 4], x[..., 5]
        thrust, alpha, mu = x[..., 6], x[..., 7], x[..., 8]
        q, cl, cd, cx, cz, sa, ca = self._aero(x)
        lift, drag = q * cl, q * cd
        cg, sg = np.cos(gam), np.sin(gam)
        cs, ss = np.cos(sig), np.sin(sig)
        cm, sm = np.cos(mu), np.sin(mu)
        cxa, cza = x[..., 10], x[..., 12]
        # alpha derivatives of the aero coefficients
        dcl = cxa * sa + cx * ca - cza * ca + cz * sa
        dcd = -cxa * ca + cx * sa - cza * sa - cz * ca
        # coefficient-parameter derivatives: columns Cx0, Cxa, Cz0, Cza
        dcl_dc = np.stack([sa, alpha * sa, -ca, -alpha * ca], axis=-1)
        dcd_dc = np.stack([-ca, -alpha * ca, -sa, -alpha * sa], axis=-1)
        w = lift + thrust * sa
        mass, g = self.mass, self.gravity

        jac = np.zeros(_batch_shape(x, u) + (self.n, self.n))
        jac[..., 0, 3] = cg * cs
        jac[..., 0, 4] = -v * sg * cs
        jac[..., 0, 5] = -v * cg * ss
        jac[..., 1, 3] = cg * ss
        jac[..., 1, 4] = -v * sg * ss
        jac[..., 1, 5] = v * cg * cs
        jac[..., 2, 3] = sg
        jac[..., 2, 4] = v * cg

        # v' row; drag varies with z through rho and with v quadratically
        jac[..., 3, 2] = (drag / self.z_scale) / mass
        jac[..., 3, 3] = -(2.0 * drag / v) / mass
        jac[..., 3, 4] = -g * cg
        jac[..., 3, 6] = ca / mass
        jac[..., 3, 7] = (-q * dcd - thrust * sa) / mass
        jac[..., 3, 9:13] = (-q[..., None] * dcd_dc) / mass

        # gamma' row
        jac[..., 4, 2] = cm * (-lift / self.z_scale) / (mass * v)
        jac[..., 4, 3] = cm * (2.0 * lift - w) / (mass * v**2) + g * cg / v**2
        jac[..., 4, 4] = g * sg / v
        jac[..., 4, 6] = cm * sa / (mass * v)
        jac[..., 4, 7] = cm * (q * dcl + thrust * ca) / (mass * v)
        jac[..., 4, 8] = -sm * w / (mass * v)
        jac[..., 4, 9:13] = cm[..., None] * q[..., None] * dcl_dc / (mass * v[..., None])

        # sigma' row
        jac[..., 5, 2] = sm * (-lift / self.z_scale) / (mass * v * cg)
        jac[..., 5, 3] = sm * (2.0 * lift - w) / (mass * v**2 * cg)
        jac[..., 5, 4] = sm * w * sg / (mass * v * cg**2)
        jac[..., 5, 6] = sm * sa / (mass * v * cg)
        jac[..., 5, 7] = sm * (q * dcl + thrust * ca) / (mass * v * cg)
        jac[..., 5, 8] = cm * w / (mass * v * cg)
        jac[..., 5, 9:13] = (
            sm[..., None] * q[..., None] * dcl_dc / (mass * (v * cg)[..., None])
        )
        return jac

    def jac_u(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        jac = np.zeros(_batch_shape(x, u) + (self.n, self.m))
        jac[..., 6, 0] = 1.0
        jac[..., 7, 1] = 1.0
        jac[..., 8, 2] = 1.0
        return jac

    def nominal_state(self) -> np.ndarray:
        """Level-flight reference state used by the built-in problems."""
        out = np.zeros(self.n)
        out[3] = 27.5
        out[5] = np.pi
        out[6] = 16.1
        out[7] = -0.0088
        out[9] = -0.03554
        out[10] = 0.00292
        out[11] = -0.055
        out[12] = -5.578
        return out


class ChebyshevReactionDiffusion(DynamicsModel):
    """Advection-reaction-diffusion dynamics collocated at inner Chebyshev nodes.

        psi' = psi o (D1 psi) + nu D2 psi + rho psi o exp(-psi / decay) + I_controlled u

    with homogeneous Dirichlet boundaries baked into the truncated matrices,
    a scalar control u acting on the nodes inside `control_support`, and o
    denoting the elementwise product.
    """

    m = 1
    control_affine = True

    def __init__(
        self,
        n_nodes: int = 64,
        diffusion: float = 0.2,
        reaction: float = 1.5,
        decay_scale: float = 10.0,
        control_support: tuple[float, float] = (-0.5, -0.2),
    ):
        ops = self.operators = chebyshev_operators(n_nodes)
        self.n = n_nodes
        self.diffusion = float(diffusion)
        self.reaction = float(reaction)
        self.decay_scale = float(decay_scale)
        self.control_support = (float(control_support[0]), float(control_support[1]))
        lo, hi = self.control_support
        self.indicator = ((ops.nodes >= lo) & (ops.nodes <= hi)).astype(float)
        self.name = f"chebyshev_reaction_diffusion_{n_nodes}"

    @property
    def nodes(self) -> np.ndarray:
        return self.operators.nodes

    @property
    def quadrature_weights(self) -> np.ndarray:
        return self.operators.weights

    def rhs(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        d1psi = x @ self.operators.d1.T
        d2psi = x @ self.operators.d2.T
        react = self.reaction * x * np.exp(-x / self.decay_scale)
        return x * d1psi + self.diffusion * d2psi + react + u[..., 0, None] * self.indicator

    def jac_x(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        batch = _batch_shape(x, u)
        n = self.n
        d1psi = x @ self.operators.d1.T
        jac = np.zeros(batch + (n, n))
        jac += x[..., :, None] * self.operators.d1
        jac += self.diffusion * self.operators.d2
        expf = np.exp(-x / self.decay_scale)
        diag = d1psi + self.reaction * expf * (1.0 - x / self.decay_scale)
        idx = np.arange(n)
        jac[..., idx, idx] += diag
        return jac

    def jac_u(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        self._check_dims(x, u)
        jac = np.zeros(_batch_shape(x, u) + (self.n, self.m))
        jac[..., :, 0] = self.indicator
        return jac

    def vjp(self, x, u, lam):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        lam = np.asarray(lam, dtype=float)
        self._check_dims(x, u)
        ops = self.operators
        d1psi = x @ ops.d1.T
        expf = np.exp(-x / self.decay_scale)
        diag = d1psi + self.reaction * expf * (1.0 - x / self.decay_scale)
        lam_x = (lam * x) @ ops.d1 + self.diffusion * (lam @ ops.d2) + lam * diag
        lam_u = (lam @ self.indicator)[..., None]
        return lam_x, lam_u
