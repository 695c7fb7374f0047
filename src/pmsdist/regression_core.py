"""Linear-model primitives for nested-model post-selection analysis.

The model is Y = X theta + u with u ~ N(0, sigma^2 I_n), a fixed full-rank
design X (n x P), and the nested candidate models M_p = {theta : the last
P - p coordinates vanish}, p = 0..P.  A "protected" minimal order O in
[0, P) is always retained by the selection procedures.

This module provides restricted least squares, the residual scale estimate,
the sequential t-statistics, and the finite-n and limiting projection
quantities (scale factors, covariance vectors, induced regression
coefficients and residual scales) that the distribution formulas are built
from.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from ._gauss import sym_pinv
from .errors import DegenerateSampleError, ValidationError

__all__ = [
    "RegressionProblem",
    "ProjectionQuantities",
    "LimitQuantities",
    "restricted_ls",
    "sigma_hat",
    "t_statistics",
    "projection_quantities",
    "eta",
    "order_of",
    "limit_quantities",
]

# Relative eigenvalue cutoff for generalized inverses and SPD checks.
GINV_REL_TOL = 1e-12
# Euclidean-norm threshold below which a limiting covariance vector counts
# as zero when locating q_star.
QSTAR_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_spd(mat: np.ndarray, name: str) -> None:
    lam = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if lam[0] <= GINV_REL_TOL * max(lam[-1], 0.0) or lam[0] <= 0.0:
        raise ValidationError(f"{name} must be symmetric positive definite "
                              f"(smallest eigenvalue {lam[0]:.3e})")


def _check_target(A: np.ndarray, P: int) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] != P:
        raise ValidationError(f"target matrix has {A.shape[1]} columns, expected {P}")
    k = A.shape[0]
    if np.linalg.matrix_rank(A) < k:
        raise ValidationError("target matrix A must have full row rank")
    return A


@dataclass(frozen=True)
class RegressionProblem:
    """Fixed-design Gaussian regression with a protected minimal order.

    Parameters
    ----------
    X : (n, P) design matrix, full column rank, n > P.
    theta : (P,) true coefficient vector.
    sigma : positive noise standard deviation.
    O : minimal order, integer in [0, P); models below O are never selected.
    """

    X: np.ndarray
    theta: np.ndarray
    sigma: float
    O: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValidationError("X must be a 2-D array")
        n, P = X.shape
        if not (n > P >= 1):
            raise ValidationError(f"need n > P >= 1, got n={n}, P={P}")
        if not np.all(np.isfinite(X)):
            raise ValidationError("X must be finite")
        if np.linalg.matrix_rank(X) < P:
            raise ValidationError("X must have full column rank")
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (P,) or not np.all(np.isfinite(theta)):
            raise ValidationError(f"theta must be a finite vector of length {P}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError("sigma must be a positive finite real")
        if not (isinstance(self.O, (int, np.integer)) and 0 <= self.O < P):
            raise ValidationError(f"O must be an integer in [0, {P}), got {self.O!r}")
        object.__setattr__(self, "X", _readonly(X))
        object.__setattr__(self, "theta", _readonly(theta))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "O", int(self.O))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def P(self) -> int:
        return self.X.shape[1]

    @property
    def dof(self) -> int:
        """Residual degrees of freedom n - P."""
        return self.n - self.P

    @cached_property
    def gram(self) -> np.ndarray:
        return _readonly(self.X.T @ self.X / self.n)

    @cached_property
    def _qr(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Reduced QR factors of X[:, :p] for p = 1..P."""
        out = []
        for p in range(1, self.P + 1):
            q, r = np.linalg.qr(self.X[:, :p], mode="reduced")
            out.append((q, r))
        return tuple(out)


@dataclass(frozen=True)
class ProjectionQuantities:
    """Finite-n building blocks for target A and order p.

    xi_np is the t-statistic scale (sqrt of the trailing diagonal entry of
    the inverted leading Gram block); C_np the covariance vector between the
    target estimate and the p-th coefficient estimate (up to sigma^2/n);
    b_np and zeta_np the induced regression coefficient and residual scale;
    eta_np the mean vector of the order-p restricted estimator; omega_np the
    covariance A[p] G_p^{-1} A[p]' of the order-p target estimate (up to
    sigma^2/n).
    """

    p: int
    xi_np: float
    C_np: np.ndarray
    b_np: np.ndarray
    zeta_np: float
    eta_np: np.ndarray
    omega_np: np.ndarray


@dataclass(frozen=True)
class LimitQuantities:
    """Limiting analogues of the projection quantities, for p = 1..P.

    Arrays are indexed by p - 1; the ``xi``, ``C``, ``b``, ``zeta`` and
    ``omega`` accessors take the order p directly.  q_star is the largest
    q > O whose limiting covariance vector is (numerically) non-zero, or
    None when every such vector vanishes — the hypothesis gate for the
    non-uniformity phenomena.
    """

    Q: np.ndarray
    A: np.ndarray
    O: int
    xi_inf: np.ndarray      # (P,)
    C_inf: np.ndarray       # (P, k)
    b_inf: np.ndarray       # (P, k)
    zeta_inf: np.ndarray    # (P,)
    omega_inf: np.ndarray   # (P, k, k), A[p] Q[p:p]^{-1} A[p]'
    q_star: int | None

    @property
    def P(self) -> int:
        return self.Q.shape[0]

    @property
    def k(self) -> int:
        return self.A.shape[0]

    def xi(self, p: int) -> float:
        return float(self.xi_inf[p - 1])

    def C(self, p: int) -> np.ndarray:
        return self.C_inf[p - 1]

    def b(self, p: int) -> np.ndarray:
        return self.b_inf[p - 1]

    def zeta(self, p: int) -> float:
        return float(self.zeta_inf[p - 1])

    def omega(self, p: int) -> np.ndarray:
        """Covariance A[p] Q[p:p]^{-1} A[p]' of the order-p limit law (unit sigma)."""
        return self.omega_inf[p - 1]


def restricted_ls(problem: RegressionProblem, Y: np.ndarray, p: int) -> np.ndarray:
    """Least-squares fit restricted to the first p coordinates.

    Returns the length-P coefficient vector with the last P - p entries
    exactly zero; p = 0 returns the zero vector and p = P the unrestricted
    fit.  Computed from a QR factorization of X[:, :p].
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (problem.n,):
        raise ValidationError(f"Y must have shape ({problem.n},)")
    if not (0 <= p <= problem.P):
        raise ValidationError(f"order p={p} outside [0, {problem.P}]")
    out = np.zeros(problem.P)
    if p == 0:
        return out
    q, r = problem._qr[p - 1]
    if np.min(np.abs(np.diag(r))) <= 0.0:
        raise ValidationError(f"X[:, :{p}] is numerically singular")
    out[:p] = solve_triangular(r, q.T @ Y)
    return out


def sigma_hat(problem: RegressionProblem, Y: np.ndarray) -> float:
    """Residual standard deviation sqrt(||Y - X theta_hat(P)||^2 / (n - P))."""
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (problem.n,):
        raise ValidationError(f"Y must have shape ({problem.n},)")
    q, _ = problem._qr[problem.P - 1]
    rss = float(Y @ Y - np.sum((q.T @ Y) ** 2))
    return float(np.sqrt(max(rss, 0.0) / problem.dof))


def t_statistics(problem: RegressionProblem, Y: np.ndarray) -> np.ndarray:
    """Sequential t-statistics T_0..T_P (T_0 = 0 by convention).

    T_p scales the trailing coefficient of the order-p restricted fit by
    the full-model residual estimate and the order-p scale factor.  Raises
    DegenerateSampleError when the sample fits exactly (sigma_hat = 0).
    """
    s = sigma_hat(problem, Y)
    if s == 0.0:
        raise DegenerateSampleError("sigma_hat is zero: Y lies in the column space of X")
    sqrt_n = np.sqrt(problem.n)
    T = np.zeros(problem.P + 1)
    for p in range(1, problem.P + 1):
        coef = restricted_ls(problem, Y, p)[p - 1]
        T[p] = sqrt_n * coef / (s * xi_n(problem, p))
    return T


def xi_n(problem: RegressionProblem, p: int) -> float:
    """Scale factor: sqrt of the (p,p) entry of the inverted leading Gram block."""
    if not (1 <= p <= problem.P):
        raise ValidationError(f"order p={p} outside [1, {problem.P}]")
    gp = problem.gram[:p, :p]
    ep = np.zeros(p)
    ep[-1] = 1.0
    return float(np.sqrt(np.linalg.solve(gp, ep)[-1]))


def eta(problem: RegressionProblem, p: int) -> np.ndarray:
    """Mean vector of the order-p restricted estimator.

    The first p coordinates absorb the projection of the excluded ones:
    theta[:p] + G_p^{-1} G_{p,rest} theta[p:]; the tail is zero.  p = 0
    gives the zero vector and p = P gives theta itself.
    """
    if not (0 <= p <= problem.P):
        raise ValidationError(f"order p={p} outside [0, {problem.P}]")
    P = problem.P
    out = np.zeros(P)
    if p == 0:
        return out
    if p == P:
        return problem.theta.copy()
    gram = problem.gram
    head = problem.theta[:p] + np.linalg.solve(
        gram[:p, :p], gram[:p, p:] @ problem.theta[p:]
    )
    out[:p] = head
    return out


def order_of(theta: np.ndarray) -> int:
    """Smallest p with theta in M_p: the index of the last non-zero entry.

    Uses exact-zero comparison; returns 0 for the zero vector.
    """
    theta = np.asarray(theta, dtype=float)
    nz = np.nonzero(theta)[0]
    return 0 if nz.size == 0 else int(nz[-1]) + 1


def _projection_from_gram(gram: np.ndarray, A: np.ndarray, p: int):
    """Shared finite-n / limit computation of (xi, C, b, zeta, omega) at order p."""
    gp = gram[:p, :p]
    Ap = A[:, :p]
    ep = np.zeros(p)
    ep[-1] = 1.0
    ginv_ep = np.linalg.solve(gp, ep)
    xi2 = float(ginv_ep[-1])
    C = Ap @ ginv_ep
    omega = Ap @ np.linalg.solve(gp, Ap.T)
    omega = 0.5 * (omega + omega.T)
    omega_pinv = sym_pinv(omega, GINV_REL_TOL)
    b = C @ omega_pinv
    zeta2 = xi2 - float(b @ C)
    tol = 1e-10 * max(1.0, abs(xi2))
    if zeta2 < -tol:
        raise ValidationError(
            f"zeta^2 = {zeta2:.3e} below the clamping tolerance at order {p}")
    if zeta2 <= tol:  # cancellation residue of an exact zero, of either sign
        zeta2 = 0.0
    return float(np.sqrt(xi2)), C, b, float(np.sqrt(zeta2)), omega


def projection_quantities(problem: RegressionProblem, A: np.ndarray, p: int) -> ProjectionQuantities:
    """Finite-n quantities (xi, C, b, zeta, eta, omega) for target A at order p.

    The generalized inverse in b and zeta is the symmetric eigendecomposition
    pseudo-inverse with relative cutoff 1e-12; zeta^2 is clamped to zero when
    within 1e-10 (relative to max(1, xi^2)) of it from either side, the
    floating-point cancellation residue of an exact zero.
    """
    if not (1 <= p <= problem.P):
        raise ValidationError(f"order p={p} outside [1, {problem.P}]")
    A = _check_target(A, problem.P)
    xi, C, b, zeta, omega = _projection_from_gram(problem.gram, A, p)
    return ProjectionQuantities(p=p, xi_np=xi, C_np=C, b_np=b, zeta_np=zeta,
                                eta_np=eta(problem, p), omega_np=omega)


def limit_quantities(Q: np.ndarray, A: np.ndarray, O: int = 0) -> LimitQuantities:
    """Limiting quantities for all orders p = 1..P, plus q_star.

    Q is the limit Gram (SPD); A the k x P target with full row rank; O the
    minimal order used to locate q_star = max{q > O : ||C_q|| > 1e-10}
    (None when no such q exists).
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError("Q must be a square matrix")
    _check_spd(Q, "Q")
    P = Q.shape[0]
    A = _check_target(A, P)
    if not (0 <= O < P):
        raise ValidationError(f"O must lie in [0, {P}), got {O}")
    k = A.shape[0]
    xi = np.zeros(P)
    C = np.zeros((P, k))
    b = np.zeros((P, k))
    zeta = np.zeros(P)
    omega = np.zeros((P, k, k))
    for p in range(1, P + 1):
        xi[p - 1], C[p - 1], b[p - 1], zeta[p - 1], omega[p - 1] = _projection_from_gram(Q, A, p)
    q_star = None
    for q in range(P, O, -1):
        if np.linalg.norm(C[q - 1]) > QSTAR_TOL:
            q_star = q
            break
    return LimitQuantities(
        Q=_readonly(Q), A=_readonly(A), O=int(O),
        xi_inf=xi, C_inf=C, b_inf=b, zeta_inf=zeta, omega_inf=omega,
        q_star=q_star,
    )

