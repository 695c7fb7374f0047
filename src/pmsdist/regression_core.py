"""Linear-model primitives for nested-model post-selection analysis.

The model is Y = X theta + u with u ~ N(0, sigma^2 I_n), a fixed full-rank
design X (n x P), and the nested candidate models M_p = {theta : the last
P - p coordinates vanish}, p = 0..P.  A "protected" minimal order O in
[0, P) is always retained by the selection procedures.

This module provides restricted least squares, the residual scale estimate,
the sequential t-statistics, the one design record (`LimitQuantities`: scale
factors, covariance vectors, induced regression coefficients, residual
scales and target covariances of every order) and the one source of shift
vectors and drifts (`local_shift_constants`).  The finite-n law depends on
the design only through X'X/n and on theta only through sqrt(n) theta, so
both distribution formulas read these: the limit one at the limit Gram Q
and the drift gamma, the exact one at Q = X'X/n and gamma = sqrt(n) theta.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from ._gauss import GINV_REL_TOL, condition_on_scalar, sym_eigh, sym_pinv
from .errors import DegenerateSampleError, ValidationError, target_matrix

__all__ = [
    "RegressionProblem",
    "LimitQuantities",
    "LocalShiftConstants",
    "restricted_ls",
    "sigma_hat",
    "t_statistics",
    "projection_quantities",
    "kept_drift",
    "order_of",
    "limit_quantities",
    "local_shift_constants",
    "xi_n",
]

# Euclidean-norm threshold below which a limiting covariance vector counts
# as zero when locating q_star.
QSTAR_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _check_spd(mat: np.ndarray, name: str) -> None:
    lam, _, keep = sym_eigh(mat)
    if not keep.all():
        raise ValidationError(f"{name} must be symmetric positive definite "
                              f"(smallest eigenvalue {lam[0]:.3e})")


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

    @cached_property
    def _records(self) -> dict[tuple, LimitQuantities]:
        """`projection_quantities` records, keyed by the target's shape and bytes."""
        return {}

    @cached_property
    def _drifts(self) -> dict[tuple, tuple]:
        """One slot per `_records` key: (key, record) of the drift record
        `kept_drift` built last for that target."""
        return {}


@dataclass(frozen=True)
class LimitQuantities:
    """The design record of a Gram Q and target A, for p = 1..P.

    xi_p is the t-statistic scale (sqrt of the trailing diagonal entry of
    Q[p:p]^{-1}); C_p the covariance vector between the order-p target
    estimate and its trailing coefficient; b_p and zeta_p the induced
    regression coefficient and residual scale; omega_p the covariance
    A[p] Q[p:p]^{-1} A[p]' of the order-p target estimate (all at unit
    sigma).  Q is the limit Gram (`limit_quantities`) or X'X/n
    (`projection_quantities`).  Arrays are indexed by p - 1; the ``xi``,
    ``C``, ``b``, ``zeta`` and ``omega`` accessors take the order p
    directly, and omega(0), the order-0 estimator being the point 0, is
    the zero matrix.  q_star is the largest q > O whose covariance vector
    is (numerically) non-zero, or None when every such vector vanishes —
    the hypothesis gate for the non-uniformity phenomena.
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
        """Covariance A[p] Q[p:p]^{-1} A[p]' of the order-p law (unit sigma)."""
        return self.omega_inf[p - 1] if p else np.zeros((self.k, self.k))

    def split(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Order p's target estimate z split on its selection scalar X =
        W / xi_p, z = g X + R with R ~ N(0, S), S = L L'
        (`condition_on_scalar`): (g, S, L), a function of the record alone,
        built on first use and kept, read-only."""
        out = self._splits.get(p)
        if out is None:
            out = self._splits[p] = tuple(_readonly(v) for v in condition_on_scalar(
                self.omega(p), self.C(p), self.xi(p) ** 2))
        return out

    @cached_property
    def _splits(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return {}


@dataclass(frozen=True)
class LocalShiftConstants:
    """p_star together with the shift vectors beta(p) and drift scalars nu_p.

    beta maps p in {p_star, ..., P} to the k-vector shift of the order-p
    mixture component; nu maps p in {p_star+1, ..., P} to the scalar drift
    of the order-p trailing coordinate."""

    p_star: int
    beta: dict[int, np.ndarray]
    nu: dict[int, float]


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
    return float(np.sqrt(residual_ss(problem._qr[problem.P - 1][0], Y) / problem.dof))


def residual_ss(q: np.ndarray, Y: np.ndarray) -> float:
    """Residual sum of squares of Y off the orthonormal columns of q.

    Formed from the residual vector Y - q q'Y, not as Y'Y - |q'Y|^2, whose
    cancellation leaves a rounding residue of order sqrt(eps) |Y| at an
    exact fit; a residual norm at most GINV_REL_TOL |Y| counts as zero.
    """
    r = Y - q @ (q.T @ Y)
    rss = float(r @ r)
    return 0.0 if rss <= (GINV_REL_TOL * np.linalg.norm(Y)) ** 2 else rss


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


def order_of(theta: np.ndarray) -> int:
    """Smallest p with theta in M_p: the index of the last non-zero entry.

    Uses exact-zero comparison; returns 0 for the zero vector.
    """
    theta = np.asarray(theta, dtype=float)
    nz = np.nonzero(theta)[0]
    return 0 if nz.size == 0 else int(nz[-1]) + 1


def _design_record(Q: np.ndarray, A: np.ndarray, O: int) -> LimitQuantities:
    """The record of Q and A for p = 1..P, plus q_star; arguments unchecked.

    The generalized inverse in b and zeta is the symmetric eigendecomposition
    pseudo-inverse with relative cutoff GINV_REL_TOL; zeta^2 is clamped to
    zero when within 1e-10 (relative to max(1, xi^2)) of it from either
    side, the floating-point cancellation residue of an exact zero.
    """
    P, k = Q.shape[0], A.shape[0]
    xi = np.zeros(P)
    C = np.zeros((P, k))
    b = np.zeros((P, k))
    zeta = np.zeros(P)
    omega = np.zeros((P, k, k))
    for p in range(1, P + 1):
        qp, Ap = Q[:p, :p], A[:, :p]
        ep = np.zeros(p)
        ep[-1] = 1.0
        qinv_ep = np.linalg.solve(qp, ep)
        xi2 = float(qinv_ep[-1])
        C[p - 1] = Ap @ qinv_ep
        om = Ap @ np.linalg.solve(qp, Ap.T)
        omega[p - 1] = 0.5 * (om + om.T)
        b[p - 1] = C[p - 1] @ sym_pinv(omega[p - 1])
        zeta2 = xi2 - float(b[p - 1] @ C[p - 1])
        tol = 1e-10 * max(1.0, abs(xi2))
        if zeta2 < -tol:
            raise ValidationError(
                f"zeta^2 = {zeta2:.3e} below the clamping tolerance at order {p}")
        if zeta2 <= tol:  # cancellation residue of an exact zero, of either sign
            zeta2 = 0.0
        xi[p - 1], zeta[p - 1] = np.sqrt(xi2), np.sqrt(zeta2)
    q_star = None
    for q in range(P, O, -1):
        if np.linalg.norm(C[q - 1]) > QSTAR_TOL:
            q_star = q
            break
    return LimitQuantities(
        Q=_readonly(Q), A=_readonly(A), O=int(O),
        xi_inf=_readonly(xi), C_inf=_readonly(C), b_inf=_readonly(b),
        zeta_inf=_readonly(zeta), omega_inf=_readonly(omega), q_star=q_star,
    )


def projection_quantities(problem: RegressionProblem, A: np.ndarray) -> LimitQuantities:
    """The design record of X'X/n for target A and every order.

    The finite-n counterpart of `limit_quantities`, without its positive
    definiteness gate: `RegressionProblem` has checked the rank of X, and
    a nearly collinear design keeps its finite-n law.

    The record depends on neither t, theta nor sigma, so it is built once
    per (problem, target) and kept on the problem, keyed by the float64
    target's shape and bytes; every later call with the same target gets
    the same read-only record, and with it each order's conditioning
    split (`LimitQuantities.split`, built on first use).  A target is
    validated only when it is first seen: equal bytes were valid then.
    The memo holds one record of O(P k^2) floats per distinct target,
    whatever n is; beside each record the problem keeps one slot for the
    drift record of the last parameter point (`kept_drift`).
    """
    A = np.asarray(A, dtype=float)
    key = _target_key(A)
    rec = problem._records.get(key)
    if rec is None:
        rec = _design_record(problem.gram, target_matrix(A, problem.P), problem.O)
        problem._records[key] = rec
    return rec


def _target_key(A: np.ndarray) -> tuple:
    return A.shape, A.tobytes()


def kept_drift(problem: RegressionProblem, A: np.ndarray, key: tuple, build):
    """The drift record of float64 target A at ``key``, kept beside A's
    design record: the one in A's slot if it was built at an equal key,
    else build(), which takes the slot.

    A drift record is what a cdf evaluator derives from the design record
    and one parameter point without its argument t (`dist_exact` keys it
    by theta/sigma, the critical values and its layout constants).  The
    slot holds one record per target, the last point's, so a sweep over
    any number of points keeps one; ``key`` must compare with ``!=``
    (bytes, numbers and tuples of them), and the record must pickle, as a
    problem travels to worker processes with its slots.
    """
    slot = _target_key(A)
    kept = problem._drifts.get(slot)
    if kept is None or kept[0] != key:
        kept = problem._drifts[slot] = (key, build())
    return kept[1]


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
    A = target_matrix(A, P)
    if not (0 <= O < P):
        raise ValidationError(f"O must lie in [0, {P}), got {O}")
    return _design_record(Q, A, O)


def local_shift_constants(Q: np.ndarray, A: np.ndarray, theta, gamma,
                          O: int = 0) -> LocalShiftConstants:
    """Shift constants of the order-p mixture components under drift gamma.

    For p between p_star = max(order(theta), O) and P the mixture component
    of order p is shifted by

        beta(p) = A ( Q[p,p]^{-1} Q[p, p+1:] gamma[p+1:] ; -gamma[p+1:] ),

    so beta(P) = 0 and beta(0) = -A gamma, and for p > p_star the trailing
    coordinate of the order-p fit drifts by

        nu_p = gamma_p + ( Q[p,p]^{-1} Q[p, p+1:] gamma[p+1:] )_p.

    At Q = X'X/n, theta = 0 and gamma = sqrt(n) theta these are the finite-n
    shifts sqrt(n) A (eta(p) - theta) and drifts sqrt(n) eta_p(p), eta(p)
    being the mean of the order-p restricted estimator.
    """
    Q = np.asarray(Q, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    P = Q.shape[0]
    if A.shape[1] != P or theta.shape != (P,) or gamma.shape != (P,):
        raise ValidationError("dimension mismatch between Q, A, theta, gamma")
    if not (0 <= O < P):
        raise ValidationError(f"O must lie in [0, P), got {O}")
    p_star = max(order_of(theta), O)
    beta: dict[int, np.ndarray] = {}
    nu: dict[int, float] = {}
    for p in range(p_star, P + 1):
        vec = np.zeros(P)
        if p < P:
            vec[p:] = -gamma[p:]
        if 0 < p < P:
            vec[:p] = np.linalg.solve(Q[:p, :p], Q[:p, p:] @ gamma[p:])
        beta[p] = A @ vec
        if p > p_star:
            nu[p] = float(gamma[p - 1] + vec[p - 1]) if p < P else float(gamma[P - 1])
    return LocalShiftConstants(p_star=p_star, beta=beta, nu=nu)
