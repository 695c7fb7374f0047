"""Built-in test designs with exact integer Gram structure.

Every named fixture hard-codes a design whose scaled Gram X'X/n equals its
limiting matrix Q exactly at every admissible sample size, removing one
approximation layer from formula-vs-oracle comparisons:

ORTHO2       n even: intercept plus an alternating-sign column, X'X = n I_2;
             protected first coordinate (O = 1), target A = I_2.
COLL2        n multiple of 4: intercept plus a (2,0,0,0)-periodic column,
             X'X/n = [[1, .5], [.5, 1]]; nothing protected, A = I_2.
BLOCK_ORTHO  the ORTHO2 design with the scalar target A = (1, 0): the
             later-stage fits are uncorrelated with the target (q_star None).
P1           single intercept column, P = 1, O = 0, threshold 1.96.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._gauss import philox
from .errors import ValidationError
from .regression_core import LimitQuantities, RegressionProblem, limit_quantities
from .selection import GeneralToSpecific

__all__ = ["Fixture", "fixture", "FIXTURE_NAMES"]


@dataclass(frozen=True)
class Fixture:
    """A named problem instance plus its target, rule, and exact limit Gram."""

    name: str
    problem: RegressionProblem
    A: np.ndarray
    rule: GeneralToSpecific
    Q: np.ndarray

    @cached_property
    def limits(self) -> LimitQuantities:
        return limit_quantities(self.Q, self.A, O=self.problem.O)

    def at_n(self, n: int) -> "Fixture":
        """The same named design, theta and sigma rebuilt at another sample size."""
        return fixture(self.name, n=n, theta=self.problem.theta, sigma=self.problem.sigma)


def _ortho2_design(n: int) -> np.ndarray:
    if n < 4 or n % 2:
        raise ValidationError("ORTHO2 needs an even n >= 4")
    x2 = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return np.column_stack([np.ones(n), x2])


def _coll2_design(n: int) -> np.ndarray:
    if n < 8 or n % 4:
        raise ValidationError("COLL2 needs n >= 8 divisible by 4")
    x2 = np.zeros(n)
    x2[::4] = 2.0
    return np.column_stack([np.ones(n), x2])


def fixture(name: str, n: int | None = None, theta=None,
            sigma: float = 1.0) -> Fixture:
    """Build a named fixture, optionally at a custom n / theta / sigma."""
    key = name.upper().replace("-", "_")
    if key == "ORTHO2":
        n = 20 if n is None else n
        theta = np.array([0.5, 0.15]) if theta is None else np.asarray(theta, dtype=float)
        problem = RegressionProblem(X=_ortho2_design(n), theta=theta, sigma=sigma, O=1)
        return Fixture(name="ORTHO2", problem=problem, A=np.eye(2),
                       rule=GeneralToSpecific(critical=(2.0,)), Q=np.eye(2))
    if key == "COLL2":
        n = 20 if n is None else n
        theta = np.array([1.0, 0.5]) if theta is None else np.asarray(theta, dtype=float)
        problem = RegressionProblem(X=_coll2_design(n), theta=theta, sigma=sigma, O=0)
        return Fixture(name="COLL2", problem=problem, A=np.eye(2),
                       rule=GeneralToSpecific(critical=(2.0, 2.0)),
                       Q=np.array([[1.0, 0.5], [0.5, 1.0]]))
    if key == "BLOCK_ORTHO":
        n = 20 if n is None else n
        theta = np.array([0.5, 0.15]) if theta is None else np.asarray(theta, dtype=float)
        problem = RegressionProblem(X=_ortho2_design(n), theta=theta, sigma=sigma, O=1)
        return Fixture(name="BLOCK_ORTHO", problem=problem,
                       A=np.array([[1.0, 0.0]]),
                       rule=GeneralToSpecific(critical=(2.0,)), Q=np.eye(2))
    if key == "P1":
        n = 100 if n is None else n
        if n < 2:
            raise ValidationError("P1 needs n >= 2")
        theta = np.array([0.0]) if theta is None else np.asarray(theta, dtype=float)
        problem = RegressionProblem(X=np.ones((n, 1)), theta=theta, sigma=sigma, O=0)
        return Fixture(name="P1", problem=problem, A=np.array([[1.0]]),
                       rule=GeneralToSpecific(critical=(1.96,)),
                       Q=np.array([[1.0]]))
    raise ValidationError(f"unknown fixture {name!r}; "
                          f"choose from {', '.join(FIXTURE_NAMES)}")


FIXTURE_NAMES = ("ORTHO2", "COLL2", "BLOCK_ORTHO", "P1")


def random_k1_limit_case(seed: int):
    """A randomized scalar-target limit setup for cross-path comparisons.

    Returns (limits, theta, gamma, sigma, rule, t): a random SPD limit Gram
    of dimension 1..3, a random unit-row target, a random protected order,
    thresholds in [1, 2.5], a random true order, and a drift vector.
    """
    rng = philox(seed, 71)
    P = int(rng.integers(1, 4))
    M = rng.standard_normal((P + 2, P))
    Q = M.T @ M / (P + 2)
    Q = 0.5 * (Q + Q.T) + 0.1 * np.eye(P)
    A = rng.standard_normal((1, P))
    A /= np.linalg.norm(A)
    O = int(rng.integers(0, P))
    critical = tuple(rng.uniform(1.0, 2.5, size=P - O))
    p0 = int(rng.integers(0, P + 1))
    theta = np.zeros(P)
    if p0:
        theta[:p0] = rng.uniform(0.5, 1.5, size=p0) * rng.choice([-1.0, 1.0], size=p0)
    gamma = rng.uniform(-2.0, 2.0, size=P)
    sigma = float(rng.uniform(0.5, 2.0))
    t = float(rng.uniform(-2.5, 2.5)) * sigma
    limits = limit_quantities(Q, A, O=O)
    return limits, theta, gamma, sigma, GeneralToSpecific(critical=critical), np.array([t])
