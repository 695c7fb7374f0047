"""Model-selection procedures and post-selection fitting.

Three families of rules are supported:

* general-to-specific testing: starting from the full model, the largest
  order whose sequential t-statistic clears its critical value is selected
  (the protected order O is always admissible because its critical value
  is pinned at zero);
* information criteria over a family of coordinate subsets, with a
  deterministic smallest-cardinality-then-lexicographic tie-break;
* per-coordinate thresholding of full-model t-ratios.

The auxiliary consistent order estimator (critical values diverging like
sqrt(log n)) lives here too; the plug-in cdf estimator builds on it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, ValidationError
from .regression_core import (
    RegressionProblem,
    residual_ss,
    restricted_ls,
    sigma_hat,
    t_statistics,
)

__all__ = [
    "GeneralToSpecific",
    "InformationCriterion",
    "Thresholding",
    "SubsetMask",
    "PostSelectionFit",
    "select_g2s",
    "g2s_order",
    "select_ic",
    "ic_values",
    "select_threshold",
    "auxiliary_consistent",
    "full_model_t_ratios",
    "post_select_fit",
    "masked_ls",
    "ic_threshold",
    "rule_to_json",
    "rule_from_json",
]


@dataclass(frozen=True)
class SubsetMask:
    """A coordinate subset of {1..P} as a 0/1 tuple of length P."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not bits or any(b not in (0, 1) for b in bits):
            raise ValidationError("mask bits must be a non-empty 0/1 sequence")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def full(cls, P: int) -> "SubsetMask":
        return cls(bits=(1,) * P)

    @classmethod
    def from_indices(cls, P: int, indices) -> "SubsetMask":
        bits = [0] * P
        for i in indices:
            bits[i] = 1
        return cls(bits=tuple(bits))

    @property
    def P(self) -> int:
        return len(self.bits)

    @property
    def cardinality(self) -> int:
        return sum(self.bits)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    def contains(self, theta: np.ndarray) -> bool:
        """Membership test for the model M_r: excluded coordinates of theta vanish."""
        theta = np.asarray(theta, dtype=float)
        return all(theta[i] == 0.0 for i, b in enumerate(self.bits) if not b)

    def sort_key(self) -> tuple:
        # smallest cardinality first, then lexicographically smallest bits
        return (self.cardinality, self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class GeneralToSpecific:
    """Sequential-testing rule: critical values c_{O+1}..c_P (all positive).

    The protected order's critical value is fixed at zero and not stored, so
    ``critical`` has length P - O for the problem the rule is used with.
    """

    critical: tuple[float, ...]

    def __post_init__(self):
        crit = tuple(float(c) for c in np.atleast_1d(np.asarray(self.critical, dtype=float)))
        if any(not (0.0 < c < np.inf) for c in crit):
            raise ValidationError("critical values must satisfy 0 < c < inf")
        object.__setattr__(self, "critical", crit)

    def validate_for(self, P: int, O: int) -> None:
        if len(self.critical) != P - O:
            raise ValidationError(
                f"rule supplies {len(self.critical)} critical values, "
                f"need P - O = {P - O}")

    def critical_values(self, O: int) -> np.ndarray:
        """c_p at index p = 0..P: zero up to the protected order O."""
        return np.concatenate([np.zeros(O + 1), self.critical])


@dataclass(frozen=True)
class InformationCriterion:
    """IC rule: penalized log residual sum of squares over a subset family.

    IC(r) = log RSS(r) + |r| * upsilon_n / n, minimized over the family,
    which must contain the full mask and at least one mask of cardinality
    P - 1.
    """

    upsilon_n: float
    family: tuple[SubsetMask, ...]

    def __post_init__(self):
        if not (np.isfinite(self.upsilon_n) and self.upsilon_n >= 0.0):
            raise ValidationError("upsilon_n must be a nonnegative finite real")
        family = tuple(self.family)
        if not family:
            raise ValidationError("subset family must be non-empty")
        P = family[0].P
        if any(m.P != P for m in family):
            raise ValidationError("all masks in the family must share P")
        if SubsetMask.full(P) not in family:
            raise ValidationError("subset family must contain the full mask")
        if not any(m.cardinality == P - 1 for m in family):
            raise ValidationError("subset family must contain a mask of cardinality P-1")
        object.__setattr__(self, "upsilon_n", float(self.upsilon_n))
        object.__setattr__(self, "family", family)

    def validate_for(self, P: int, O: int) -> None:
        if self.family[0].P != P:
            raise ValidationError(f"masks have length {self.family[0].P}, need P = {P}")


@dataclass(frozen=True)
class Thresholding:
    """Keep coordinate i iff its full-model |t-ratio| >= cutoff[i]."""

    cutoff: tuple[float, ...]

    def __post_init__(self):
        cut = tuple(float(c) for c in np.atleast_1d(np.asarray(self.cutoff, dtype=float)))
        if any(np.isnan(c) or c < 0.0 for c in cut):
            raise ValidationError("cutoffs must be nonnegative (inf allowed)")
        object.__setattr__(self, "cutoff", cut)

    def validate_for(self, P: int, O: int) -> None:
        if len(self.cutoff) != P:
            raise ValidationError(f"rule supplies {len(self.cutoff)} cutoffs, need P = {P}")


SelectionRule = GeneralToSpecific | InformationCriterion | Thresholding


@dataclass(frozen=True)
class PostSelectionFit:
    """Selected model, its least-squares fit, and the statistics that led there."""

    selected: int | SubsetMask
    estimate: np.ndarray
    sigma_hat: float
    t_stats: np.ndarray
    ic_values: dict | None = None


def g2s_order(T: np.ndarray, O: int, critical) -> int:
    """Largest p in {O..P} with |T_p| >= c_p (c at the protected order is 0).

    ``T`` is the length-(P+1) vector of sequential statistics, ``critical``
    the positive thresholds for orders O+1..P.
    """
    T = np.asarray(T, dtype=float)
    P = T.size - 1
    critical = np.atleast_1d(np.asarray(critical, dtype=float))
    if critical.size != P - O:
        raise ValidationError(
            f"need {P - O} critical values for P={P}, O={O}; got {critical.size}")
    for p in range(P, O, -1):
        if abs(T[p]) >= critical[p - O - 1]:
            return p
    return O


def select_g2s(problem: RegressionProblem, Y: np.ndarray, rule: GeneralToSpecific) -> int:
    """General-to-specific selected order for the observed response."""
    rule.validate_for(problem.P, problem.O)
    T = t_statistics(problem, Y)
    return g2s_order(T, problem.O, rule.critical)


def masked_ls(problem: RegressionProblem, Y: np.ndarray, mask: SubsetMask) -> np.ndarray:
    """Least squares restricted to the coordinates picked out by the mask."""
    Y = np.asarray(Y, dtype=float)
    out = np.zeros(problem.P)
    idx = list(mask.indices)
    if not idx:
        return out
    sub = problem.X[:, idx]
    coef, *_ = np.linalg.lstsq(sub, Y, rcond=None)
    out[idx] = coef
    return out


def _rss(problem: RegressionProblem, Y: np.ndarray, mask: SubsetMask) -> float:
    """Residual sum of squares of Y off the mask's columns.  A prefix mask
    reads the problem's kept nested QR factor; any other mask factors
    X[:, mask] per call, and nothing per mask is kept."""
    if not mask.cardinality:
        return float(Y @ Y)
    return residual_ss(problem._subset_qr(mask.indices)[0], Y)


def ic_values(problem: RegressionProblem, Y: np.ndarray, rule: InformationCriterion) -> dict:
    """IC(r) = log RSS(r) + |r| upsilon_n / n for every mask in the family."""
    rule.validate_for(problem.P, problem.O)
    Y = np.asarray(Y, dtype=float)
    out = {}
    for mask in rule.family:
        rss = _rss(problem, Y, mask)
        if rss == 0.0:
            raise DegenerateSampleError(f"RSS is zero for mask {mask}")
        out[mask] = float(np.log(rss) + mask.cardinality * rule.upsilon_n / problem.n)
    return out


def select_ic(problem: RegressionProblem, Y: np.ndarray, rule: InformationCriterion) -> SubsetMask:
    """IC minimizer; ties go to the smallest cardinality, then lexicographic."""
    values = ic_values(problem, Y, rule)
    return min(values, key=lambda m: (values[m],) + m.sort_key())


def full_model_t_ratios(problem: RegressionProblem, Y: np.ndarray) -> np.ndarray:
    """Per-coordinate t-ratios of the unrestricted fit (full-model sigma_hat)."""
    s = sigma_hat(problem, Y)
    if s == 0.0:
        raise DegenerateSampleError("sigma_hat is zero")
    coef = restricted_ls(problem, Y, problem.P)
    return np.sqrt(problem.n) * coef / (s * np.sqrt(problem.gram_inv_diag))


def select_threshold(problem: RegressionProblem, Y: np.ndarray, rule: Thresholding) -> SubsetMask:
    """Mask of coordinates whose full-model |t-ratio| clears the cutoff."""
    rule.validate_for(problem.P, problem.O)
    t = full_model_t_ratios(problem, Y)
    bits = tuple(int(abs(ti) >= ci) for ti, ci in zip(t, rule.cutoff))
    return SubsetMask(bits=bits)


def ic_threshold(n: int, P: int, upsilon_n: float) -> float:
    """|t|-threshold equivalent to the IC decision on {full, drop-one}.

    Comparing IC(r_full) with IC(r_*) for a nested drop-one pair reduces,
    through RSS(r_*) = RSS(r_full) (1 + T^2/(n-P)), to |T| > c_n with
    c_n = sqrt((n - P) (exp(upsilon_n / n) - 1)); c_n -> sqrt(upsilon) as
    n grows.
    """
    return float(np.sqrt((n - P) * np.expm1(upsilon_n / n)))


def auxiliary_consistent(problem: RegressionProblem, Y: np.ndarray,
                         scheme: str = "sqrt_log_n") -> int:
    """Consistent order estimate via diverging critical values.

    All P coordinates are tested (no protected floor) with a common critical
    value: sqrt(log n) by default, or the drop-one IC threshold with
    upsilon_n = log n under ``scheme="bic"``.  Both diverge and are
    o(sqrt(n)), which is what consistency needs.
    """
    c = auxiliary_critical_value(problem.n, problem.P, scheme)
    T = t_statistics(problem, Y)
    return g2s_order(T, 0, np.full(problem.P, c))


def auxiliary_critical_value(n: int, P: int, scheme: str = "sqrt_log_n") -> float:
    """Common critical value of the auxiliary scan under ``scheme``."""
    if scheme == "sqrt_log_n":
        return float(np.sqrt(np.log(n)))
    if scheme == "bic":
        return ic_threshold(n, P, float(np.log(n)))
    raise ValidationError(f"unknown auxiliary scheme {scheme!r}")


def post_select_fit(problem: RegressionProblem, Y: np.ndarray, rule: SelectionRule) -> PostSelectionFit:
    """Select a model with the given rule and refit it by least squares."""
    if not isinstance(rule, SelectionRule):
        raise ValidationError(f"unsupported rule type {type(rule).__name__}")
    rule.validate_for(problem.P, problem.O)
    s = sigma_hat(problem, Y)
    if s == 0.0:
        raise DegenerateSampleError("sigma_hat is zero")
    T = t_statistics(problem, Y)
    if isinstance(rule, GeneralToSpecific):
        p_hat = select_g2s(problem, Y, rule)
        return PostSelectionFit(selected=p_hat,
                                estimate=restricted_ls(problem, Y, p_hat),
                                sigma_hat=s, t_stats=T)
    if isinstance(rule, InformationCriterion):
        values = ic_values(problem, Y, rule)
        r_hat = min(values, key=lambda m: (values[m],) + m.sort_key())
        return PostSelectionFit(selected=r_hat,
                                estimate=masked_ls(problem, Y, r_hat),
                                sigma_hat=s, t_stats=T, ic_values=values)
    r_hat = select_threshold(problem, Y, rule)
    return PostSelectionFit(selected=r_hat, estimate=masked_ls(problem, Y, r_hat),
                            sigma_hat=s, t_stats=T)


def rule_to_json(rule: SelectionRule) -> dict:
    """JSON-serializable description of a selection rule."""
    if isinstance(rule, GeneralToSpecific):
        return {"type": "g2s", "critical": list(rule.critical)}
    if isinstance(rule, InformationCriterion):
        return {"type": "ic", "upsilon_n": rule.upsilon_n,
                "family": [str(m) for m in rule.family]}
    if isinstance(rule, Thresholding):
        return {"type": "threshold",
                "cutoff": ["inf" if c == np.inf else c for c in rule.cutoff]}
    raise ValidationError(f"unsupported rule type {type(rule).__name__}")


def rule_from_json(obj: dict) -> SelectionRule:
    """Inverse of rule_to_json; raises ValidationError on malformed input."""
    try:
        kind = obj["type"]
    except (TypeError, KeyError):
        raise ValidationError("rule JSON must be an object with a 'type' key")
    if kind == "g2s":
        return GeneralToSpecific(critical=tuple(obj["critical"]))
    if kind == "ic":
        family = tuple(
            SubsetMask(bits=tuple(int(ch) for ch in s)) for s in obj["family"]
        )
        return InformationCriterion(upsilon_n=obj["upsilon_n"], family=family)
    if kind == "threshold":
        cutoff = tuple(np.inf if c == "inf" else float(c) for c in obj["cutoff"])
        return Thresholding(cutoff=cutoff)
    raise ValidationError(f"unknown rule type {kind!r}")
