"""Pairwise comparison matrix, principal value, and the consistency gate.

The comparison matrix is derived from per-criterion statistics by a
named rule, its dominant eigenvalue is estimated by power iteration,
and the classic consistency index / consistency ratio pair decides whether
the matrix is usable (CR <= 0.1).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    NoConvergence,
    OrderTooSmall,
    TooFewCriteria,
    UnknownDerivationRule,
    UnsupportedOrder,
    ZeroRandomIndex,
)
from .record import Record, frozen
from .tfn import MIRROR, FuzzyComparisonMatrix

CR_LIMIT = 0.1

# Saaty random index values for orders 1..10
SAATY_RANDOM_INDEX = (0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49)

# "paper_compat" reproduces the paper's IR = 180 with lambda_max pinned to 1
MODES = ("standard", "paper_compat")

PAPER_COMPAT_RANDOM_INDEX = 180.0

POWER_ITERATION_TOL = 1e-12
POWER_ITERATION_CAP = 10_000

RECIPROCITY_TOL = 1e-12

# snap tolerance when the random index is 0 (orders 1 and 2 are always
# consistent, so a consistency index inside float noise counts as zero)
_CI_ZERO_TOL = 1e-9


class ComparisonMatrix(Record):
    """n x n reciprocal matrix of Saaty intensities and their reciprocals,
    given as floats.

    build_comparison gives its matrix as scale codes instead, a
    fahp.tfn.FuzzyComparisonMatrix, whose crisp entries pass these checks
    by construction; check and lambda_max read either through entries
    and n.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("comparison entries must be finite")
        if not np.all(np.diag(arr) == 1.0):
            raise ValueError("diagonal entries must be exactly 1")
        if np.max(np.abs(arr * arr.T - 1.0)) > RECIPROCITY_TOL:
            raise ValueError("matrix violates reciprocity a_ij * a_ji = 1")
        low, high = 1.0 / 9.0 - 1e-12, 9.0 + 1e-12
        if np.any(arr < low) or np.any(arr > high):
            raise ValueError("entries must lie within [1/9, 9]")
        object.__setattr__(self, "entries", frozen(arr))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _mean_gap_rule(means: np.ndarray) -> np.ndarray:
    """Bin pairwise mean gaps linearly onto the 1..9 intensity ladder.

    For means mu_i >= mu_j the intensity is
    clamp(1 + floor(8 * (mu_i - mu_j) / (mu_max - mu_min) + 0.5), 1, 9)
    (rounding half up) and a_ji is its reciprocal, so tied means and the
    diagonal get 1. Equal extremes give an all-ones matrix. Returns the
    scale codes of the entries.
    """
    n = means.size
    span = float(means.max()) - float(means.min())
    if span == 0.0:
        return np.zeros((n, n), dtype=np.uint8)
    if span == math.inf:
        # the extreme gaps would be inf / inf, which no intensity stands for
        raise ValueError("comparison entries must be finite")
    # floor(8 * gap / span + 0.5) is intensity - 1 where mu_i >= mu_j and
    # never above 0 where mu_i < mu_j, so the clip sets 0 there
    steps = np.floor((means[:, None] - means[None, :]) * 8.0 / span + 0.5)
    direct = np.clip(steps, 0.0, 8.0).astype(np.uint8)
    # at most one side of a pair is above 0, and the other side holds its
    # mirror: code k + 7, 1 / k, across from code k - 1 >= 1
    return direct + MIRROR.take(direct.T)


def _uniform_rule(means: np.ndarray) -> np.ndarray:
    """Treat every pair of criteria as equally important."""
    return np.zeros((means.size, means.size), dtype=np.uint8)


# rule name -> function from the means vector to the n x n scale codes
DERIVATION_RULES = {
    "mean_gap": _mean_gap_rule,
    "uniform": _uniform_rule,
}


def build_comparison(
    means: Sequence[float], rule: str = "mean_gap"
) -> FuzzyComparisonMatrix:
    """Derive the criteria comparison matrix from per-criterion means, as
    scale codes; codes that are not n x n for n means are refused."""
    mu = np.asarray(means, dtype=float)
    if mu.ndim != 1:
        raise ValueError(f"means must be a vector, got shape {mu.shape}")
    if mu.size < 2:
        raise TooFewCriteria(int(mu.size))
    if not np.all(np.isfinite(mu)):
        raise ValueError("means must be finite")
    try:
        fn = DERIVATION_RULES[rule]
    except KeyError:
        raise UnknownDerivationRule(rule, sorted(DERIVATION_RULES)) from None
    codes = fn(mu)
    if np.shape(codes) != (mu.size, mu.size):
        raise ValueError(
            f"rule {rule!r} gave codes of shape {np.shape(codes)} for {mu.size} means"
        )
    return FuzzyComparisonMatrix(codes=codes)


def lambda_max(c: ComparisonMatrix | FuzzyComparisonMatrix) -> float:
    """Dominant eigenvalue by power iteration.

    Positive matrices have a simple dominant eigenvalue, so iteration from
    the all-ones vector converges; successive Rayleigh quotients closer
    than POWER_ITERATION_TOL stop it. A perfectly consistent matrix
    returns n within 1e-9.

    No step calls BLAS, whose kernel is chosen per CPU: a product is an
    elementwise multiply and numpy's pairwise row sum, and the scalar
    products are math.fsum sums, so the bits are the same on every host.
    """
    a = c.entries
    v = np.ones(c.n)
    previous = None
    for _ in range(POWER_ITERATION_CAP):
        w = np.add.reduce(a * v, axis=1)
        quotient = math.fsum((v * w).tolist()) / math.fsum((v * v).tolist())
        if previous is not None and abs(quotient - previous) < POWER_ITERATION_TOL:
            return quotient
        previous = quotient
        v = w / math.sqrt(math.fsum((w * w).tolist()))
    raise NoConvergence(POWER_ITERATION_CAP)


def consistency_index(t: float, n: int) -> float:
    """CI = (t - n) / (n - 1)."""
    if n < 2:
        raise OrderTooSmall(n)
    return (t - n) / (n - 1)


def random_index(n: int, mode: str = "standard") -> float:
    """Expected consistency index of random reciprocal matrices of order n."""
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "paper_compat":
        return PAPER_COMPAT_RANDOM_INDEX
    if n > len(SAATY_RANDOM_INDEX):
        raise UnsupportedOrder(n, len(SAATY_RANDOM_INDEX))
    return float(SAATY_RANDOM_INDEX[n - 1])


def consistency_ratio(ci: float, ir: float) -> float:
    """CR = CI / IR; a zero index with zero ratio means trivially consistent.

    Orders 1 and 2 carry IR = 0 and are always consistent in exact
    arithmetic, so |CI| <= 1e-9 counts as zero there; a genuinely nonzero
    CI against IR = 0 is a misuse and raises.
    """
    if ir == 0.0:
        if abs(ci) <= _CI_ZERO_TOL:
            return 0.0
        raise ZeroRandomIndex(ci)
    return ci / ir


class ConsistencyReport(Record):
    """Everything the gate decision rests on, in one immutable record."""

    lambda_max: float
    n: int
    ci: float
    ir: float
    cr: float
    accepted: bool
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in self._fields}
        doc["warnings"] = list(self.warnings)
        return doc


def check(
    c: ComparisonMatrix | FuzzyComparisonMatrix, ir_mode: str = "standard"
) -> ConsistencyReport:
    """Compose lambda_max -> CI -> IR -> CR and apply the 0.1 gate.

    ir_mode is one of MODES. "paper_compat" reproduces the paper: the
    principal value is pinned to 1.0 instead of the power-iteration
    estimate, IR is 180, and the report carries a warning that lambda_max
    was forced. Negative ratios are accepted (with a warning) since the
    gate is an upper bound only.
    """
    # an unknown mode or an order past the table refuses before iterating
    ir = random_index(c.n, mode=ir_mode)
    warnings: list[str] = []
    if ir_mode == "paper_compat":
        t = 1.0
        warnings.append("lambda_max was forced by configuration, not computed")
    else:
        t = lambda_max(c)
    ci = consistency_index(t, c.n)
    cr = consistency_ratio(ci, ir)
    if cr < 0.0:
        warnings.append(
            "negative consistency ratio: outside the classical [0, inf) range"
        )
    return ConsistencyReport(
        lambda_max=t,
        n=c.n,
        ci=ci,
        ir=ir,
        cr=cr,
        accepted=cr <= CR_LIMIT,
        warnings=tuple(warnings),
    )
