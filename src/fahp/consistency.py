"""Pairwise comparison matrix, principal value, and the consistency gate.

The comparison matrix is derived from per-criterion statistics by a
pluggable rule, its dominant eigenvalue is estimated by power iteration,
and the classic consistency index / consistency ratio pair decides whether
the matrix is usable (CR <= 0.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NoConvergence,
    OrderTooSmall,
    TooFewCriteria,
    UnknownDerivationRule,
    UnsupportedOrder,
    ZeroRandomIndex,
)

CR_LIMIT = 0.1

# Saaty random index values for orders 1..10
SAATY_RANDOM_INDEX = (0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49)

PAPER_COMPAT_RANDOM_INDEX = 180.0

POWER_ITERATION_TOL = 1e-12
POWER_ITERATION_CAP = 10_000

RECIPROCITY_TOL = 1e-12

# snap tolerance when the random index is 0 (orders 1 and 2 are always
# consistent, so a consistency index inside float noise counts as zero)
_CI_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class ComparisonMatrix:
    """n x n reciprocal matrix of Saaty intensities and their reciprocals."""

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
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _mean_gap_rule(means: Sequence[float]) -> np.ndarray:
    """Bin pairwise mean gaps linearly onto the 1..9 intensity ladder.

    For means mu_i >= mu_j the intensity is
    clamp(1 + floor(8 * (mu_i - mu_j) / (mu_max - mu_min) + 0.5), 1, 9)
    (rounding half up) and a_ji is its reciprocal, so tied means and the
    diagonal get 1. Equal extremes give an all-ones matrix.
    """
    mu = np.asarray(means, dtype=float)
    span = float(mu.max() - mu.min())
    if span == 0.0:
        return np.ones((mu.size, mu.size), dtype=float)
    gap = mu[:, None] - mu[None, :]
    intensity = np.clip(np.floor(8.0 * gap / span + 0.5) + 1.0, 1.0, 9.0)
    return np.where(gap >= 0.0, intensity, 1.0 / intensity.T)


def _uniform_rule(means: Sequence[float]) -> np.ndarray:
    """Treat every pair of criteria as equally important."""
    n = len(means)
    return np.ones((n, n), dtype=float)


DerivationRule = Callable[[Sequence[float]], np.ndarray]

DERIVATION_RULES: dict[str, DerivationRule] = {
    "mean_gap": _mean_gap_rule,
    "uniform": _uniform_rule,
}


def register_derivation_rule(name: str, rule: DerivationRule) -> None:
    """Expose a custom comparison-derivation rule under a CLI-visible name."""
    DERIVATION_RULES[name] = rule


def build_comparison(means: Sequence[float], rule: str | DerivationRule = "mean_gap") -> ComparisonMatrix:
    """Derive the criteria comparison matrix from per-criterion means."""
    mu = np.asarray(means, dtype=float)
    if mu.ndim != 1:
        raise ValueError(f"means must be a vector, got shape {mu.shape}")
    if mu.size < 2:
        raise TooFewCriteria(int(mu.size))
    if not np.all(np.isfinite(mu)):
        raise ValueError("means must be finite")
    if isinstance(rule, str):
        try:
            fn = DERIVATION_RULES[rule]
        except KeyError:
            raise UnknownDerivationRule(rule, sorted(DERIVATION_RULES)) from None
    else:
        fn = rule
    return ComparisonMatrix(entries=fn(mu))


def lambda_max(
    c: ComparisonMatrix,
    tol: float = POWER_ITERATION_TOL,
    max_iterations: int = POWER_ITERATION_CAP,
) -> float:
    """Dominant eigenvalue by power iteration.

    Positive matrices have a simple dominant eigenvalue, so iteration from
    the all-ones vector converges; successive Rayleigh quotients closer
    than tol stop it. A perfectly consistent matrix returns n within 1e-9.
    """
    a = c.entries
    v = np.ones(c.n, dtype=float)
    previous = None
    for _ in range(max_iterations):
        w = a @ v
        quotient = float(v @ w) / float(v @ v)
        if previous is not None and abs(quotient - previous) < tol:
            return quotient
        previous = quotient
        v = w / np.linalg.norm(w)
    raise NoConvergence(max_iterations)


def consistency_index(t: float, n: int) -> float:
    """CI = (t - n) / (n - 1)."""
    if n < 2:
        raise OrderTooSmall(n)
    return (t - n) / (n - 1)


def random_index(
    n: int,
    mode: str = "standard",
    table: Sequence[float] = SAATY_RANDOM_INDEX,
) -> float:
    """Expected consistency index of random reciprocal matrices of order n."""
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    if mode == "paper_compat":
        return PAPER_COMPAT_RANDOM_INDEX
    if mode != "standard":
        raise ValueError(f"mode must be 'standard' or 'paper_compat', got {mode!r}")
    if n > len(table):
        raise UnsupportedOrder(n, len(table))
    return float(table[n - 1])


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


@dataclass(frozen=True)
class ConsistencyReport:
    """Everything the gate decision rests on, in one immutable record."""

    lambda_max: float
    n: int
    ci: float
    ir: float
    cr: float
    accepted: bool
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "lambda_max": self.lambda_max,
            "n": self.n,
            "ci": self.ci,
            "ir": self.ir,
            "cr": self.cr,
            "accepted": self.accepted,
            "warnings": list(self.warnings),
        }


def check(
    c: ComparisonMatrix,
    ir_mode: str = "standard",
    force_lambda_max: float | None = None,
    ir_table: Sequence[float] = SAATY_RANDOM_INDEX,
) -> ConsistencyReport:
    """Compose lambda_max -> CI -> IR -> CR and apply the 0.1 gate.

    force_lambda_max substitutes a fixed principal value instead of the
    power-iteration estimate; the report carries a warning when used.
    Negative ratios are accepted (with a warning) since the gate is an
    upper bound only.
    """
    warnings: list[str] = []
    if force_lambda_max is not None:
        t = float(force_lambda_max)
        warnings.append("lambda_max was forced by configuration, not computed")
    else:
        t = lambda_max(c)
    ci = consistency_index(t, c.n)
    ir = random_index(c.n, mode=ir_mode, table=ir_table)
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
