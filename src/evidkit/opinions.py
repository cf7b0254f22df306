"""Subjective-logic algebra for binary evidence heads.

A binary head collects non-negative evidence (e_pos, e_neg) for the
positive (defective) and negative (non-defective) outcomes. Evidence maps
to a Beta distribution over the positive-class probability via

    alpha_i = e_i + a_i * W,

where (a_pos, a_neg) are prior base rates and W is the prior weight (the
amount of pseudo-evidence the prior is worth; 2 for a binary head). The
same evidence also maps to a subjective-logic opinion (b_pos, b_neg, u)
with b_i = e_i / S and u = W / S, S = alpha_pos + alpha_neg, so that
u + b_pos + b_neg = 1: zero evidence means total vacuity (u = 1) and the
projected probability falls back to the base rate.

This is the scalar contract, one head at a time: the pipeline runs the
batch kernels in ``losses`` and ``evaluation``, and the tests check those
kernels against these functions as an independent oracle. All functions
are pure and operate on immutable values; they are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_PRIOR_WEIGHT = 2.0

_SUM_TOL = 1e-12


def _check_prior_weight(prior_weight: float) -> None:
    if not math.isfinite(prior_weight) or prior_weight <= 0.0:
        raise ValueError(f"prior_weight must be positive and finite, got {prior_weight!r}")


@dataclass(frozen=True)
class BaseRatePair:
    """Prior probabilities (a_pos, a_neg) of a binary head; must sum to 1."""

    a_pos: float
    a_neg: float

    def __post_init__(self):
        for name, value in (("a_pos", self.a_pos), ("a_neg", self.a_neg)):
            if not math.isfinite(value) or value < 0.0 or value > 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if abs(self.a_pos + self.a_neg - 1.0) > _SUM_TOL:
            raise ValueError(
                f"base rates must sum to 1, got {self.a_pos!r} + {self.a_neg!r}"
            )


@dataclass(frozen=True)
class EvidencePair:
    """Non-negative evidence for the positive and negative outcome.

    Negative or non-finite values are rejected.
    """

    e_pos: float
    e_neg: float

    def __post_init__(self):
        for name, value in (("e_pos", self.e_pos), ("e_neg", self.e_neg)):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class DirichletPair:
    """Beta parameters (alpha_pos, alpha_neg) of one binary head.

    Both must be finite, and so must their sum, the strength S: parameters
    whose S overflows float64 are rejected, as ``predict_batch`` rejects
    such evidence.
    """

    alpha_pos: float
    alpha_neg: float

    def __post_init__(self):
        for name, value in (("alpha_pos", self.alpha_pos), ("alpha_neg", self.alpha_neg)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(self.strength):
            raise ValueError(f"total strength {self.alpha_pos!r} + {self.alpha_neg!r} "
                             "overflows float64")
        if self.strength <= 0.0:
            raise ValueError(
                f"total strength must be positive, got {self.alpha_pos!r} + {self.alpha_neg!r}"
            )

    @property
    def strength(self) -> float:
        """Total strength S = alpha_pos + alpha_neg."""
        return self.alpha_pos + self.alpha_neg


@dataclass(frozen=True)
class Opinion:
    """Subjective-logic triplet (b_pos, b_neg, u) plus base rates.

    Invariant: u + b_pos + b_neg = 1 with every component in [0, 1].
    """

    b_pos: float
    b_neg: float
    u: float
    base: BaseRatePair

    def __post_init__(self):
        for name, value in (("b_pos", self.b_pos), ("b_neg", self.b_neg), ("u", self.u)):
            if not math.isfinite(value) or value < 0.0 or value > 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        total = self.b_pos + self.b_neg + self.u
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"belief masses and uncertainty must sum to 1, got {total!r}")


def dirichlet_from_evidence(
    e: EvidencePair,
    a: BaseRatePair,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
) -> DirichletPair:
    """Map evidence to Beta parameters: alpha_i = e_i + a_i * prior_weight."""
    _check_prior_weight(prior_weight)
    return DirichletPair(
        alpha_pos=e.e_pos + a.a_pos * prior_weight,
        alpha_neg=e.e_neg + a.a_neg * prior_weight,
    )


def opinion_from_evidence(
    e: EvidencePair,
    a: BaseRatePair,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
) -> Opinion:
    """Map evidence to an opinion: b_i = e_i / S, u = prior_weight / S."""
    _check_prior_weight(prior_weight)
    s = dirichlet_from_evidence(e, a, prior_weight).strength
    # a_pos*W + a_neg*W can round one ulp below W, pushing W/s past 1
    return Opinion(
        b_pos=e.e_pos / s,
        b_neg=e.e_neg / s,
        u=min(prior_weight / s, 1.0),
        base=a,
    )


def probability_from_opinion(o: Opinion) -> tuple[float, float]:
    """Project an opinion to probabilities: p_i = b_i + a_i * u."""
    return (
        o.b_pos + o.base.a_pos * o.u,
        o.b_neg + o.base.a_neg * o.u,
    )


def expected_probability(d: DirichletPair) -> tuple[float, float]:
    """Expected probabilities under the Beta distribution: p_i = alpha_i / S.

    Agrees with the opinion projection when the parameters come from the
    same evidence and base rates.
    """
    s = d.strength
    return (d.alpha_pos / s, d.alpha_neg / s)

