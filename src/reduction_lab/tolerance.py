"""Global tolerance policy.

All rank decisions in the toolkit go through a relative singular-value
cutoff ``rank_eps``; all entrywise/operator-norm comparisons go through
``eq_eps``.  Every public operation accepts an optional ``tol`` so a whole
analysis can be run under a single consistent policy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance policy.

    rank_eps: singular values below ``rank_eps * sigma_max`` count as zero.
    eq_eps:   two operators are equal when their difference has norm below
              ``eq_eps`` times the natural scale of the comparison.
    """

    rank_eps: float = 1e-10
    eq_eps: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.rank_eps > 0 and 0 < self.eq_eps < float("inf")):
            raise ValueError("tolerances must be finite and strictly positive")
        if not self.rank_eps < 1:
            raise ValueError("rank_eps must be < 1")


DEFAULT_TOL = Tolerance()
