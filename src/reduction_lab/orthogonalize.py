"""Constructive similarities carrying reduction algebras onto self-adjoint algebras.

Dixmier averaging over the finite group generated by commuting idempotents,
single-projection renorming, matrix-unit orthogonalisation, and the
Wedderburn similarity.  The amenable-group averaging specialises to the
finite symmetric-difference group, where the invariant mean is the exact
uniform average; it is taken in closed form, as a sum over the atoms of the
family.

The Wedderburn similarity takes the algebra's structure from its reduction
certificate and is one solve (see ``wedderburn_similarity``).  Renorming the
unit and Dixmier-averaging the central idempotents, the paper's route to it,
would change it by a unitary factor only, so they stay public as reference
constructions off that path, with matrix-unit orthogonalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraBasis, _generating_stack
from .errors import (
    FamilyTooLargeError,
    NumericalDegeneracyError,
    StructurePreconditionError,
)
from .linalg import (
    _opnorms,
    as_matrix,
    identity,
    is_idempotent,
    matrix_sqrt_positive,
    operator_norm,
    rank_and_range,
)
from .modules import (
    ReductionCertificate,
    Representation,
    has_reduction_property,
)
from .tolerance import DEFAULT_TOL, Tolerance

__all__ = [
    "SimilarityReport",
    "WedderburnProfile",
    "SimilarityBoundReport",
    "symmetric_difference_closure",
    "dixmier_orthogonalize",
    "renorm_from_projection",
    "orthogonalize_matrix_units",
    "wedderburn_similarity",
    "similarity_bound_report",
]

@dataclass(frozen=True)
class SimilarityReport:
    """An invertible matrix, its inverse, and the condition value ||S|| ||S^-1||,
    read as sigma_1 / sigma_n from one singular-value call."""

    S: np.ndarray = field(repr=False)
    S_inv: np.ndarray = field(repr=False)
    condition: float

    @staticmethod
    def from_matrix(S: np.ndarray) -> "SimilarityReport":
        S = as_matrix(S)
        sig = np.linalg.svd(S, compute_uv=False)
        return SimilarityReport(S=S, S_inv=np.linalg.inv(S), condition=float(sig[0] / sig[-1]))

    def conjugate(self, M: np.ndarray) -> np.ndarray:
        return self.S @ M @ self.S_inv


@dataclass(frozen=True)
class WedderburnProfile:
    """Block data (irreducible dimension, multiplicity) plus the similarity used."""

    blocks: tuple
    degenerate_dim: int
    similarity: SimilarityReport

    @property
    def ambient(self) -> int:
        return self.similarity.S.shape[0]


def symmetric_difference_closure(
    P, tol: Tolerance = DEFAULT_TOL, cap: int = 4096
) -> list[np.ndarray]:
    """Close a commuting idempotent family under p + q - 2pq.

    The closure always contains 0 (from p with itself), so the associated
    family {1 - 2p} is a finite abelian group of involutions.
    """
    family: list[np.ndarray] = []
    scales: list[float] = []

    def add(p: np.ndarray) -> bool:
        # Frobenius distance dominates the operator distance, so this dedupe
        # never merges operators that differ at the comparison tolerance
        scale = max(1.0, float(np.linalg.norm(p)))
        for q, sq in zip(family, scales):
            if np.linalg.norm(p - q) <= tol.eq_eps * max(scale, sq):
                return False
        family.append(p)
        scales.append(scale)
        return True

    for p in P:
        add(as_matrix(p))
    changed = True
    while changed:
        changed = False
        snapshot = list(family)
        for p in snapshot:
            for q in snapshot:
                if add(p + q - 2 * (p @ q)):
                    changed = True
                if len(family) > cap:
                    raise FamilyTooLargeError(
                        f"symmetric-difference closure exceeded {cap} elements"
                    )
    return family


def dixmier_orthogonalize(P, tol: Tolerance = DEFAULT_TOL) -> SimilarityReport:
    """Similarity making a commuting idempotent family simultaneously Hermitian.

    Averages g* g over the finite abelian group {1 - 2p} obtained from the
    symmetric-difference closure of the family and takes the positive square
    root.  The mean is exactly the sum of a* a over the at most n atoms
    (nonzero products of p_i or 1 - p_i, one factor per member): they sum to 1,
    each g is +1 or -1 on each, and the cross terms average to zero.  The
    condition is guaranteed within (1 + 2 max ||p||)^2 and is usually far
    smaller; for a single idempotent it equals ||1 - 2p||.

    The idempotency test (as ``is_idempotent``), the pairwise commutation test
    and each member's atom cut are one stacked operator-norm call each.
    """
    mats = [as_matrix(p) for p in P]
    if not mats:
        raise StructurePreconditionError("need at least one idempotent")
    n = mats[0].shape[0]
    # members before the first of another shape are tested for idempotency
    # first, so a family with both faults is reported as a member-by-member
    # pass would report it
    fit = next((k for k, p in enumerate(mats) if p.shape != (n, n)), len(mats))
    P = np.array(mats[:fit]).reshape(fit, n, n)
    size, defect = np.split(_opnorms(np.concatenate([P, P @ P - P])), 2)
    if np.any(defect > tol.eq_eps * np.maximum(1.0, size) ** 2):
        raise StructurePreconditionError("input is not idempotent at the tolerance")
    if fit < len(mats):
        raise StructurePreconditionError("idempotents must share one ambient space")
    i, j = np.triu_indices(len(P), 1)
    if len(i) and np.any(
        _opnorms(P[i] @ P[j] - P[j] @ P[i]) > tol.eq_eps * np.maximum(1.0, size[i] * size[j])
    ):
        raise StructurePreconditionError("idempotents do not commute")

    atoms = identity(n)[None]
    for p in P:
        # a nonzero idempotent has norm at least 1, so the cut needs no tolerance
        ap = atoms @ p
        atoms = np.stack([ap, atoms - ap], axis=1).reshape(-1, n, n)
        atoms = atoms[_opnorms(atoms) >= 0.5]
    M = (atoms.conj().swapaxes(-1, -2) @ atoms).sum(axis=0)
    S = matrix_sqrt_positive(M, tol)
    return SimilarityReport.from_matrix(S)


def renorm_from_projection(p, tol: Tolerance = DEFAULT_TOL) -> SimilarityReport:
    """Similarity making a single idempotent an orthogonal projection.

    Uses the square root of p* p + (1-p)* (1-p); the new norm satisfies
    ||S xi||^2 = ||p xi||^2 + ||(1-p) xi||^2, so the conjugated idempotent is
    Hermitian of norm one.
    """
    p = as_matrix(p)
    if not is_idempotent(p, tol):
        raise StructurePreconditionError("input is not idempotent at the tolerance")
    q = identity(p.shape[0]) - p
    M = p.conj().T @ p + q.conj().T @ q
    return SimilarityReport.from_matrix(matrix_sqrt_positive(M, tol))


def _matrix_unit_images(theta: Representation, tol: Tolerance) -> list[list[np.ndarray]]:
    k = theta.source.ambient
    units = []
    for s in range(k):
        row = []
        for t in range(k):
            E = np.zeros((k, k), dtype=complex)
            E[s, t] = 1.0
            row.append(theta.apply(E))
        units.append(row)
    return units


def orthogonalize_matrix_units(
    theta: Representation, tol: Tolerance = DEFAULT_TOL
) -> SimilarityReport:
    """Similarity carrying a unital representation of M_k onto a *-representation.

    The new inner product sums (theta(e_1i) xi | theta(e_1i) zeta) over i, so
    after conjugation the diagonal units become Hermitian projections and the
    off-diagonal units partial isometries; the module is then unitarily
    identified with C^k tensor C^(m/k).  This is the paper's reference
    construction; ``wedderburn_similarity`` reaches the same layout through a
    Kronecker fit to the Gram matrix of the irreducible pieces.
    """
    k = theta.source.ambient
    m = theta.target_dim
    if theta.source.dim != k * k:
        raise StructurePreconditionError("representation source must be the full matrix algebra")
    I_m = identity(m)
    if operator_norm(theta.apply(identity(k)) - I_m) > tol.eq_eps * max(1.0, float(m)):
        raise StructurePreconditionError("representation is not unital")
    u = _matrix_unit_images(theta, tol)
    scale = max(1.0, max(operator_norm(u[s][t]) for s in range(k) for t in range(k)) ** 2)
    for s in range(k):
        for t in range(k):
            for w in range(k):
                for x in range(k):
                    prod = u[s][t] @ u[w][x]
                    expect = u[s][x] if t == w else np.zeros((m, m), dtype=complex)
                    if operator_norm(prod - expect) > tol.eq_eps * scale:
                        raise StructurePreconditionError(
                            "images are not multiplicative on matrix units"
                        )
    rank_p, _ = rank_and_range(u[0][0], tol)
    if rank_p * k != m:
        raise StructurePreconditionError(
            f"target dimension {m} is not {k} times the unit rank {rank_p}"
        )
    M = np.zeros((m, m), dtype=complex)
    for i in range(k):
        M += u[0][i].conj().T @ u[0][i]
    S = matrix_sqrt_positive(M, tol)
    return SimilarityReport.from_matrix(S)


def _self_adjointness_defect(conj: np.ndarray, blocks: tuple) -> float:
    """The largest relative Frobenius distance of a matrix c of the (g, n, n) stack
    ``conj`` from the block algebra (+) M_k kron I_mult (+) 0 of ``blocks``, the
    coordinates after them annihilated: ||R||_F / ||c||_F, where R is c less
    y kron I_mult on each block M of c, for y = tr_mult(M) / mult.  Relative to
    each c's own norm, it does not depend on the scale of the algebra.  A
    block with mult = 1 is its own y, so its part of R is zero, with no kron."""
    R, at = conj.copy(), 0
    for k, m in blocks:
        M = R[:, at : at + k * m, at : at + k * m]
        if m == 1:
            M[...] = 0
        else:
            M -= np.kron(np.einsum("gajbj->gab", M.reshape(-1, k, m, k, m)) / m, np.eye(m))
        at += k * m
    resid, size = (np.linalg.norm(X, axis=(-2, -1)) for X in (R, conj))
    resid = np.divide(resid, size, out=np.zeros_like(resid), where=size > 0)
    return float(np.max(resid, initial=0.0))


def wedderburn_similarity(
    A: AlgebraBasis, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> WedderburnProfile:
    """Similarity carrying a reduction algebra onto a self-adjoint block algebra.

    It is S = Z~^-1 for the reduction certificate's balanced piece basis
    Z~ = Z R^-1 (``_piece_basis``).  In Z = [Y_1 ... Y_r K], Y_i lays the
    pieces of isotypic block i side by side, each composed with the
    certificate's intertwiner from the first piece of its class, so that
    b Y_i = Y_i (x kron I_mult), and K is an orthonormal frame of the kernel
    of the internal unit e; R = diag(G_1^1/2 kron H_1^1/2, ..., I_d) for the
    Kronecker fits G_i kron H_i of Y_i* Y_i.  The blocks land on leading
    coordinates, (dimension, multiplicity) descending, the annihilated summand
    last.  Renorming e first (``renorm_from_projection``) and
    Dixmier-averaging the central idempotents (``dixmier_orthogonalize``)
    would give S times a unitary: the renorm is isometric on range e and on
    ker e, and the Dixmier metric D has D* D = sum p_j* p_j with
    p_j Y_i = delta_ij Y_i, so neither changes any Y_i* Y_i.
    """
    return _wedderburn_similarity(A, has_reduction_property(A, seed, tol)[1])


def _wedderburn_similarity(A: AlgebraBasis, cert: ReductionCertificate) -> WedderburnProfile:
    """``wedderburn_similarity`` from the algebra's reduction certificate: its
    S is the certificate's Z~^-1 (it draws no random numbers, solves for no
    intertwiner and fits no block).

    As a yes certificate has sum k^2 = dim A, S A S^-1 is the block algebra
    (+) M_k kron I_mult (+) 0_d, and so *-closed, once each generator b has
    S b S^-1 in it.  That is the final check, to 1e-7 relative
    (``_self_adjointness_defect``); a miss is a breakdown in stage
    'final-check'."""
    if not cert.verdict:
        raise StructurePreconditionError("algebra does not have the reduction property")
    similarity = SimilarityReport.from_matrix(cert.basis_inv)
    defect = _self_adjointness_defect(similarity.conjugate(_generating_stack(A)), cert.blocks)
    if not defect <= 1e-7:
        raise NumericalDegeneracyError(
            f"stage 'final-check': conjugated span is not *-closed (defect {defect:.2e})"
        )
    return WedderburnProfile(
        blocks=cert.blocks, degenerate_dim=cert.degenerate_dim, similarity=similarity
    )


@dataclass(frozen=True)
class SimilarityBoundReport:
    """Comparison of an achieved similarity condition with the 128 K^2 bound."""

    condition: float
    constant_lower_bound: float
    bound: float
    within_bound: bool


def similarity_bound_report(profile: WedderburnProfile, K: float) -> SimilarityBoundReport:
    """Compare the pipeline's condition with 128 K^2 for a projection-constant bound K.

    Informational: asserts the condition is finite and records whether the
    uniform bound holds for this instance.
    """
    cond = profile.similarity.condition
    if not np.isfinite(cond):
        raise NumericalDegeneracyError("similarity condition is not finite")
    bound = 128.0 * float(K) ** 2
    return SimilarityBoundReport(
        condition=cond,
        constant_lower_bound=float(K),
        bound=bound,
        within_bound=bool(cond <= bound),
    )
