"""Constructive similarities carrying reduction algebras onto self-adjoint algebras.

Dixmier averaging over the finite group generated by commuting idempotents,
single-projection renorming, matrix-unit orthogonalisation, and the full
Wedderburn pipeline.  The amenable-group averaging specialises to the finite
symmetric-difference group, where the invariant mean is the exact uniform
average; it is taken in closed form, as a sum over the atoms of the family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraBasis, center_and_minimal_central_idempotents
from .errors import (
    FamilyTooLargeError,
    NumericalDegeneracyError,
    StructurePreconditionError,
)
from .linalg import (
    Subspace,
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
    irreducible_decomposition,
    restriction_to_invariant,
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
    """An invertible matrix, its inverse, and the condition value ||S|| ||S^-1||."""

    S: np.ndarray = field(repr=False)
    S_inv: np.ndarray = field(repr=False)
    condition: float

    @staticmethod
    def from_matrix(S: np.ndarray) -> "SimilarityReport":
        S = as_matrix(S)
        S_inv = np.linalg.inv(S)
        return SimilarityReport(
            S=S, S_inv=S_inv, condition=operator_norm(S) * operator_norm(S_inv)
        )

    @staticmethod
    def identity(n: int) -> "SimilarityReport":
        I = identity(n)
        return SimilarityReport(S=I, S_inv=I.copy(), condition=1.0)

    def conjugate(self, M: np.ndarray) -> np.ndarray:
        return self.S @ M @ self.S_inv


@dataclass(frozen=True)
class WedderburnProfile:
    """Block data (irreducible dimension, multiplicity) plus the similarity used."""

    blocks: tuple
    degenerate_dim: int
    similarity: SimilarityReport
    stage_conditions: tuple = ()

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
    """
    mats = [as_matrix(p) for p in P]
    if not mats:
        raise StructurePreconditionError("need at least one idempotent")
    n = mats[0].shape[0]
    for p in mats:
        if p.shape != (n, n):
            raise StructurePreconditionError("idempotents must share one ambient space")
        if not is_idempotent(p, tol):
            raise StructurePreconditionError("input is not idempotent at the tolerance")
    for i, p in enumerate(mats):
        for q in mats[i + 1 :]:
            scale = max(1.0, operator_norm(p) * operator_norm(q))
            if operator_norm(p @ q - q @ p) > tol.eq_eps * scale:
                raise StructurePreconditionError("idempotents do not commute")

    atoms = [identity(n)]
    for p in mats:
        # a nonzero idempotent has norm at least 1, so the cut needs no tolerance
        atoms = [b for a in atoms for b in (a @ p, a - a @ p) if operator_norm(b) >= 0.5]
    M = sum(a.conj().T @ a for a in atoms)
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
    identified with C^k tensor C^(m/k).
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


def _lift_similarity(S_small: np.ndarray, frame: np.ndarray, n: int) -> np.ndarray:
    """Extend a similarity on a subspace (given by an orthonormal frame) by the
    identity on the orthogonal complement."""
    V = Subspace.from_frame(frame)
    F_perp = V.perp().frame
    U = np.hstack([frame, F_perp])
    r = frame.shape[1]
    block = identity(n)
    block[:r, :r] = S_small
    return U @ block @ U.conj().T


def _self_adjointness_defect(basis: list, conj: list, tol: Tolerance) -> float:
    """max over basis of the relative distance from (a^S)* to the conjugated span."""
    if not conj:
        return 0.0
    n = conj[0].shape[0]
    A_conj = AlgebraBasis(ambient=n, basis=conj, unital=False)
    F = A_conj.frame(tol)
    worst = 0.0
    for c in conj:
        v = c.conj().T.reshape(-1)
        resid = v - F @ (F.conj().T @ v)
        worst = max(worst, float(np.linalg.norm(resid)) / max(1.0, float(np.linalg.norm(v))))
    return worst


def wedderburn_similarity(
    A: AlgebraBasis, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> WedderburnProfile:
    """Similarity carrying a reduction algebra onto a self-adjoint block algebra.

    Pipeline: split off the annihilated summand through the algebra's internal
    unit, Dixmier-orthogonalise the minimal central idempotents, then per
    central block build matrix units from an irreducible submodule and apply
    the matrix-unit renorming.  Stages compose into a single similarity.
    """
    return _wedderburn_similarity(A, has_reduction_property(A, seed, tol)[1], seed, tol)


def _wedderburn_similarity(
    A: AlgebraBasis, cert: ReductionCertificate, seed: int, tol: Tolerance
) -> WedderburnProfile:
    """``wedderburn_similarity`` from the algebra's reduction certificate."""
    n = A.ambient
    if not cert.verdict:
        raise StructurePreconditionError("algebra does not have the reduction property")
    if A.dim == 0:
        return WedderburnProfile(
            blocks=tuple(), degenerate_dim=n, similarity=SimilarityReport.identity(n)
        )

    stage_conditions = []
    total = identity(n)
    basis = list(A.basis)

    def push(S_full: np.ndarray, stage: str) -> None:
        nonlocal total, basis
        rep = SimilarityReport.from_matrix(S_full)
        if not np.isfinite(rep.condition):
            raise NumericalDegeneracyError(f"stage '{stage}' produced a singular similarity")
        stage_conditions.append(rep.condition)
        total = S_full @ total
        basis = [rep.conjugate(b) for b in basis]

    # stage 1: orthogonalise the internal unit against the annihilated summand
    e = cert.unit
    if operator_norm(e @ e - e) > tol.eq_eps * max(1.0, operator_norm(e)) ** 2:
        raise NumericalDegeneracyError("stage 'degenerate-split': unit is not idempotent")
    push(renorm_from_projection(e, tol).S, "degenerate-split")
    e = total @ e @ np.linalg.inv(total)
    rank_e, range_e = rank_and_range((e + e.conj().T) / 2, tol)
    degenerate_dim = n - rank_e
    if rank_e == 0:
        return WedderburnProfile(
            blocks=tuple(),
            degenerate_dim=n,
            similarity=SimilarityReport.from_matrix(total),
            stage_conditions=tuple(stage_conditions),
        )

    F0 = range_e.frame
    B_span = restriction_to_invariant(
        AlgebraBasis(ambient=n, basis=basis, unital=A.unital), range_e, tol
    )

    # stage 2: Dixmier-average the minimal central idempotents
    try:
        _, idems = center_and_minimal_central_idempotents(B_span, seed=seed, tol=tol)
    except (StructurePreconditionError, NumericalDegeneracyError) as exc:
        raise NumericalDegeneracyError(f"stage 'central-split': {exc}") from exc
    S1 = dixmier_orthogonalize(idems, tol).S
    push(_lift_similarity(S1, F0, n), "central-split")
    S1_rep = SimilarityReport.from_matrix(S1)
    idems = [S1_rep.conjugate(p) for p in idems]

    # stage 3: per-block matrix units
    frames = []
    for p in idems:
        _, range_p = rank_and_range((p + p.conj().T) / 2, tol)
        frames.append(range_p.frame)
    U1 = np.hstack(frames)
    if operator_norm(U1 @ U1.conj().T - identity(rank_e)) > 1e-6:
        raise NumericalDegeneracyError("stage 'block-split': central ranges not orthogonal")

    block_data = []
    for Fq in frames:
        # F0 and Fq have orthonormal columns, so the product frame is exact
        lifted = Subspace.from_frame(F0 @ Fq)
        B2 = restriction_to_invariant(
            AlgebraBasis(ambient=n, basis=basis, unital=A.unital), lifted, tol
        )
        r_i = B2.ambient
        try:
            pieces = irreducible_decomposition(B2, seed=seed, tol=tol)
        except (StructurePreconditionError, NumericalDegeneracyError) as exc:
            raise NumericalDegeneracyError(f"stage 'matrix-units': {exc}") from exc
        k = pieces[0][0].dim
        mult = len(pieces)
        if any(p.dim != k for p, _ in pieces) or len({lab for _, lab in pieces}) != 1:
            raise NumericalDegeneracyError(
                "stage 'matrix-units': central block is not isotypic"
            )
        V = pieces[0][0]
        # the restriction to one irreducible is an isomorphism onto the full
        # k x k matrix algebra; invert it to pull the matrix units back
        R_cols = np.column_stack(
            [(V.frame.conj().T @ b @ V.frame).reshape(-1) for b in B2.basis]
        )
        units, src_units = [], []
        for s in range(k):
            for t in range(k):
                E = np.zeros((k, k), dtype=complex)
                E[s, t] = 1.0
                coeff, *_ = np.linalg.lstsq(R_cols, E.reshape(-1), rcond=None)
                units.append(B2.combine(coeff))
                src_units.append(E)
        source = AlgebraBasis(ambient=k, basis=src_units, unital=True)
        theta = Representation(source=source, target_dim=r_i, images=units)
        try:
            S_block = orthogonalize_matrix_units(theta, tol).S
        except StructurePreconditionError as exc:
            raise NumericalDegeneracyError(f"stage 'matrix-units': {exc}") from exc
        S_block_inv = np.linalg.inv(S_block)
        hat = [
            [S_block @ units[s * k + t] @ S_block_inv for t in range(k)]
            for s in range(k)
        ]
        # unitary identification of the block with C^k tensor C^mult: columns
        # are the partial isometries applied to an orthonormal basis of the
        # range of the first diagonal unit
        mu = r_i // k
        h00 = (hat[0][0] + hat[0][0].conj().T) / 2
        rank00, range00 = rank_and_range(h00, tol)
        if rank00 != mu:
            raise NumericalDegeneracyError(
                "stage 'matrix-units': diagonal unit has the wrong rank"
            )
        W = np.zeros((r_i, r_i), dtype=complex)
        for s in range(k):
            W[:, s * mu : (s + 1) * mu] = hat[s][0] @ range00.frame
        if operator_norm(W @ W.conj().T - identity(r_i)) > 1e-6:
            raise NumericalDegeneracyError(
                "stage 'matrix-units': block identification is not unitary"
            )
        block_data.append((k, mult, Fq, W.conj().T @ S_block))

    # deterministic block order: (dimension, multiplicity) descending
    block_data.sort(key=lambda t: (-t[0], -t[1]))
    blocks = [(k, mult) for k, mult, _, _ in block_data]

    big = np.zeros((rank_e, rank_e), dtype=complex)
    at = 0
    for k, mult, _, S_b in block_data:
        d = S_b.shape[0]
        big[at : at + d, at : at + d] = S_b
        at += d
    U1_sorted = np.hstack([Fq for _, _, Fq, _ in block_data])
    S2 = U1_sorted @ big @ U1_sorted.conj().T
    push(_lift_similarity(S2, F0, n), "matrix-units")

    # final unitary: lay the blocks out on leading coordinates, annihilated
    # summand last
    cols = [F0 @ Fq for _, _, Fq, _ in block_data]
    cols.append(Subspace.from_frame(F0).perp().frame)
    U_global = np.hstack(cols)
    push(U_global.conj().T, "block-layout")

    defect = _self_adjointness_defect(list(A.basis), basis, tol)
    if defect > 1e-7:
        raise NumericalDegeneracyError(
            f"stage 'final-check': conjugated span is not *-closed (defect {defect:.2e})"
        )
    return WedderburnProfile(
        blocks=tuple(blocks),
        degenerate_dim=degenerate_dim,
        similarity=SimilarityReport.from_matrix(total),
        stage_conditions=tuple(stage_conditions),
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
