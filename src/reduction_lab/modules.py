"""Module structure of C^n over a concrete matrix algebra.

Irreducible decomposition, intertwiners, module complements, the
reduction-property decision with certificates, minimum-norm module
projections, projection-constant lower bounds, and inner-derivation solving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraBasis,
    _basis_from_frame,
    _frame_spans,
    _generating_stack,
    commutant,
    radical,
)
from .errors import (
    InvalidWitnessError,
    MalformedDerivationError,
    MalformedInputError,
    NotComplementableError,
    NumericalDegeneracyError,
    StructurePreconditionError,
)
from .linalg import (
    Subspace,
    _opnorms,
    _rank,
    check_finite,
    eig_clusters,
    identity,
    least_psd_shift,
    null_space,
    operator_norm,
    rank_and_range,
    solve_consistent,
    sylvester_system,
)
from .tolerance import DEFAULT_TOL, Tolerance

__all__ = [
    "Representation",
    "IntertwinerSpace",
    "ReductionCertificate",
    "invariant",
    "restriction_to_invariant",
    "irreducible_decomposition",
    "intertwiners",
    "module_complement",
    "has_reduction_property",
    "min_norm_module_projection",
    "projection_constant_estimate",
    "sample_invariant_subspaces",
    "intertwiner_symmetry_check",
    "solve_inner_derivation",
    "build_hat_representation",
    "algebra_identity_element",
]


@dataclass(frozen=True)
class Representation:
    """A multiplicative linear map from an algebra into M_m, stored basiswise."""

    source: AlgebraBasis
    target_dim: int
    images: tuple = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.source.dim:
            raise MalformedInputError("need exactly one image per basis element")
        for im in self.images:
            if im.shape != (self.target_dim, self.target_dim):
                raise MalformedInputError("image has wrong shape")

    @staticmethod
    def from_images(
        source: AlgebraBasis, images, tol: Tolerance = DEFAULT_TOL
    ) -> "Representation":
        rep = Representation(
            source=source,
            target_dim=np.asarray(images[0]).shape[0] if images else 0,
            images=[np.asarray(im, dtype=complex) for im in images],
        )
        rep.validate(tol)
        return rep

    @staticmethod
    def identity_rep(A: AlgebraBasis) -> "Representation":
        return Representation(source=A, target_dim=A.ambient, images=list(A.basis))

    def apply(self, M: np.ndarray) -> np.ndarray:
        """Image of an element of the source span."""
        coeff = self.source.coordinates(M)
        out = np.zeros((self.target_dim, self.target_dim), dtype=complex)
        for c, im in zip(coeff, self.images):
            out += c * im
        return out

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Check multiplicativity on all basis pairs."""
        for i, bi in enumerate(self.source.basis):
            for j, bj in enumerate(self.source.basis):
                lhs = self.apply(bi @ bj)
                rhs = self.images[i] @ self.images[j]
                scale = max(1.0, operator_norm(rhs))
                if operator_norm(lhs - rhs) > tol.eq_eps * scale:
                    raise MalformedInputError("images are not multiplicative on the basis")


@dataclass(frozen=True)
class IntertwinerSpace:
    """Hom_A(V, W) with a basis of dim(W) x dim(V) coefficient matrices."""

    source: Subspace
    target: Subspace
    basis: tuple = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)


def invariant(V: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether AV is contained in V at the comparison tolerance.

    AV is in V exactly when bV is in V for each b of a generating set: A's
    generators when it has fewer of them than basis elements, else the basis
    (``_generating_stack``).  They are tested at once: one stacked product
    R = (I - P_V) b F over them, for the frame F of V, against
    ||R|| <= eps max(1, ||b||).  Frobenius norms pass it first when
    ||R||_F <= eps max(1, ||b||_F / sqrt(n)), as ||R|| <= ||R||_F and
    ||b|| >= ||b||_F / sqrt(n); else operator norms decide.
    """
    if V.ambient != A.ambient:
        raise MalformedInputError("subspace and algebra live in different spaces")
    if V.dim == 0:
        return True
    B = _generating_stack(A)
    R = (identity(A.ambient) - V.projector()) @ B @ V.frame
    check_finite(R)
    bound = np.maximum(1.0, np.linalg.norm(B, axis=(-2, -1)) / np.sqrt(A.ambient))
    if np.all(np.linalg.norm(R, axis=(-2, -1)) <= tol.eq_eps * bound):
        return True
    return bool(np.all(_opnorms(R) <= tol.eq_eps * np.maximum(1.0, _opnorms(B))))


def _invariance_residual(V: Subspace, A: AlgebraBasis) -> float:
    """max ||(I - P_V) b F|| / max(1, ||b||) over the generating stack, for the
    frame F of V: V is ``invariant`` exactly when this is at most eq_eps."""
    B = _generating_stack(A)
    R = (identity(A.ambient) - V.projector()) @ B @ V.frame
    return float(np.max(_opnorms(R) / np.maximum(1.0, _opnorms(B)), initial=0.0))


def restriction_to_invariant(
    A: AlgebraBasis, V: Subspace, tol: Tolerance = DEFAULT_TOL
) -> AlgebraBasis:
    """The algebra of restricted actions on an invariant subspace, in frame
    coordinates: its basis is the orthonormal frame of the restricted basis,
    and its generators are the restricted generators F* g F, for the frame F of V."""
    F, n = V.frame, A.ambient
    restricted = (F.conj().T @ np.reshape(A.basis, (-1, n, n)) @ F).reshape(A.dim, V.dim**2)
    frame = Subspace.from_spanning(restricted.T, ambient=V.dim**2, tol=tol).frame
    gens = tuple(F.conj().T @ np.reshape(A.generators, (-1, n, n)) @ F)
    unital = bool(frame.shape[1]) and _frame_spans(frame, identity(V.dim), tol)
    return _basis_from_frame(frame, V.dim, unital, gens)


def algebra_identity_element(
    A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray | None:
    """The internal identity of the algebra (two-sided unit of the span), if any."""
    if A.dim == 0:
        return None
    B = np.reshape(A.basis, (-1, A.ambient, A.ambient))
    P = B[:, None] @ B[None]  # P[i, j] = b_i b_j
    M = np.stack([P, P.transpose(1, 0, 2, 3)], axis=2).reshape(A.dim, -1).T
    coeff = solve_consistent(M, np.stack([B, B], axis=1).reshape(-1), tol)
    return None if coeff is None else A.combine(coeff)


def irreducible_decomposition(
    A: AlgebraBasis,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    max_retries: int = 40,
) -> list[tuple[Subspace, int]]:
    """Direct-sum decomposition of C^n into irreducible submodules with class labels.

    For a semisimple A the eigenspaces of a generic element z of the commutant
    are irreducible submodules (Murota, Kanno, Kojima & Kojima, Japan J. Indust.
    Appl. Math. 27, 2010).  Each draw takes z at random in the commutant and
    spans each of its eigenvalue clusters once; the draw is kept when every
    piece has its cluster's dimension, is invariant and is irreducible, and is
    made again otherwise, at most ``max_retries`` times.  The pieces are
    sorted by ``canonical_key`` and labelled by ``_class_labels``, which also
    certifies that they are irreducible.  The output order is deterministic.
    """
    if radical(A, tol).dim != 0:
        raise StructurePreconditionError("decomposition needs a semisimple algebra")
    if A.dim == 0:
        raise StructurePreconditionError("the zero algebra acts degenerately")
    r, _ = rank_and_range(np.hstack(A.basis), tol)
    if r != A.ambient:
        raise StructurePreconditionError(
            "algebra acts degenerately; strip the annihilated complement first"
        )
    return _decompose(A, commutant(A, tol), seed, tol, max_retries)


def _decompose(
    A: AlgebraBasis, C: AlgebraBasis, seed: int, tol: Tolerance, max_retries: int = 40
) -> list[tuple[Subspace, int]]:
    """``irreducible_decomposition`` of a semisimple A acting nondegenerately,
    given its commutant C; the preconditions are the caller's."""
    n = A.ambient
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        evals, vecs = np.linalg.eig(C.combine(rng.standard_normal(C.dim)))
        clusters = eig_clusters(evals)
        pieces = [Subspace.from_spanning(vecs[:, cl], ambient=n, tol=tol) for cl in clusters]
        if any(p.dim != len(cl) or not invariant(p, A, tol) for p, cl in zip(pieces, clusters)):
            continue
        pieces.sort(key=lambda s: s.canonical_key())
        labels = _class_labels(pieces, A, tol)
        if labels is not None:
            return list(zip(pieces, labels))
    raise NumericalDegeneracyError("random commutant splitter failed repeatedly")


def _class_labels(pieces: list, A: AlgebraBasis, tol: Tolerance) -> list | None:
    """Class labels of the invariant ``pieces`` of a semisimple A, in order, or None
    when one of them is not irreducible.

    Each unlabelled piece V in turn gets one stacked ``_intertwiner_systems``
    call: V's own system, then V against every later unlabelled piece W of its
    dimension, ranked by one stacked QR (with no Q, when the systems are tall)
    and one stacked SVD.  dim End(V) = 1 certifies V irreducible (Schur; A is
    semisimple), and a W with Hom(V, W) != 0 is then a copy of V.
    """
    labels = [-1] * len(pieces)
    classes = 0
    for i, V in enumerate(pieces):
        if labels[i] >= 0:
            continue
        rest = [j for j in range(i + 1, len(pieces)) if labels[j] < 0 and pieces[j].dim == V.dim]
        S = _intertwiner_systems(A, [V] * (1 + len(rest)), [V] + [pieces[j] for j in rest])
        if S.shape[1] > S.shape[2]:
            S = np.linalg.qr(S, mode="r")
        homs = [V.dim**2 - _rank(s, tol) for s in np.linalg.svd(S, compute_uv=False)]
        if homs[0] != 1:
            return None
        labels[i] = classes
        for j, h in zip(rest, homs[1:]):
            if h:
                labels[j] = classes
        classes += 1
    return labels


def _intertwiner_systems(A: AlgebraBasis, sources: list, targets: list) -> np.ndarray:
    """The Sylvester systems of T(a|_V) = (a|_W)T in frame coordinates, one per pair
    (V, W) of ``sources`` and ``targets`` (each list of one dimension), stacked.

    The rows come from A's generators when it has fewer of them than basis
    elements, else from the basis (``_generating_stack``), as an intertwiner
    of the generators intertwines the whole algebra.  Both restricted stacks
    are divided by the power of two nearest the largest Frobenius norm in that
    stack, so the rank floor applied to a system does not depend on the scale
    of A; the division is exact, so a unit-scale stack keeps every bit of its
    system.
    """
    B = _generating_stack(A)
    top = float(np.max(np.linalg.norm(B, axis=(-2, -1)), initial=0.0)) or 1.0
    B = B / 2.0 ** np.round(np.log2(top))
    V, W = (np.array([S.frame for S in group])[:, None] for group in (sources, targets))
    lefts, rights = (F.conj().swapaxes(-1, -2) @ B @ F for F in (W, V))
    p, q = lefts.shape[-1], rights.shape[-1]
    S = sylvester_system(lefts.reshape(-1, p, p), rights.reshape(-1, q, q))
    return S.reshape(len(sources), -1, p * q)


def intertwiners(
    V: Subspace, W: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> IntertwinerSpace:
    """Basis of all maps T with T(a|_V) = (a|_W)T, in frame coordinates: the null
    space of the scaled Sylvester system of ``_intertwiner_systems``.
    """
    for S in (V, W):
        if not invariant(S, A, tol):
            raise InvalidWitnessError("intertwiners need invariant subspaces")
    if V.dim == 0 or W.dim == 0:
        return IntertwinerSpace(source=V, target=W, basis=[])
    N = null_space(_intertwiner_systems(A, [V], [W])[0], tol=tol)
    basis = [N[:, j].reshape(W.dim, V.dim) for j in range(N.shape[1])]
    return IntertwinerSpace(source=V, target=W, basis=basis)


def _module_projection_families(subspaces: list, comm: AlgebraBasis, tol: Tolerance):
    """The least-Frobenius module projection onto each of ``subspaces`` and a basis
    of its free directions, from one stacked SVD.

    ``comm`` is the commutant, whose basis is orthonormal in the Frobenius
    inner product.  A module projection onto V is p = sum_i y_i C_i over that
    basis with range inside V, (I - P_V) p = 0, that fixes V pointwise,
    p F = F for the frame F of V.  These rows are all at unit scale, whatever
    the scale of the algebra's basis, and there are only dim(commutant)
    unknowns.  The systems of all V with 0 < dim V < n are stacked, their
    frames zero-padded to the largest dimension; zero rows change neither the
    least-squares solutions nor the null spaces.  One SVD gives each system's
    rank at the rank tolerance, its least-norm y (the pseudo-inverse solution,
    kept only under ``solve_consistent``'s residual test) and its null space
    (the trailing right singular vectors).  As the C_i are orthonormal, the
    least-norm y gives the least-Frobenius p0, and an orthonormal null space
    gives Frobenius-orthonormal directions.

    Returns (P0, D, counts): the p0 as a (W, n, n) stack and the directions as a
    (W, k, n, n) stack, each subspace's counts[w] directions first and zeros
    after; or None when some subspace admits no module projection.
    """
    n = comm.ambient
    C = np.reshape(comm.basis, (-1, n, n))
    P0 = np.zeros((len(subspaces), n, n), dtype=complex)
    P0[[V.dim == n for V in subspaces]] = identity(n)
    counts = np.zeros(len(subspaces), dtype=int)
    free = [w for w, V in enumerate(subspaces) if 0 < V.dim < n]
    if not free:
        return P0, np.zeros((len(subspaces), 0, n, n), dtype=complex), counts
    F = np.zeros((len(free), n, max(subspaces[w].dim for w in free)), dtype=complex)
    for row, w in enumerate(free):
        F[row, :, : subspaces[w].dim] = subspaces[w].frame
    perp = identity(n) - F @ F.conj().swapaxes(-1, -2)
    M = np.concatenate([perp[:, None] @ C, C @ F[:, None]], axis=3).reshape(len(free), len(C), -1)
    M = M.swapaxes(1, 2)
    rhs = np.concatenate([np.zeros((len(free), n, n)), F], axis=2).reshape(len(free), -1)
    U, sig, Vh = np.linalg.svd(M, full_matrices=False)
    rank = np.array([_rank(s, tol) for s in sig])
    keep = np.arange(len(C)) < rank[:, None]
    inv = np.divide(1.0, sig, out=np.zeros_like(sig), where=keep)
    y = np.einsum("wji,wj->wi", Vh.conj(), inv * np.einsum("wrj,wr->wj", U.conj(), rhs))
    resid = np.linalg.norm(np.einsum("wrj,wj->wr", M, y) - rhs, axis=1)
    if np.any(resid > tol.eq_eps * np.maximum(1.0, np.linalg.norm(rhs, axis=1))):
        return None
    counts[free] = len(C) - rank
    N = np.zeros((len(free), counts.max(), len(C)), dtype=complex)
    for row, r in enumerate(rank):
        N[row, : len(C) - r] = Vh[row, r:].conj()
    D = np.zeros((len(subspaces), counts.max(), n, n), dtype=complex)
    P0[free], D[free] = np.tensordot(y, C, 1), np.tensordot(N, C, 1)
    return P0, D, counts


def _module_projection_family(V: Subspace, comm: AlgebraBasis, tol: Tolerance):
    """``_module_projection_families`` of V alone: (p0, D) with D its (k, n, n)
    directions, or None when no module projection exists."""
    families = _module_projection_families([V], comm, tol)
    if families is None:
        return None
    P0, D, counts = families
    return P0[0], D[0, : counts[0]]


def module_complement(
    V: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> Subspace | None:
    """An invariant complement of V, or None when no module projection exists.

    The complement is the kernel of the least-Frobenius module projection
    onto V, solved in the coordinates of the commutant (see
    ``_module_projection_families``).
    """
    if not invariant(V, A, tol):
        raise InvalidWitnessError("module complements need an invariant subspace")
    family = _module_projection_family(V, commutant(A, tol), tol)
    if family is None:
        return None
    _, ker = rank_and_range(identity(A.ambient) - family[0], tol)
    return ker


@dataclass(frozen=True)
class ReductionCertificate:
    """Outcome of the reduction-property decision.

    For a yes the certificate is a Wedderburn block profile; for a no it is a
    nonzero radical element together with an invariant subspace that admits no
    module complement.  A yes also carries to every later stage the internal
    unit e, the kernel of e, the class-labelled irreducible pieces of range e
    lifted to C^n, one intertwiner T per piece q (``homs``: b (q.frame T) =
    (q.frame T)(F0* b F0) over the frame F0 of its class's first piece, whose
    T is I) and the commutant of A, with a Frobenius-orthonormal basis.
    """

    verdict: bool
    blocks: tuple | None = None
    degenerate_dim: int | None = None
    radical_element: np.ndarray | None = field(default=None, repr=False)
    witness: Subspace | None = None
    radical_dim: int = field(default=0, repr=False)
    unit: np.ndarray | None = field(default=None, repr=False)
    kernel: Subspace | None = field(default=None, repr=False)
    pieces: tuple = field(default=(), repr=False)
    homs: tuple = field(default=(), repr=False)
    commutant: AlgebraBasis | None = field(default=None, repr=False)


def has_reduction_property(
    A: AlgebraBasis, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, ReductionCertificate]:
    """Decide the reduction property algebraically: it holds iff the radical is zero.

    The invariant-subspace family of a matrix algebra is generally a
    continuum, so the decision is made through semisimplicity; sampled
    complement searches cross-check it in the test suite.  A no is reported
    only when its witness, the range of the radical, is invariant; else it is
    a breakdown in stage 'radical', with the invariance residual
    (``_invariance_residual``) as the margin.

    A yes is the one structure pass of an analysis.  With R and K orthonormal
    frames of the range and the kernel of the unit e, the restriction B of A
    to range e is semisimple and holds its unit, so it is decomposed from its
    commutant C with no further checks.  A' is C on range e and all of M_d on
    ker e, which A annihilates: the span of R c R* e over C's basis and of
    K_a K_b* (I - e), as e = R R* e and I - e = K K* (I - e).
    """
    n = A.ambient
    rad = radical(A, tol)
    if rad.dim:
        _, witness = rank_and_range(np.hstack(rad.basis), tol)
        residual = _invariance_residual(witness, A)
        if not residual <= tol.eq_eps:
            raise NumericalDegeneracyError(
                f"stage 'radical': the witness is not invariant (residual {residual:.2e})"
            )
        return False, ReductionCertificate(
            False, radical_element=rad.basis[0], witness=witness, radical_dim=rad.dim
        )
    e = algebra_identity_element(A, tol) if A.dim else np.zeros((n, n), dtype=complex)
    if e is None:
        raise NumericalDegeneracyError("semisimple algebra has no computable unit")
    rank_e, range_e = rank_and_range(e, tol)
    kernel = rank_and_range(identity(n) - e, tol)[1]
    K = kernel.frame
    spans = np.einsum("ia,jb->abij", K, K.conj()).reshape(-1, n, n) @ (identity(n) - e)
    pieces, homs, first = [], [], {}
    if rank_e:
        R = range_e.frame
        B = restriction_to_invariant(A, range_e, tol)
        C = commutant(B, tol)
        pieces = [
            (Subspace.from_spanning(R @ p.frame, ambient=n, tol=tol), lab)
            for p, lab in _decompose(B, C, seed, tol)
        ]
        lifted = R @ np.reshape(C.basis, (-1, rank_e, rank_e)) @ R.conj().T @ e
        spans = np.concatenate([lifted, spans])
    frame = Subspace.from_spanning(spans.reshape(-1, n * n).T, ambient=n * n, tol=tol).frame
    for q, lab in pieces:
        if lab not in first:
            first[lab] = q
            homs.append(identity(q.dim))
            continue
        tw = intertwiners(first[lab], q, A, tol)
        if tw.dim != 1:
            raise NumericalDegeneracyError(
                f"stage 'block-similarity': Hom between isomorphic pieces has dimension {tw.dim}"
            )
        homs.append(tw.basis[0])
    labels = [lab for _, lab in pieces]
    blocks = sorted({lab: (p.dim, labels.count(lab)) for p, lab in pieces}.values(), reverse=True)
    return True, ReductionCertificate(
        True, tuple(blocks), n - rank_e, unit=e, kernel=kernel, pieces=tuple(pieces),
        homs=tuple(homs), commutant=_basis_from_frame(frame, n, unital=True)
    )


def _spectral_norm_minimiser(P0: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Minimise ||P0[w] + sum_j c_j D[w, j]|| over complex c, for each w of a (W, n, n)
    stack ``P0`` with (W, k, n, n) directions ``D``, zero-padded where the counts differ
    (a zero direction keeps coefficient 0).  A 2-D ``P0`` with (k, n, n) ``D`` is a
    stack of one, and gives a 2-D result.

    ||X|| <= t exactly when [[tI, X], [X*, tI]] >= 0, affine in t, Re c and Im c, so
    ``least_psd_shift`` solves the stack: barrier gap <= 1e-11 relative at exit; still
    reported uncertified because no dual value is reported.
    """
    if P0.ndim == 2:
        return _spectral_norm_minimiser(P0[None], D[None])[0]
    k = D.shape[1]
    if not k:
        return P0
    X = np.concatenate([P0[:, None], D, 1j * D], axis=1)
    Z = np.zeros_like(X)
    F = np.block([[Z, X], [np.swapaxes(X, -1, -2).conj(), Z]])
    y = least_psd_shift(F[:, 0], F[:, 1:])
    return P0 + np.einsum("wk,wkij->wij", y[:, :k] + 1j * y[:, k:], D)


def _min_norm_module_projections(
    subspaces: list, A: AlgebraBasis, comm: AlgebraBasis, tol: Tolerance
) -> np.ndarray:
    """Module projections of least operator norm onto each of ``subspaces``, stacked.

    Each subspace gets its own commutant-coordinate system, all from one stacked
    SVD (see ``_module_projection_families``); one ``_spectral_norm_minimiser``
    call solves every subspace V with 0 < dim V < n (barrier gap <= 1e-11 relative
    at exit; still reported uncertified because no dual value is reported), and one
    batched check re-verifies each result there as an idempotent commuting with
    the algebra.
    """
    n = A.ambient
    families = _module_projection_families(subspaces, comm, tol)
    if families is None:
        raise NotComplementableError("subspace admits no module projection")
    P, D, _ = families
    free = [i for i, V in enumerate(subspaces) if 0 < V.dim < n]
    if not free:
        return P
    p = _spectral_norm_minimiser(P[free], D[free])

    scale = np.maximum(1.0, _opnorms(p))
    if not np.all(_opnorms(p @ p - p) <= 1e-6 * scale**2):
        raise NumericalDegeneracyError("minimiser drifted off the idempotent manifold")
    B = np.reshape(A.basis, (-1, n, n))
    drift = _opnorms(p[:, None] @ B - B @ p[:, None])
    if not np.all(drift <= 1e-6 * scale[:, None] * np.maximum(1.0, _opnorms(B))):
        raise NumericalDegeneracyError("minimiser drifted out of the commutant")
    P[free] = p
    return P


def min_norm_module_projection(
    V: Subspace,
    A: AlgebraBasis,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Module projection onto V of least operator norm (barrier gap <= 1e-11
    relative at exit; still reported uncertified because no dual value is reported).

    Minimises over the affine family p0 + d with d in the commutant, range(d)
    inside V and d vanishing on V, solved in the coordinates of the
    commutant (see ``_module_projection_families``); the result is re-verified
    to be an idempotent commuting with the algebra, with range V.
    """
    if not invariant(V, A, tol):
        raise InvalidWitnessError("need an invariant subspace")
    return _min_norm_module_projections([V], A, commutant(A, tol), tol)[0]


def projection_constant_estimate(
    A: AlgebraBasis,
    samples: int = 24,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    amplification: int = 1,
) -> tuple[float, list]:
    """Lower bound for the projection constant, and its witnesses by descending norm.

    When every isotypic class has multiplicity one and there are at most
    ``_LATTICE_MAX_ATOMS`` atoms (the irreducible pieces, and the kernel of the
    internal unit when a summand is annihilated), the submodules built from
    the atoms are their unions, each with exactly one module projection, and
    the bound is the exact maximum of those norms.  With at most one
    annihilated dimension this is the projection constant at level 1; with
    more, it is the maximum over U + L for unions U of pieces and L either 0
    or the whole annihilated summand.

    Otherwise it samples irreducible pieces, isotypic sums, and graph
    subspaces built from intertwiners between isomorphic irreducible blocks,
    and maximises the minimum projection norm.  The zero submodule is
    excluded; the sampled number is a lower bound, never claimed as the
    supremum.  Each minimum has barrier gap <= 1e-11 relative at exit; the
    bound is still reported uncertified because no dual value is reported.

    With ``amplification=2`` the doubled module, whose classes all have
    multiplicity two, is sampled as well, covering graph submodules between
    the two copies; levels beyond 2 are out of scope.
    """
    if amplification not in (1, 2):
        raise MalformedInputError("only amplification levels 1 and 2 are supported")
    cert = has_reduction_property(A, seed, tol)[1]
    base, witnesses = _projection_constant_estimate(A, cert, samples, seed, tol)
    if amplification == 2:
        doubled = AlgebraBasis(
            ambient=2 * A.ambient,
            basis=[np.kron(b, np.eye(2)) for b in A.basis],
            unital=A.unital,
        )
        high, wit2 = projection_constant_estimate(doubled, samples, seed, tol)
        return max(base, high), sorted(witnesses + wit2, key=lambda t: -t[1])
    return base, witnesses


# Above this many atoms the lattice's 2^(r-1) - 1 unions cost more than the
# sampled route: 0.06 s at r = 12, about 1.5 s at r = 16.
_LATTICE_MAX_ATOMS = 12
# Complex entries per batched norm call of the lattice route (1 MiB): on C^12
# one call over all 2047 unions raised the peak RSS of `analyze` by 6 MiB.
_NORM_BATCH = 2**16


def _lattice_atoms(cert: ReductionCertificate) -> list | None:
    """The atoms of a yes-certificate whose submodules are the unions of at most
    ``_LATTICE_MAX_ATOMS`` atoms: the pieces, all of distinct classes, and the
    kernel of the unit when a summand is annihilated; None for any other."""
    labels = [lab for _, lab in cert.pieces]
    atoms = [p for p, _ in cert.pieces] + ([cert.kernel] if cert.degenerate_dim else [])
    if len(set(labels)) == len(labels) and len(atoms) <= _LATTICE_MAX_ATOMS:
        return atoms
    return None


def _projection_constant_estimate(
    A: AlgebraBasis,
    cert: ReductionCertificate,
    samples: int,
    seed: int,
    tol: Tolerance,
) -> tuple[float, list]:
    """``projection_constant_estimate`` at amplification 1, given the reduction
    certificate, whose commutant, kernel of the unit, pieces and piece
    intertwiners it reads.

    A certificate with ``_lattice_atoms`` takes ``_lattice_projection_constant``;
    every other one is sampled.  Pieces, isotypic sums and random unions are
    all unions of pieces, each known by the set of pieces it joins, and a set
    joined before is skipped; a union of several pieces is one span of their
    stacked frames.  The graph subspaces between pieces i < j of a class take
    the intertwiner homs[j] homs[i]^-1 at unit operator norm.  The whole space is skipped when
    it is the union of all pieces, or the kernel of a zero unit.  One
    ``_min_norm_module_projections`` pass solves every candidate, to a barrier
    gap <= 1e-11 relative at exit; still reported uncertified because no dual
    value is reported.
    """
    if not cert.verdict:
        raise StructurePreconditionError("projection constants need the reduction property")
    atoms = _lattice_atoms(cert)
    if atoms is not None:
        return _lattice_projection_constant(A, atoms, tol)
    n = A.ambient
    rng = np.random.default_rng(seed)

    candidates: list[Subspace] = []
    joined: set[tuple] = set()

    def add(s: Subspace) -> None:
        if s.dim and invariant(s, A, tol):
            candidates.append(s)

    def union(members: tuple) -> None:
        if members in joined:
            return
        joined.add(members)
        group = [cert.pieces[k][0] for k in members]
        frames = np.hstack([p.frame for p in group])
        add(group[0] if len(group) == 1 else Subspace.from_spanning(frames, ambient=n, tol=tol))

    for k in range(len(cert.pieces)):
        union((k,))
    by_label: dict[int, list[int]] = {}
    for k, (_, lab) in enumerate(cert.pieces):
        by_label.setdefault(lab, []).append(k)
    for members in by_label.values():
        union(tuple(members))
    # graph subspaces between isomorphic pieces
    for members in by_label.values():
        for a, i in enumerate(members):
            for j in members[a + 1 :]:
                T = cert.homs[j] @ np.linalg.inv(cert.homs[i])
                T = T / max(operator_norm(T), 1e-30)
                for lam in (1.0, *(rng.uniform(0.3, 3.0, size=3))):
                    cols = cert.pieces[i][0].frame + lam * (cert.pieces[j][0].frame @ T)
                    add(Subspace.from_spanning(cols, ambient=n, tol=tol))
    if cert.degenerate_dim:
        # the annihilated summand (everything, for a zero unit) is the kernel
        # of the internal unit, which is skew against its range in general
        add(cert.kernel)
    # random unions of pieces (a bounded number of draws)
    if len(cert.pieces) > 1:
        for _ in range(2 * samples):
            if len(candidates) >= samples:
                break
            mask = rng.integers(0, 2, size=len(cert.pieces))
            if mask.any():
                union(tuple(np.flatnonzero(mask).tolist()))
    everything = tuple(range(len(cert.pieces)))
    if not (cert.degenerate_dim == n or (not cert.degenerate_dim and everything in joined)):
        add(Subspace.full(n))

    candidates = candidates[: max(samples, 1)]
    norms = _opnorms(_min_norm_module_projections(candidates, A, cert.commutant, tol)).tolist()
    witnesses = sorted(zip(candidates, norms), key=lambda t: -t[1])
    return max(norms), witnesses


def _lattice_projection_constant(
    A: AlgebraBasis, atoms: list, tol: Tolerance
) -> tuple[float, list]:
    """The largest norm of a module projection onto a union of ``atoms``, and its
    witnesses: the maximising union, then the atoms, by descending norm.

    The atoms are invariant subspaces, pairwise non-isomorphic as modules,
    whose direct sum is C^n, so a union U has exactly one module projection,
    P_U = S diag(1_U) S^-1 over the atom frames S laid side by side.  As
    ||I - P|| = ||P|| for an idempotent P != 0, I (Kato, Numer. Math. 2, 1960;
    Szyld, Numer. Algorithms 42, 2006), only the 2^(r-1) - 1 proper unions
    holding atom 0 are formed, and batched ``_opnorms`` calls take their
    norms; the bound is max(1, their maximum), the whole space giving 1.

    The r atom projections are checked first with the minimiser's 1e-6 gates:
    each is idempotent and commutes with the algebra's generating stack, and
    together they sum to I.  A failed check, or atom frames that do not make
    an invertible S, raises ``NumericalDegeneracyError``.
    """
    n, r = A.ambient, len(atoms)
    S = np.hstack([V.frame for V in atoms])
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(
            "stage 'projection-constant': the atoms are not a direct sum of C^n"
        ) from exc
    owner = np.repeat(np.arange(r), [V.dim for V in atoms])
    P = (S * (owner == np.arange(r)[:, None])[:, None]) @ S_inv
    atom_norms = _opnorms(P)
    scale = np.maximum(1.0, atom_norms)
    B = _generating_stack(A)
    drift = _opnorms(P[:, None] @ B - B @ P[:, None]) / np.maximum(1.0, _opnorms(B))
    for what, defect in (
        ("are not idempotent", np.max(_opnorms(P @ P - P) / scale**2)),
        ("leave the commutant", np.max(drift / scale[:, None], initial=0.0)),
        ("do not sum to I", operator_norm(P.sum(axis=0) - identity(n))),
    ):
        if not defect <= 1e-6:
            raise NumericalDegeneracyError(
                f"stage 'projection-constant': the atom projections {what} (defect {defect:.2e})"
            )

    witnesses = list(zip(atoms, atom_norms.tolist()))
    bound = 1.0
    if r > 1:
        # bit k of a union's number is atom k: atom 0 is always in, and the
        # largest number, 2^r - 3, leaves atom 1 out
        unions = 2 * np.arange(2 ** (r - 1) - 1) + 1
        cols = ((unions[:, None] >> owner) & 1).astype(bool)
        rows = max(1, _NORM_BATCH // n**2)
        norms = np.concatenate(
            [_opnorms((S * cols[i : i + rows, None]) @ S_inv) for i in range(0, len(cols), rows)]
        )
        best = int(np.argmax(norms))
        bound = max(1.0, float(norms[best]))
        if best:
            union = Subspace.from_spanning(S[:, cols[best]], ambient=n, tol=tol)
            witnesses.insert(0, (union, float(norms[best])))
    return bound, sorted(witnesses, key=lambda t: -t[1])


def sample_invariant_subspaces(
    A: AlgebraBasis,
    count: int = 24,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    include_full: bool = True,
) -> list[Subspace]:
    """Sample invariant subspaces of an arbitrary matrix algebra.

    Combines cyclic submodules, spectral subspaces of random commutant
    elements, the annihilator, radical ranges, and meets/joins of those.
    Deterministic given (A, seed).  Works for non-semisimple algebras.
    """
    n = A.ambient
    rng = np.random.default_rng(seed)
    out: list[Subspace] = []

    def add(s: Subspace) -> None:
        if s.dim == 0 or (not include_full and s.dim == n):
            return
        if not invariant(s, A, tol):
            return
        if s.equals_any(out, tol):
            return
        out.append(s)

    def cyclic(xi: np.ndarray) -> Subspace:
        S = Subspace.from_spanning(xi[:, None], ambient=n, tol=tol)
        while True:
            cols = np.reshape(A.basis, (-1, n, n)) @ S.frame
            S2 = Subspace.from_spanning(np.hstack([S.frame, *cols]), ambient=n, tol=tol)
            if S2.dim == S.dim:
                return S2
            S = S2

    for i in range(n):
        xi = np.zeros(n, dtype=complex)
        xi[i] = 1.0
        add(cyclic(xi))
    for _ in range(max(count // 2, 4)):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        add(cyclic(xi))

    if A.dim:
        add(rank_and_range(np.hstack(A.basis), tol)[1])
        ann = null_space(np.vstack(A.basis), tol=tol)
        add(Subspace.from_spanning(ann, ambient=n, tol=tol))
        rad = radical(A, tol)
        if rad.dim:
            add(rank_and_range(np.hstack(rad.basis), tol)[1])
        C = commutant(A, tol)
        for _ in range(4):
            z = C.combine(rng.standard_normal(C.dim))
            evals, vecs = np.linalg.eig(z)
            for cl in eig_clusters(evals):
                add(Subspace.from_spanning(vecs[:, cl], ambient=n, tol=tol))

    snapshot = list(out)
    for i in range(len(snapshot)):
        for j in range(i + 1, len(snapshot)):
            add(snapshot[i].meet(snapshot[j], tol))
            add(snapshot[i].join(snapshot[j], tol))
            if len(out) >= 4 * count:
                break

    out.sort(key=lambda s: s.canonical_key())
    return out[:count]


def intertwiner_symmetry_check(
    A: AlgebraBasis, samples: int = 16, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether nonzero-intertwiner existence is symmetric on sampled invariant pairs."""
    subs = sample_invariant_subspaces(A, count=samples, seed=seed, tol=tol)
    for V in subs:
        for W in subs:
            if V is W:
                continue
            fwd = intertwiners(V, W, A, tol).dim
            bwd = intertwiners(W, V, A, tol).dim
            if (fwd > 0) != (bwd > 0):
                return False
    return True


def _check_derivation_identity(
    theta: Representation, delta: list, tol: Tolerance
) -> None:
    A = theta.source
    for i, bi in enumerate(A.basis):
        for j, bj in enumerate(A.basis):
            coeff = A.coordinates(bi @ bj)
            lhs = np.zeros((theta.target_dim, theta.target_dim), dtype=complex)
            for c, dk in zip(coeff, delta):
                lhs += c * dk
            rhs = theta.images[i] @ delta[j] + delta[i] @ theta.images[j]
            scale = max(1.0, operator_norm(lhs), operator_norm(rhs))
            if operator_norm(lhs - rhs) > tol.eq_eps * scale:
                raise MalformedDerivationError("derivation identity fails on a basis pair")


def solve_inner_derivation(
    theta: Representation, delta, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray | None:
    """Solve delta(a) = T theta(a) - theta(a) T, or report the derivation outer.

    ``delta`` is given by its images on the basis of the source algebra.  The
    linear system is solved by least squares and accepted only when the
    residual is below the comparison tolerance; a genuinely inconsistent
    system returns None.
    """
    delta = [np.asarray(d, dtype=complex) for d in delta]
    if len(delta) != theta.source.dim:
        raise MalformedInputError("need one derivation image per basis element")
    _check_derivation_identity(theta, delta, tol)
    m = theta.target_dim
    images = np.reshape(theta.images, (-1, m, m))
    x = solve_consistent(sylvester_system(images, images), np.reshape(delta, -1), tol)
    return None if x is None else x.reshape(m, m)


def build_hat_representation(
    theta: Representation, delta, tol: Tolerance = DEFAULT_TOL
) -> Representation:
    """The doubled representation a -> [[theta(a), delta(a)], [0, theta(a)]].

    The copy of the target space embedded as the top summand has a module
    complement exactly when the derivation is inner.
    """
    delta = [np.asarray(d, dtype=complex) for d in delta]
    if len(delta) != theta.source.dim:
        raise MalformedInputError("need one derivation image per basis element")
    _check_derivation_identity(theta, delta, tol)
    m = theta.target_dim
    images = []
    for im, d in zip(theta.images, delta):
        top = np.hstack([im, d])
        bottom = np.hstack([np.zeros((m, m), dtype=complex), im])
        images.append(np.vstack([top, bottom]))
    rep = Representation(source=theta.source, target_dim=2 * m, images=images)
    rep.validate(tol)
    return rep
