"""Module structure of C^n over a concrete matrix algebra.

Irreducible decomposition, intertwiners, module complements, the
reduction-property decision with certificates, minimum-norm module
projections, projection-constant lower bounds, and inner-derivation solving.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraBasis,
    _basis_from_frame,
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
    _BARRIER_GAP,
    _canonical_keys,
    _opnorms,
    _rank,
    check_finite,
    eig_clusters,
    identity,
    least_psd_shift,
    matrix_sqrt_positive,
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
    return _all_invariant((identity(A.ambient) - V.projector()) @ B @ V.frame, B, tol)


def _all_invariant(R: np.ndarray, B: np.ndarray, tol: Tolerance) -> bool:
    """``invariant``'s rule on a (..., k, n, s) stack of residuals R, one
    (k, n, s) member per subspace over the (k, n, n) generating stack B: every
    member passes on Frobenius norms, or, for those that do not, on operator
    norms."""
    check_finite(R)
    bound = np.maximum(1.0, np.linalg.norm(B, axis=(-2, -1)) / np.sqrt(B.shape[-1]))
    loose = np.any(np.linalg.norm(R, axis=(-2, -1)) > tol.eq_eps * bound, axis=-1)
    if not np.any(loose):
        return True
    return bool(np.all(_opnorms(R[loose]) <= tol.eq_eps * np.maximum(1.0, _opnorms(B))))


def _invariance_residual(V: Subspace, A: AlgebraBasis) -> float:
    """max ||(I - P_V) b F|| / max(1, ||b||) over the generating stack, for the
    frame F of V: V is ``invariant`` exactly when this is at most eq_eps."""
    B = _generating_stack(A)
    R = (identity(A.ambient) - V.projector()) @ B @ V.frame
    return float(np.max(_opnorms(R) / np.maximum(1.0, _opnorms(B)), initial=0.0))


def _radical_element_margins(r: np.ndarray, A: AlgebraBasis, tol: Tolerance) -> tuple:
    """(span residual, nilpotency defect) of a radical element r of A: the distance
    of vec(r) from the span of A's frame over max(1, ||r||_F), and ||r^n|| over
    max(1, ||r||)^n.  r is in A and nilpotent when both are at most eq_eps."""
    v = r.reshape(-1)
    F = A.frame(tol)
    residual = np.linalg.norm(v - F @ (F.conj().T @ v)) / max(1.0, np.linalg.norm(v))
    size, power = _opnorms(np.stack([r, np.linalg.matrix_power(r, A.ambient)]))
    return float(residual), float(power / max(1.0, size) ** A.ambient)


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


_SPLIT_RETRIES = 40  # draws of ``_draws`` before the splitter gives up


def irreducible_decomposition(
    A: AlgebraBasis, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> list[tuple[Subspace, int]]:
    """Direct-sum decomposition of C^n into irreducible submodules with class labels.

    Read from the reduction certificate (``has_reduction_property``): a yes
    carries the class-labelled pieces of one commutant draw (``_draws``).  A
    no, or a yes with an annihilated summand, is a structural precondition
    failure.  The output order is deterministic.
    """
    verdict, cert = has_reduction_property(A, seed, tol)
    if not verdict:
        raise StructurePreconditionError("decomposition needs a semisimple algebra")
    if cert.degenerate_dim:
        raise StructurePreconditionError(
            "algebra acts degenerately; strip the annihilated complement first"
        )
    return list(cert.pieces)


def _draws(A: AlgebraBasis, C: AlgebraBasis, seed: int, tol: Tolerance):
    """The draws of the commutant splitter, lazily, at most ``_SPLIT_RETRIES``.

    For a semisimple A the eigenspaces of a generic element z of its commutant
    C are irreducible submodules (Murota, Kanno, Kojima & Kojima, Japan J.
    Indust. Appl. Math. 27, 2010).  A draw spans each eigenvalue cluster of a
    random z in C once (``_framed_pieces``), sorts the pieces by
    ``canonical_key`` and labels them (``_class_labels``).  A draw yields
    (pieces, homs, kernel): the pieces outside the kernel of the unit as
    (piece, label), their intertwiners and the kernel's frames, when every
    piece passes and is labelled, and the sum of k^2 over the classes is
    dim A (see ``has_reduction_property``); else None.  A scalar C leaves
    one piece, C^n, which counts n^2, so ``has_reduction_property`` draws
    from no scalar C but that of the zero algebra on C^1: M_n takes its
    certificate in closed form, and any other A with A' = C*I goes straight
    to the trace form.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_SPLIT_RETRIES):
        evals, vecs = np.linalg.eig(C.combine(rng.standard_normal(C.dim)))
        drawn = _framed_pieces(A, vecs, eig_clusters(evals), tol)
        labelled = drawn and _class_labels([p for p, _ in drawn], A, tol)
        if not labelled:
            yield None
            continue
        kept = [(p, lab, T) for (p, lab, T), (_, nil) in zip(labelled, drawn) if not nil]
        size = sum(k * k for k in {lab: p.dim for p, lab, _ in kept}.values())
        pieces, kernel = [(p, lab) for p, lab, _ in kept], [p.frame for p, nil in drawn if nil]
        yield (pieces, [T for *_, T in kept], kernel) if size == A.dim else None


def _framed_pieces(A: AlgebraBasis, vecs: np.ndarray, clusters: list, tol: Tolerance):
    """The pieces spanned by the eigenvector ``clusters`` of one draw, sorted by
    ``canonical_key``, as (piece, in the kernel of the unit); None when a piece
    has not its cluster's dimension or is not invariant.

    The clusters of one size are handled in stacked calls: one SVD frames
    them all, one residual (I - P_V) b F over the generating stack tests
    their invariance by ``invariant``'s rule (``_all_invariant``), and their
    keys come from the frame stack.  The one-dimensional pieces that every
    generator b maps to at most eq_eps ||b|| span the kernel of the unit
    (none when A is unital), a test free of the basis scale, read from the
    same stacked images b F.
    """
    B = _generating_stack(A)
    check_finite(vecs)
    drawn = []  # (key, piece, in the kernel)
    for size in sorted({len(cl) for cl in clusters}):
        F, sig = np.linalg.svd(
            vecs[:, [cl for cl in clusters if len(cl) == size]].swapaxes(0, 1), full_matrices=False
        )[:2]
        if np.any(sig[:, 0] <= tol.rank_eps) or np.any(sig[:, -1] <= tol.rank_eps * sig[:, 0]):
            return None
        BF = B @ F[:, None]
        if not _all_invariant(BF - F[:, None] @ (F.conj().swapaxes(1, 2)[:, None] @ BF), B, tol):
            return None
        nil = np.zeros(len(F), dtype=bool)
        if size == 1 and not A.unital:
            image = np.linalg.norm(BF, axis=(-2, -1))
            nil = np.all(image <= tol.eq_eps * _opnorms(B), axis=1)
        drawn += zip(_canonical_keys(F), map(Subspace.from_frame, F), nil.tolist())
    return [(p, nil) for _, p, nil in sorted(drawn, key=lambda t: t[0])]


def _class_labels(pieces: list, A: AlgebraBasis, tol: Tolerance) -> list | None:
    """(piece, label, T) for each of the invariant ``pieces``, in order, where T
    spans Hom(V, piece) from the first piece V of its class (I for V), or None
    when a piece has dim End != 1, or a Hom between copies is not
    one-dimensional or is singular at the rank tolerance (no isomorphism).
    dim End(V) = 1 certifies V irreducible when A is semisimple (Schur).  Each
    unlabelled piece V in turn opens a class, which takes every later
    unlabelled piece W of its dimension with Hom(V, W) != 0.  Only End(V) and
    those Homs are ranked (``_hom_ranks``), one call per class.
    """
    labels: list = [None] * len(pieces)
    classes = 0
    for d in sorted({p.dim for p in pieces}):
        at = [i for i, p in enumerate(pieces) if p.dim == d]
        ranks = _hom_ranks([pieces[i] for i in at], A, tol)
        todo = list(range(len(at)))
        while todo:
            first, *rest = todo
            end, dims, T, invertible = ranks(first, rest)
            if end != 1:
                return None
            labels[at[first]] = (classes, identity(d))
            todo = []
            for b, dim, t, inv in zip(rest, dims, T, invertible):
                if dim > 1 or (dim and not inv):
                    return None
                if dim:
                    labels[at[b]] = (classes, t)
                else:
                    todo.append(b)
            classes += 1
    return [(p, *labels[i]) for i, p in enumerate(pieces)]


def _hom_ranks(pieces: list, A: AlgebraBasis, tol: Tolerance):
    """The ranks of m invariant ``pieces`` of one dimension d, as a function
    ranks(a, rest) -> (end, dims, T, invertible): dim End of piece a, then for
    each b of the list ``rest`` dim Hom(V_a, V_b), the last right singular
    vector T of its system as a d x d map, and whether a one-dimensional Hom's
    T is nonsingular at the rank tolerance.  Only what a call asks for is
    built.

    For d = 1, End is always one-dimensional, and V, W are copies exactly when
    their characters f* b f (frames f) over the scaled generating stack
    (``_scaled_generating_stack``) differ by at most rank_eps: that distance is
    the only singular value of their 1 x 1 Sylvester system.  Their T is 1,
    and the characters and their distances are read once for all m pieces.
    For d > 1 a call makes one ``_intertwiner_systems`` call, of End(V_a)'s
    system and one per b, cut to triangular factors by one stacked QR (with
    no Q, when the systems are tall).  One SVD with no vectors ranks End(V_a),
    one stacked SVD the Homs (T is read from the factor ``intertwiners``
    reads), and one more with no vectors the T of every one-dimensional Hom.
    """
    d = pieces[0].dim
    if d == 1:
        F = np.array([p.frame for p in pieces])[:, None]
        chars = (F.conj().swapaxes(-1, -2) @ _scaled_generating_stack(A) @ F).reshape(len(F), -1)
        copies = np.linalg.norm(chars[:, None] - chars[None], axis=-1) <= tol.rank_eps

        def characters(a: int, rest: list) -> tuple:
            dims = copies[a, rest]
            return 1, dims.astype(int), np.ones((len(rest), 1, 1), dtype=complex), dims

        return characters

    def systems(a: int, rest: list) -> tuple:
        S = _intertwiner_systems(A, [pieces[a]] * (len(rest) + 1), [pieces[b] for b in [a, *rest]])
        if S.shape[1] > S.shape[2]:
            S = np.linalg.qr(S, mode="r")
        end = d * d - _rank(np.linalg.svd(S[0], compute_uv=False), tol)
        if not rest:
            return end, [], [], []
        _, sig, Vh = np.linalg.svd(S[1:], full_matrices=S.shape[1] < S.shape[2])
        dims = np.array([d * d - _rank(s, tol) for s in sig])
        T = Vh[:, -1].conj().reshape(-1, d, d)
        invertible = np.zeros(len(rest), dtype=bool)
        if np.any(dims == 1):
            ranks = np.linalg.svd(T[dims == 1], compute_uv=False)
            invertible[dims == 1] = [_rank(s, tol) == d for s in ranks]
        return end, dims, T, invertible

    return systems


def _scaled_generating_stack(A: AlgebraBasis) -> np.ndarray:
    """The generating stack (``_generating_stack``) divided by the power of two
    nearest its largest Frobenius norm; the division is exact."""
    B = _generating_stack(A)
    top = float(np.max(np.linalg.norm(B, axis=(-2, -1)), initial=0.0)) or 1.0
    return B / 2.0 ** np.round(np.log2(top))


def _intertwiner_systems(A: AlgebraBasis, sources: list, targets: list) -> np.ndarray:
    """The Sylvester systems of T(a|_V) = (a|_W)T in frame coordinates, one per pair
    (V, W) of ``sources`` and ``targets`` (each list of one dimension), stacked.

    The rows come from A's generators when it has fewer of them than basis
    elements, else from the basis (``_generating_stack``), as an intertwiner
    of the generators intertwines the whole algebra.  Both restricted stacks
    are divided by the power of two nearest the largest Frobenius norm in that
    stack (``_scaled_generating_stack``), so the rank floor applied to a system
    does not depend on the scale of A; the division is exact, so a unit-scale
    stack keeps every bit of its system.
    """
    B = _scaled_generating_stack(A)
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


def _module_projection_family(V: Subspace, comm: AlgebraBasis, tol: Tolerance):
    """The least-Frobenius module projection p0 onto V and a basis D of its free
    directions, as (p0, D) with D of shape (k, n, n); None when V admits no
    module projection.

    ``comm`` is the commutant, whose basis is orthonormal in the Frobenius
    inner product.  A module projection onto V is p = sum_i y_i C_i over that
    basis with range inside V, (I - P_V) p = 0, that fixes V pointwise,
    p F = F for the frame F of V.  These rows are all at unit scale, whatever
    the scale of the algebra's basis, and there are only dim(commutant)
    unknowns.  One SVD gives the system's rank at the rank tolerance, its
    least-norm y (the pseudo-inverse solution, kept only under
    ``solve_consistent``'s residual test) and its null space (the trailing
    right singular vectors).  As the C_i are orthonormal, the least-norm y
    gives the least-Frobenius p0, and the orthonormal null space gives
    Frobenius-orthonormal directions.
    """
    n = comm.ambient
    if V.dim in (0, n):
        return identity(n) * bool(V.dim), np.zeros((0, n, n), dtype=complex)
    C = np.reshape(comm.basis, (-1, n, n))
    M = np.concatenate([(identity(n) - V.projector()) @ C, C @ V.frame], axis=2)
    M = M.reshape(len(C), -1).T
    rhs = np.concatenate([np.zeros((n, n)), V.frame], axis=1).reshape(-1)
    U, sig, Vh = np.linalg.svd(M, full_matrices=False)
    r = _rank(sig, tol)
    y = Vh[:r].conj().T @ ((U[:, :r].conj().T @ rhs) / sig[:r])
    if np.linalg.norm(M @ y - rhs) > tol.eq_eps * max(1.0, np.linalg.norm(rhs)):
        return None
    return np.tensordot(y, C, 1), np.tensordot(Vh[r:].conj(), C, 1)


def module_complement(
    V: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> Subspace | None:
    """An invariant complement of V, or None when no module projection exists.

    The complement is the kernel of the least-Frobenius module projection
    onto V, solved in the coordinates of the commutant (see
    ``_module_projection_family``).
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
    module projection.  Both carry the commutant of A, with a
    Frobenius-orthonormal basis.  A yes also carries to every later stage the
    class-labelled irreducible pieces on which A acts nonzero, one intertwiner
    T per piece q (``homs``: b (q.frame T) = (q.frame T)(F0* b F0) over the
    frame F0 of its class's first piece, whose T is I), and the balanced piece
    basis Z~ = [Y~_1 ... Y~_r K] with its inverse (``_piece_basis``).  Y~_c
    lays the pieces of the c-th of ``blocks`` side by side, each composed with
    its intertwiner, interleaved and balanced, so that b Y~_c = Y~_c
    (x kron I_mult); K is an orthonormal frame of the kernel of the internal
    unit.  In the coordinates of Z~, A is the literal block algebra, and Z~^-1
    is the Wedderburn similarity.  For A = M_n (dim A = n^2) the certificate
    is closed-form: the commutant span(I / sqrt(n)), one piece C^n of frame
    I with hom I, blocks ((n, 1),), and Z~ = Z~^-1 = I.
    """

    verdict: bool
    blocks: tuple | None = None
    degenerate_dim: int | None = None
    radical_element: np.ndarray | None = field(default=None, repr=False)
    witness: Subspace | None = None
    radical_dim: int = field(default=0, repr=False)
    pieces: tuple = field(default=(), repr=False)
    homs: tuple = field(default=(), repr=False)
    commutant: AlgebraBasis | None = field(default=None, repr=False)
    basis: np.ndarray | None = field(default=None, repr=False)
    basis_inv: np.ndarray | None = field(default=None, repr=False)

    @property
    def unit(self) -> np.ndarray | None:
        """The internal unit e = Z~ diag(1, ..., 1, 0_d) Z~^-1."""
        if self.basis is None:
            return None
        r = len(self.basis) - self.degenerate_dim
        return self.basis[:, :r] @ self.basis_inv[:r]

    @property
    def kernel(self) -> Subspace | None:
        """The kernel of the internal unit, held by the last d columns of Z~."""
        if self.basis is None:
            return None
        return Subspace.from_frame(self.basis[:, len(self.basis) - self.degenerate_dim :])


def _piece_basis(pieces: list, homs: list, K: np.ndarray) -> tuple:
    """(blocks, Z~, Z~^-1) for the labelled ``pieces``, their intertwiners and
    the frame K of the annihilated summand, as ``ReductionCertificate``
    describes them.  The piece basis Z = [Y_1 ... Y_r K] is balanced once,
    with G_c kron H_c the Kronecker fit of Y_c* Y_c (``_kronecker_fit``):
    Z~ = Z R^-1 and Z~^-1 = R Z^-1 for R = (+) (G_c^1/2 kron H_c^1/2) (+) I_d,
    which commutes with the block algebra.  The roots are per factor, as a
    root of the whole block would spread by cond G cond H.  A block with one
    factor of size 1 has the other factor Y_c* Y_c and the root of that
    alone, with no fit.  The (1, 1) blocks, which come last before K, have
    the scalar roots ||y||, taken in one step: each column becomes y / ||y||
    and its row of Z^-1 is multiplied by ||y||.  A singular Z, or a fit that
    does not settle, is a breakdown in stage 'block-similarity'.
    """
    n = K.shape[0]
    groups = []
    for c in sorted({lab for _, lab in pieces}):
        cols = [p.frame @ T for (p, lab), T in zip(pieces, homs) if lab == c]
        groups.append((cols[0].shape[1], len(cols), np.stack(cols, axis=2).reshape(n, -1)))
    groups.sort(key=lambda g: (-g[0], -g[1]))
    Z = np.hstack([y for _, _, y in groups] + [K])
    try:
        Z_inv = np.linalg.inv(Z)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(
            "stage 'block-similarity': the pieces and the kernel of the unit are not a basis"
        ) from exc
    at = 0
    for k, mult, Y in groups:
        if k * mult == 1:
            break
        if min(k, mult) == 1:
            root = matrix_sqrt_positive(Y.conj().T @ Y)
        else:
            G, H = _kronecker_fit(Y.conj().T @ Y, k, mult)
            root = np.kron(matrix_sqrt_positive(G), matrix_sqrt_positive(H))
        Z[:, at : at + k * mult] = Y @ np.linalg.inv(root)
        Z_inv[at : at + k * mult] = root @ Z_inv[at : at + k * mult]
        at += k * mult
    ones = slice(at, n - K.shape[1])
    Y = Z[:, ones].T[:, None]
    root = np.sqrt((Y.conj() @ Y.swapaxes(1, 2)).real).reshape(-1)
    Z[:, ones] /= root
    Z_inv[ones] *= root[:, None]
    return tuple((k, mult) for k, mult, _ in groups), Z, Z_inv


# The Kronecker fit stops when its residual ||H^-1/2 Phi(H) H^-1/2 - I||_F is at
# most _KRON_FIT_TOL, or when a full Newton step no longer halves it: in the
# quadratic region that happens only at the roundoff floor, which the block's
# condition sets (up to about 1e-9 at decay 0.0005 on graph_truncation).  Over
# analysis seeds 0-19 Newton takes 2-6 steps there at decay 0.5-0.1, and at most
# 17 down to decay 0.0005 at k = 4 and 0.01 at k = 6.
_KRON_FIT_STEPS = 40
_KRON_FIT_TOL = 1e-12


def _kronecker_fit(K: np.ndarray, k: int, mult: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive G (k x k) and H (mult x mult) with G kron H fitted to a positive
    definite K of size k * mult.

    The Gaussian maximum-likelihood fit (Dutilleul, J. Statist. Comput. Simul.
    64, 1999): the fixed point H = Phi(H) of the "flip-flop" pair of weighted
    partial traces, G(H) = tr_mult(K (I kron H^-1)) / mult and
    Phi(H) = tr_k(K (G(H)^-1 kron I)) / k.  It is equivariant:
    K -> (g kron h)* K (g kron h) maps G, H to g* G g, h* H h (up to a scalar
    moved between the factors).  With mult = 1 it is (K, [1]), with k = 1
    ([1], K).

    Else the fit is found by Newton's method on the profile likelihood
    l(H) = mult log det G(H) + k log det H, which is geodesically convex and
    stationary exactly at the fixed point.  It starts at H = tr_k(K) / k; each
    step works in the coordinates in which the current H is I (K congruent by
    I kron L^-1 for H = L L*), where the gradient is -k (Phi(I) - I) and the
    Hessian on the trace-free Hermitian directions X (``_traceless_hermitian_basis``;
    the likelihood does not see the scale of H) is
    X -> k (X - dPhi(X) + (X F + F X) / 2), dPhi through d(A^-1) = -A^-1 dA A^-1.
    A step with Newton decrement above 1/4 is damped by halving until I + tX is
    positive definite and l falls by t/4 of the decrement squared; I + tX is
    then taken into L through the eigenvectors of X.  Raises
    ``NumericalDegeneracyError`` when a step leaves the positive cone
    (min(1 + t mu) <= 0 over the eigenvalues mu of X; roundoff can do it
    on an undamped step of a near-singular block), or when the fit has not
    stopped (see ``_KRON_FIT_TOL``) after ``_KRON_FIT_STEPS`` steps.
    """
    if mult == 1:
        return K, identity(1)
    if k == 1:
        return identity(1), K
    m, E = mult, _traceless_hermitian_basis(mult)
    p = len(E)
    Ev = E.reshape(p, -1)
    EE = (E[:, None] @ E[None]).swapaxes(-1, -2).reshape(p * p, -1)
    e = identity(m).reshape(-1)
    # R[(b, a)] is the (i, j) block K[a i, b j]; G^T and Phi are linear in it
    R = K.reshape(k, m, k, m).transpose(2, 0, 1, 3).reshape(k * k, m, m)
    L = np.linalg.cholesky(R[:: k + 1].sum(axis=0) / k)
    U = np.linalg.inv(L)
    R = U @ R @ U.conj().T
    last = np.inf
    for _ in range(_KRON_FIT_STEPS):
        Rm = R.reshape(k * k, m * m)
        G = (Rm @ e).reshape(k, k).T / m
        G_inv = np.linalg.inv(G)
        F = G_inv.reshape(-1) @ Rm / k - e
        r = np.linalg.norm(F)
        if r <= _KRON_FIT_TOL or r > last / 2:
            return G, L @ L.conj().T
        # M is I - dPhi plus the (X F + F X) / 2 term, which keeps it positive
        # semidefinite away from the fixed point too (Kadison-Schwarz), so that
        # x is a descent direction of l
        W = (Rm @ Ev.conj().T).T.reshape(p, k, k) @ G_inv.T
        M = (EE @ F).real.reshape(p, p) + np.eye(p)
        M -= (W.reshape(p, -1) @ W.swapaxes(1, 2).reshape(p, -1).T).real / (k * m)
        f = (F @ Ev.conj().T).real
        x = np.linalg.solve(M, f)
        mu, V = np.linalg.eigh((x @ Ev).reshape(m, m))
        decrement, t, last = k * (f @ x), 1.0, r
        if decrement > 1 / 16:
            last, start = np.inf, m * np.linalg.slogdet(G)[1]
            while t > 2**-30:
                d = 1 + t * mu
                if d.min() > 0:
                    trial = Rm @ ((V.conj() / d) @ V.T).reshape(-1) / m
                    sign, logdet = np.linalg.slogdet(trial.reshape(k, k))
                    if sign > 0 and m * logdet + k * np.log(d).sum() <= start - t * decrement / 4:
                        break
                t /= 2
        d = 1 + t * mu
        if d.min() <= 0:
            raise NumericalDegeneracyError(
                "stage 'block-similarity': Newton step left the positive cone"
            )
        d = np.sqrt(d)
        L = L @ (V * d)
        U = V.conj().T / d[:, None]
        R = U @ R @ U.conj().T
    raise NumericalDegeneracyError(
        f"stage 'block-similarity': Kronecker fit did not settle in {_KRON_FIT_STEPS} "
        f"Newton steps"
    )


def _traceless_hermitian_basis(m: int) -> np.ndarray:
    """A Frobenius-orthonormal basis of the trace-free Hermitian m x m matrices,
    shape (m^2 - 1, m, m): the generalised Gell-Mann matrices."""
    out = []
    for j, l in zip(*np.triu_indices(m, 1)):
        for z in (1, 1j):
            E = np.zeros((m, m), dtype=complex)
            E[j, l], E[l, j] = z, np.conj(z)
            out.append(E / np.sqrt(2))
    for s in range(1, m):
        out.append(np.diag(np.r_[np.ones(s), -s, np.zeros(m - s - 1)]) / np.sqrt(s * (s + 1)))
    return np.array(out, dtype=complex)


def has_reduction_property(
    A: AlgebraBasis, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, ReductionCertificate]:
    """Decide the reduction property: it holds iff A is semisimple.

    One structure pass decides it.  The commutant C of A is solved once, and
    one ``_draws`` draw from it splits C^n into invariant pieces with
    dim End = 1, copies joined by invertible one-dimensional Homs, and the
    annihilated kernel of the unit.  Then A lies in the block algebra
    (+) M_k kron I_mult (+) 0_d over the piece basis Z (see
    ``ReductionCertificate``), and dim A = sum of k^2 over the classes forces
    equality (Burnside's theorem; Lomonosov & Rosenthal, Linear Algebra Appl.
    383, 2004): the verdict is yes, with no trace form.  The count is exact:
    T_2's one piece C^2 has dim End = 1, but 4 > 3.

    Otherwise the radical, the kernel of the trace form, decides.  A nonzero
    radical is a no once its checks pass (``_radical_certificate``); a zero
    radical is a yes from the first later draw that passes, the same
    generator drawing on, also past a failed check.  Both certificates carry C.

    When dim A = n^2, A = M_n, its commutant is C*I, and the count is met by
    the one piece C^n: no commutant is solved and nothing is drawn.  C is
    span(I / sqrt(n)), and the certificate is the one piece C^n with frame,
    hom and Z~ all I, blocks ((n, 1),).

    When C = C*I and 0 < dim A < n^2 (T_n, every connected digraph but the
    complete one), A is not semisimple by Burnside's theorem, so no draw can
    certify: the trace form decides at once.  A nonzero radical is the no of
    ``_radical_certificate``, whose failed check is raised as it is; a zero
    radical contradicts the theorem and is a breakdown in stage 'radical'.
    The zero algebra on C^1 (C = M_1, dim A = 0) draws, as above.
    """
    n = A.ambient
    if A.dim == n * n:
        C = _basis_from_frame(identity(n).reshape(-1, 1) / np.sqrt(n), n, unital=True)
        return True, ReductionCertificate(
            True, ((n, 1),), 0, pieces=((Subspace.full(n), 0),), homs=(identity(n),),
            commutant=C, basis=identity(n), basis_inv=identity(n),
        )
    C = commutant(A, tol)
    if C.dim == 1 and A.dim:
        rad = radical(A, tol)
        if not rad.dim:
            raise NumericalDegeneracyError(
                "stage 'radical': the trace form reads no radical with A' = C I and "
                f"dim A = {A.dim} < {n * n}, which contradicts Burnside's theorem"
            )
        return False, _radical_certificate(rad, A, C, tol)
    draws = _draws(A, C, seed, tol)
    drawn = next(draws)
    if drawn is None:
        rad, fault = radical(A, tol), None
        if rad.dim:
            try:
                return False, _radical_certificate(rad, A, C, tol)
            except NumericalDegeneracyError as exc:
                fault = exc
        drawn = next(filter(None, draws), None)
        if drawn is None:
            raise fault or NumericalDegeneracyError("random commutant splitter failed repeatedly")
    pieces, homs, kernel = drawn
    K = np.linalg.qr(np.hstack([np.zeros((n, 0))] + kernel))[0]
    blocks, Z, Z_inv = _piece_basis(pieces, homs, K)
    held = dict(pieces=tuple(pieces), homs=tuple(homs), commutant=C, basis=Z, basis_inv=Z_inv)
    return True, ReductionCertificate(True, blocks, len(kernel), **held)


def _radical_certificate(
    rad: AlgebraBasis, A: AlgebraBasis, C: AlgebraBasis, tol: Tolerance
) -> ReductionCertificate:
    """The no-certificate of a nonzero radical.  It is reported only when its
    witness, the range of the radical, is invariant, its radical element r
    lies in A and is nilpotent, each to eq_eps, and the witness admits no
    module projection p over the commutant C (``_module_projection_family``);
    else it is a breakdown in stage 'radical', with the first failed check's
    margin (for p, the relative residual of its system)."""
    _, witness = rank_and_range(np.hstack(rad.basis), tol)
    outside, power = _radical_element_margins(rad.basis[0], A, tol)
    for fault, margin in (
        ("the witness is not invariant (residual {:.2e})", _invariance_residual(witness, A)),
        ("the radical element lies outside the algebra (residual {:.2e})", outside),
        ("the radical element is not nilpotent (||r^n|| {:.2e} relative)", power),
    ):
        if not margin <= tol.eq_eps:
            raise NumericalDegeneracyError("stage 'radical': " + fault.format(margin))
    family, F = _module_projection_family(witness, C, tol), witness.frame
    if family is not None:
        p = family[0]
        split = np.linalg.norm(np.hstack([p - witness.projector() @ p, p @ F - F]))
        raise NumericalDegeneracyError(
            "stage 'radical': the witness admits a module projection (residual "
            f"{split / max(1.0, np.linalg.norm(F)):.2e})"
        )
    return ReductionCertificate(
        False, radical_element=rad.basis[0], witness=witness, radical_dim=rad.dim, commutant=C
    )


# Relative singular-value cut of the dual point's linear system: its real and
# imaginary conditions are often parallel, and the roundoff between them (about
# 5e-15 on graph_truncation) must not be inverted.  A condition cut at this
# weight costs the dual value about as much, relative, well below _BARRIER_GAP.
_DUAL_RCOND = 1e-12


def _start_point_duals(P0: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||p0||, a lower bound on ||p0 + sum_j c_j D_j|| over all complex c) for each
    member of a (W, n, n) stack ``P0`` with (W, k, n, n) directions ``D``, zero-padded
    where the counts differ; every member needs a nonzero direction.

    Weak duality (Boyd & Vandenberghe, Convex Optimization, 2004, ch. 5): the nuclear
    norm is dual to the operator norm, so a G with <G, D_j> = 0 for every j gives
    ||P|| >= Re<G, P> / ||G||_* = Re<G, p0> / ||G||_* on the whole family.  G is
    built where a subgradient of the norm at p0 would sit: over the singular vectors
    U_c, V_c of p0's top singular cluster (the leading singular values joined by
    neighbour gaps of at most 1e-6 max(1, sigma_1), the single linkage of
    ``eig_clusters`` on sorted reals, taken for all members at once), W is the
    least-Frobenius Hermitian matrix with tr W = 1 and tr(W U_c* D_j V_c) = 0, and
    G = U_c W V_c* is projected off span(D) (a QR of the nonzero directions), so
    the bound holds whatever W is.  When p0 is least and that W is positive, the
    bound is sigma_1 to within the cluster's spread; a W that misses only lowers it.
    """
    (W, k), n = D.shape[:2], P0.shape[-1]
    # an orthonormal basis of each member's directions: its nonzero ones moved
    # first, then the columns of their QR that they span
    nonzero = D.any(axis=(2, 3))
    order = np.argsort(~nonzero, axis=1, kind="stable")
    D = np.take_along_axis(D, order[..., None, None], 1).reshape(W, k, n * n)
    Q = np.linalg.qr(D.swapaxes(1, 2))[0].swapaxes(1, 2)
    Q *= (np.arange(k) < nonzero.sum(axis=1)[:, None])[..., None]
    U, sig, Vh = np.linalg.svd(P0)
    # the top cluster of member w is its first r[w] singular pairs; every member
    # is padded with zero pairs to the largest, c
    linked = -np.diff(sig, axis=1) <= 1e-6 * np.maximum(1.0, sig[:, :1])
    r = 1 + np.cumprod(linked, axis=1).sum(axis=1)
    c = r.max()
    top = np.arange(c) < r[:, None]
    Uc = U[..., :c] * top[:, None]
    Vc = Vh[:, :c].conj().swapaxes(1, 2) * top[:, None]
    M = Uc.conj().swapaxes(1, 2)[:, None] @ Q.reshape(W, k, n, n) @ Vc[:, None]
    # tr W = 1 and tr(W M_j) = 0 for Hermitian W are the real conditions <W, X> = 1
    # for X = I_r and <W, X> = 0 for X = M_j + M_j*, i(M_j - M_j*); W is the
    # least-norm solution, a real combination of these Hermitian X
    Mh = M.conj().swapaxes(-1, -2)
    X = np.concatenate([top[:, None, :, None] * np.eye(c), M + Mh, 1j * (M - Mh)], axis=1)
    X = np.concatenate([X.real, X.imag], axis=-1).reshape(W, 2 * k + 1, -1)
    w = np.linalg.pinv(X, rcond=_DUAL_RCOND)[..., 0].reshape(W, c, 2 * c)
    G = (Uc @ (w[..., :c] + 1j * w[..., c:]) @ Vc.conj().swapaxes(1, 2)).reshape(W, -1)
    # projected twice: one pass leaves a part of span(D) at roundoff of G's size
    # before it, which is all of G when G lies nearly in span(D) (Kahan's "twice
    # is enough"; Parlett, The Symmetric Eigenvalue Problem, 1980)
    for _ in range(2):
        G -= np.einsum("wkx,wk->wx", Q, np.einsum("wkx,wx->wk", Q.conj(), G))
    nuclear = np.linalg.svd(G.reshape(W, n, n), compute_uv=False).sum(axis=1)
    inner = np.einsum("wx,wx->w", G.conj(), P0.reshape(W, -1)).real
    dual = np.full(W, -np.inf)
    np.divide(inner, nuclear, out=dual, where=nuclear > 0)
    return sig[:, 0], dual


def _spectral_norm_minimiser(P0: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Minimise ||P0[w] + sum_j c_j D[w, j]|| over complex c, for each w of a (W, n, n)
    stack ``P0`` with (W, k, n, n) directions ``D``, zero-padded where the counts differ
    (a zero direction keeps coefficient 0; a member with none is returned as it is).
    A 2-D ``P0`` with (k, n, n) ``D`` is a stack of one, and gives a 2-D result.

    A member whose start point p0 carries a dual point (``_start_point_duals``) with
    ||p0|| - dual <= _BARRIER_GAP max(1, ||p0||), 1e-11 relative, is certified least
    and returned as p0.  The others: ||X|| <= t exactly when [[tI, X], [X*, tI]] >= 0,
    affine in t, Re c and Im c, so ``least_psd_shift`` solves them as one stack, to
    barrier gap <= 1e-11 relative at exit, uncertified as no dual value is kept.
    """
    if P0.ndim == 2:
        return _spectral_norm_minimiser(P0[None], D[None])[0]
    k, free = D.shape[1], D.any(axis=(1, 2, 3))
    if free.any():
        norm, dual = _start_point_duals(P0[free], D[free])
        free[free] = norm - dual > _BARRIER_GAP * np.maximum(1.0, norm)
    if not free.any():
        return P0
    X = np.concatenate([P0[free, None], D[free], 1j * D[free]], axis=1)
    Z = np.zeros_like(X)
    F = np.block([[Z, X], [np.swapaxes(X, -1, -2).conj(), Z]])
    y = least_psd_shift(F[:, 0], F[:, 1:])
    P = P0.copy()
    P[free] += np.einsum("wk,wkij->wij", y[:, :k] + 1j * y[:, k:], D[free])
    return P


def _check_module_projections(P: np.ndarray, A: AlgebraBasis, what: str) -> None:
    """Raise a breakdown in stage 'projection-constant' unless each p of the stack
    ``P`` has ||p^2 - p|| <= 1e-6 max(1, ||p||)^2 and, for each b of A's
    generating stack, ||pb - bp|| <= 1e-6 max(1, ||p||) max(1, ||b||).

    Frobenius norms pass a p first, as ``invariant`` does: ||X|| <= ||X||_F and
    ||p|| >= ||p||_F / sqrt(n), the same for b; operator norms decide only for
    the p that this bound does not pass."""
    B = _generating_stack(A)
    squares, drifts = P @ P - P, P[:, None] @ B - B @ P[:, None]
    root_n = np.sqrt(A.ambient)
    scale = np.maximum(1.0, np.linalg.norm(P, axis=(-2, -1)) / root_n)
    size = np.maximum(1.0, np.linalg.norm(B, axis=(-2, -1)) / root_n)
    passed = np.linalg.norm(squares, axis=(-2, -1)) <= 1e-6 * scale**2
    passed &= np.all(np.linalg.norm(drifts, axis=(-2, -1)) <= 1e-6 * scale[:, None] * size, axis=1)
    if passed.all():
        return
    scale = np.maximum(1.0, _opnorms(P[~passed]))
    drift = _opnorms(drifts[~passed]) / np.maximum(1.0, _opnorms(B))
    for fault, defect in (
        ("are not idempotent", np.max(_opnorms(squares[~passed]) / scale**2, initial=0.0)),
        ("leave the commutant", np.max(drift / scale[:, None], initial=0.0)),
    ):
        if not defect <= 1e-6:
            raise NumericalDegeneracyError(
                f"stage 'projection-constant': {what} {fault} (defect {defect:.2e})"
            )


def min_norm_module_projection(
    V: Subspace,
    A: AlgebraBasis,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Module projection onto V of least operator norm.  A start point certified
    least carries a dual point with gap <= 1e-11 relative; any other result keeps
    the barrier's uncertified gap, <= 1e-11 relative at exit
    (``_spectral_norm_minimiser``).

    Minimises over the affine family p0 + d with d in the commutant, range(d)
    inside V and d vanishing on V, solved in the coordinates of the
    commutant (see ``_module_projection_family``); the result is re-verified
    to be an idempotent commuting with the algebra (``_check_module_projections``).
    """
    if not invariant(V, A, tol):
        raise InvalidWitnessError("need an invariant subspace")
    family = _module_projection_family(V, commutant(A, tol), tol)
    if family is None:
        raise NotComplementableError("subspace admits no module projection")
    p = _spectral_norm_minimiser(*family)
    _check_module_projections(p[None], A, "the least-norm projection")
    return p


def projection_constant_estimate(
    A: AlgebraBasis,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    amplification: int = 1,
) -> tuple[float, list]:
    """Lower bound for the projection constant, and its witnesses by descending norm.

    A union of whole isotypic classes (and of the kernel of the internal
    unit) has one module projection and is normed exactly: all of them up to
    12 atoms, the most balanced ``_POINT_UNIONS`` beyond.  So a multiplicity-
    free certificate with at most 12 classes and one annihilated dimension
    gets the projection constant at level 1.  A class of multiplicity above 1
    adds candidates that split it (``_projection_constant_estimate``), each
    within 1e-11 relative of its least norm: certified by a dual point at its
    start point, or with the barrier's uncertified gap at exit.

    With ``amplification=2`` the doubled module, whose classes all have
    multiplicity two, is estimated as well, covering graph submodules
    between the two copies; levels beyond 2 are out of scope.
    """
    if amplification not in (1, 2):
        raise MalformedInputError("only amplification levels 1 and 2 are supported")
    cert = has_reduction_property(A, seed, tol)[1]
    base, witnesses = _projection_constant_estimate(A, cert, seed, tol)
    if amplification == 2:
        doubled = AlgebraBasis(
            ambient=2 * A.ambient,
            basis=[np.kron(b, np.eye(2)) for b in A.basis],
            unital=A.unital,
        )
        high, wit2 = projection_constant_estimate(doubled, seed, tol)
        return max(base, high), sorted(witnesses + wit2, key=lambda t: -t[1])
    return base, witnesses


# Proper unions of whole classes normed per estimate: all 2^(r-1) - 1 that
# hold class 0 up to r = 12 atoms (0.06 s), the most balanced this many beyond.
_POINT_UNIONS = 2**11 - 1
# Complex entries per batched norm call of the class lattice (1 MiB): on C^12
# one call over all 2047 unions raised the peak RSS of `analyze` by 6 MiB.
_NORM_BATCH = 2**16
# Candidates that split a multiplicity class, solved by one minimiser call.
_FAMILY_CANDIDATES = 24


def _projection_constant_estimate(
    A: AlgebraBasis,
    cert: ReductionCertificate,
    seed: int,
    tol: Tolerance,
) -> tuple[float, list]:
    """``projection_constant_estimate`` at amplification 1, from the reduction
    certificate's balanced piece basis Z~, the similarity's own basis.

    ``_class_lattice`` norms the unions of whole classes, and
    ``_split_projections`` adds the least-norm projections of the candidates
    that split a class of multiplicity above 1.  One
    ``_check_module_projections`` call re-verifies the atom projections of the
    lattice and those results together.
    """
    if not cert.verdict:
        raise StructurePreconditionError("projection constants need the reduction property")
    bound, witnesses, atoms = _class_lattice(A, cert)
    split, subspaces = _split_projections(A, cert, seed)
    _check_module_projections(np.concatenate([atoms, split]), A, "the module projections")
    norms = _opnorms(split).tolist()
    witnesses += zip(subspaces, norms)
    return max([bound, *norms]), sorted(witnesses, key=lambda t: -t[1])


def _split_projections(A: AlgebraBasis, cert: ReductionCertificate, seed: int) -> tuple:
    """(P, subspaces): the least-norm module projections of the candidates that
    split a class of multiplicity above 1, and their submodules; none for a
    multiplicity-free certificate.

    The candidates are the canonical atoms and graph candidates of
    ``_multiplicity_atoms``, then random unions of atoms (the seed's only use
    in the estimate), at most ``_FAMILY_CANDIDATES``, a union joined before or
    of whole classes skipped.  The draw stops once every nonzero mask of the
    atoms has come, as no later draw can add a candidate.  One
    ``_closed_families`` call writes down all their module projections, and
    one ``_spectral_norm_minimiser`` call solves them all (a start point its
    dual point certifies is returned as it is, the others from the barrier).
    """
    n = A.ambient
    if all(m == 1 for _, m in cert.blocks):
        return np.zeros((0, n, n), dtype=complex), []
    Z, blocks = cert.basis, list(cert.blocks)
    starts = np.cumsum([0] + [k * m for k, m in blocks])
    columns = [
        _multiplicity_atoms(Z[:, at : at + k * m], k, m) for (k, m), at in zip(blocks, starts)
    ]
    # an entry is a block and one of its columns above: the atoms, then the
    # graph candidates
    atoms = [(c, j) for c, (_, m) in enumerate(blocks) for j in range(m)]
    graphs = [(c, j) for c, X in enumerate(columns) for j in range(blocks[c][1], len(X.T))]
    entries = atoms + graphs
    candidates: list[list] = []
    joined: set[tuple] = set()

    def union(members: tuple) -> None:
        chosen = [entries[i] for i in members]
        picked = [[j for a, j in chosen if a == c] for c in range(len(blocks))]
        whole = all(len(js) in (0, m) for js, (_, m) in zip(picked, blocks))
        if members not in joined and not whole:
            joined.add(members)
            candidates.append([X[:, js] for X, js in zip(columns, picked)])

    for i in range(len(entries)):
        union((i,))
    rng, drawn = np.random.default_rng(seed), set()
    for _ in range(2 * _FAMILY_CANDIDATES):
        if len(candidates) >= _FAMILY_CANDIDATES or len(drawn) == 2 ** len(atoms) - 1:
            break
        mask = rng.integers(0, 2, size=len(atoms))
        if mask.any():
            members = tuple(np.flatnonzero(mask).tolist())
            drawn.add(members)
            union(members)

    candidates = candidates[:_FAMILY_CANDIDATES]
    P0, D, witnesses = _closed_families(Z, cert.basis_inv, blocks, starts, candidates)
    return _spectral_norm_minimiser(P0, D), witnesses


def _multiplicity_atoms(Y: np.ndarray, k: int, m: int):
    """The canonical atoms, then the graph candidates, of a balanced block Y
    (n x km, Y* Y fitting I kron I; see ``_piece_basis``), as columns in its
    multiplicity coordinates (I_1 when m = 1).  The atoms are the eigenvectors
    b_1, ..., b_m (ascending) of the multiplicity-side factor of the second
    operator-Schmidt term of Y* Y, a singular term of its realignment (Van
    Loan & Pitsianis, 1993); the graph candidates are b_1 + w b_m for w in 1,
    i, -1, -i.  Other pieces balance to Y (g kron u) for unitaries g and u,
    and give u* times these atoms, the same submodules of C^n; only the
    relative phase of b_1 and b_m is left to roundoff.
    """
    if m == 1:
        return identity(1)
    R = (Y.conj().T @ Y).reshape(k, m, k, m).transpose(0, 2, 1, 3).reshape(k * k, m * m)
    X = np.linalg.svd(R)[2][1].reshape(m, m)
    # the terms of a Hermitian matrix are Hermitian up to one phase each
    X = X * np.exp(-0.5j * np.angle(np.trace(X @ X)))
    b = np.linalg.eigh(X + X.conj().T)[1]
    return np.hstack([b, b[:, :1] + np.array([1, 1j, -1, -1j]) * b[:, -1:]])


def _closed_families(
    Z: np.ndarray, Z_inv: np.ndarray, layout: list, starts, candidates: list
) -> tuple:
    """(P0, D, witnesses) for the submodules whose multiplicity subspaces are
    spanned by the columns of each candidate, one matrix per block of
    ``layout`` (at column ``starts`` of Z; a block with no column contributes
    0): the (W, n, n) stack of least-Frobenius module projections, a
    Frobenius-orthonormal basis of each one's free directions, zero-padded to
    (W, k, n, n) (none when its p0 already has norm 1), and the submodules.
    With F, F' orthonormal frames of V_c and its complement, the family is
    q_c = F F* plus I_k kron v u* for v in F, u in F', and
    Z (I_k kron v u*) Z^-1 is the sum over i of (Y_i v)(u* W_i), over the
    column blocks Y_i of the block's part of Z and the row blocks W_i of Z^-1.

    The candidates of one shape, their column count per block, are built
    together: one batched complete QR of their columns per block, one
    batched QR of their direction stacks and one stacked norm.
    """
    n, W = len(Z), len(candidates)
    shapes = [tuple(X.shape[1] for X in V) for V in candidates]
    P0, witnesses, free = np.zeros((W, n, n), dtype=complex), [None] * W, []
    for shape in dict.fromkeys(shapes):
        members = np.flatnonzero([s == shape for s in shapes])
        spans, dirs = [], []
        for c, ((k, m), at, s) in enumerate(zip(layout, starts, shape)):
            if not s:
                continue
            F = np.linalg.qr(np.array([candidates[w][c] for w in members]), mode="complete")[0]
            Y = Z[:, at : at + k * m].reshape(n, k, m) @ F[:, None, :, :s]
            R = F.conj().swapaxes(1, 2)[:, None] @ Z_inv[at : at + k * m].reshape(k, m, n)
            P0[members] += np.einsum("gnia,giaq->gnq", Y, R[:, :, :s])
            spans.append(Y.reshape(len(members), n, -1))
            dirs.append(
                np.einsum("gnia,gibq->gabnq", Y, R[:, :, s:]).reshape(len(members), -1, n * n)
            )
        for w, frame in zip(members, np.linalg.qr(np.concatenate(spans, axis=2))[0]):
            witnesses[w] = Subspace.from_frame(frame)
        Q = np.linalg.qr(np.concatenate(dirs, axis=1).swapaxes(1, 2))[0]
        p0 = P0[members].reshape(len(members), -1, 1)
        P0[members] = (p0 - Q @ (Q.conj().swapaxes(1, 2) @ p0)).reshape(-1, n, n)
        # no nonzero idempotent has norm below 1, so a p0 of norm 1 is least
        kept = _opnorms(P0[members]) > 1 + 1e-12
        if kept.any():
            free.append((members[kept], Q[kept].swapaxes(1, 2).reshape(-1, Q.shape[2], n, n)))
    k = max((Q.shape[1] for _, Q in free), default=0)
    D = np.zeros((W, k, n, n), dtype=complex)
    for rows, Q in free:
        D[rows, : Q.shape[1]] = Q
    return P0, D, witnesses


def _class_lattice(A: AlgebraBasis, cert: ReductionCertificate) -> tuple:
    """The largest norm of a module projection onto a union of whole atoms, its
    witnesses (the maximising union, then the atoms, by descending norm) and the
    (r, n, n) stack of atom projections, for the caller's gate.

    The atoms are the isotypic classes of the piece basis Z~, and the
    annihilated summand when d > 0; pairwise non-isomorphic, so a union U has
    exactly one module projection, P_U = Z~ diag(1_U) Z~^-1.  As
    ||I - P|| = ||P|| for an idempotent P != 0, I (Kato, Numer. Math. 2, 1960;
    Szyld, Numer. Algorithms 42, 2006), only proper unions holding atom 0 are
    formed, balanced first (|2|U| - r| ascending, then by size and by number,
    bit k of the number being atom k), at most ``_POINT_UNIONS`` of them: all
    2^(r-1) - 1 up to r = 12.  Batched ``_opnorms`` calls take their norms;
    the bound is max(1, their maximum), the whole space giving 1.  The atoms
    are framed by one stacked QR per atom size.

    The r atom projections must sum to I to 1e-6.
    """
    n, Z, Z_inv, d = A.ambient, cert.basis, cert.basis_inv, cert.degenerate_dim
    sizes = [k * m for k, m in cert.blocks] + [d] * bool(d)
    r = len(sizes)
    owner = np.repeat(np.arange(r), sizes)
    P = (Z * (owner == np.arange(r)[:, None])[:, None]) @ Z_inv
    defect = operator_norm(P.sum(axis=0) - identity(n))
    if not defect <= 1e-6:
        raise NumericalDegeneracyError(
            f"stage 'projection-constant': the atom projections do not sum to I "
            f"(defect {defect:.2e})"
        )

    frames: list = [None] * r
    for s in set(sizes):
        same = [a for a in range(r) if sizes[a] == s]
        for a, q in zip(same, np.linalg.qr(np.array([Z[:, owner == a] for a in same]))[0]):
            frames[a] = q
    atoms = [Subspace.from_frame(q) for q in frames]
    witnesses = list(zip(atoms, _opnorms(P).tolist()))
    if r == 1:
        return 1.0, witnesses, P
    # the atoms beside atom 0 of each union, 1 + s of them, bit j of the
    # number being atom j + 1
    counts = sorted(range(r - 1), key=lambda s: abs(2 * s + 2 - r))
    others = itertools.chain.from_iterable(_by_number(r - 1, s) for s in counts)
    unions = np.zeros((min(_POINT_UNIONS, 2 ** (r - 1) - 1), r), dtype=bool)
    unions[:, 0] = True
    for row, c in zip(unions, others):
        row[[j + 1 for j in c]] = True
    cols = unions[:, owner]
    rows = max(1, _NORM_BATCH // n**2)
    norms = np.concatenate(
        [_opnorms((Z * cols[i : i + rows, None]) @ Z_inv) for i in range(0, len(cols), rows)]
    )
    best = int(np.argmax(norms))
    if unions[best].sum() > 1:
        union = Subspace.from_frame(np.linalg.qr(Z[:, cols[best]])[0])
        witnesses.insert(0, (union, float(norms[best])))
    return max(1.0, float(norms[best])), sorted(witnesses, key=lambda t: -t[1]), P


def _by_number(n: int, k: int):
    """The k-subsets of range(n), lazily, in ascending order of sum(2^j)."""
    if not k:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _by_number(top, k - 1):
            yield rest + (top,)


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
