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
    _unvec,
    _vec,
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

    def operator_norm_of_map(self) -> float:
        """max ||theta(b)|| over a Hilbert-Schmidt-normalised basis (crude scale)."""
        out = 0.0
        for b, im in zip(self.source.basis, self.images):
            nb = float(np.linalg.norm(b))
            if nb > 0:
                out = max(out, operator_norm(im) / nb)
        return out


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


def _opnorms(X: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices held in the last two axes."""
    return np.linalg.norm(X, 2, axis=(-2, -1))


def invariant(V: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether AV is contained in V at the comparison tolerance.

    The whole basis is tested at once: one stacked product (I - P_V) b F over
    the basis b, for the frame F of V, and one batched operator norm.
    """
    if V.ambient != A.ambient:
        raise MalformedInputError("subspace and algebra live in different spaces")
    if V.dim == 0:
        return True
    B = np.reshape(A.basis, (-1, A.ambient, A.ambient))
    R = (identity(A.ambient) - V.projector()) @ B @ V.frame
    check_finite(R)
    return bool(np.all(_opnorms(R) <= tol.eq_eps * np.maximum(1.0, _opnorms(B))))


def restriction_to_invariant(
    A: AlgebraBasis, V: Subspace, tol: Tolerance = DEFAULT_TOL
) -> AlgebraBasis:
    """The algebra of restricted actions on an invariant subspace, in frame coordinates."""
    F = V.frame
    restricted = np.reshape([_vec(F.conj().T @ b @ F) for b in A.basis], (A.dim, V.dim**2))
    frame = Subspace.from_spanning(restricted.T, ambient=V.dim**2, tol=tol).frame
    mats = [_unvec(frame[:, j], V.dim) for j in range(frame.shape[1])]
    unital = AlgebraBasis(V.dim, mats, unital=False).contains_identity(tol) if mats else False
    return AlgebraBasis(ambient=V.dim, basis=mats, unital=unital)


def algebra_identity_element(
    A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray | None:
    """The internal identity of the algebra (two-sided unit of the span), if any."""
    if A.dim == 0:
        return None
    cols, rhs = [], []
    for i, bi in enumerate(A.basis):
        cols.append(
            np.concatenate(
                [np.concatenate([_vec(bi @ bj), _vec(bj @ bi)]) for bj in A.basis]
            )
        )
    for bj in A.basis:
        rhs.append(np.concatenate([_vec(bj), _vec(bj)]))
    coeff = solve_consistent(np.column_stack(cols), np.concatenate(rhs), tol)
    return None if coeff is None else A.combine(coeff)


def irreducible_decomposition(
    A: AlgebraBasis,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    max_retries: int = 40,
) -> list[tuple[Subspace, int]]:
    """Direct-sum decomposition of C^n into irreducible submodules with class labels.

    Splits along eigenspaces of random commutant elements and recurses;
    distinct irreducibles receive the same label exactly when a nonzero
    intertwiner exists between them.  The output order is deterministic.
    """
    n = A.ambient
    if radical(A, tol).dim != 0:
        raise StructurePreconditionError("decomposition needs a semisimple algebra")
    if A.dim == 0:
        raise StructurePreconditionError("the zero algebra acts degenerately")
    r, _ = rank_and_range(np.hstack(A.basis), tol)
    if r != n:
        raise StructurePreconditionError(
            "algebra acts degenerately; strip the annihilated complement first"
        )
    rng = np.random.default_rng(seed)

    def split(V: Subspace) -> list[Subspace]:
        R = restriction_to_invariant(A, V, tol)
        C = commutant(R, tol)
        if C.dim == 1:
            return [V]
        for _ in range(max_retries):
            z = C.combine(rng.standard_normal(C.dim))
            evals, vecs = np.linalg.eig(z)
            clusters = eig_clusters(evals)
            if len(clusters) < 2:
                continue
            pieces = []
            ok = True
            for cl in clusters:
                local = Subspace.from_spanning(vecs[:, cl], ambient=V.dim, tol=tol)
                lifted = Subspace.from_spanning(
                    V.frame @ local.frame, ambient=n, tol=tol
                )
                if local.dim != len(cl) or not invariant(lifted, A, tol):
                    ok = False
                    break
                pieces.append(lifted)
            if ok and sum(p.dim for p in pieces) == V.dim:
                out = []
                for p in pieces:
                    out.extend(split(p))
                return out
        raise NumericalDegeneracyError("random commutant splitter failed repeatedly")

    pieces = split(Subspace.full(n))
    pieces.sort(key=lambda s: s.canonical_key())

    labels = [-1] * len(pieces)
    next_label = 0
    for i, p in enumerate(pieces):
        if labels[i] >= 0:
            continue
        labels[i] = next_label
        for j in range(i + 1, len(pieces)):
            if labels[j] < 0 and pieces[j].dim == p.dim:
                if intertwiners(p, pieces[j], A, tol).dim > 0:
                    labels[j] = next_label
        next_label += 1
    return list(zip(pieces, labels))


def intertwiners(
    V: Subspace, W: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> IntertwinerSpace:
    """Basis of all maps T with T(a|_V) = (a|_W)T, in frame coordinates.

    Both restricted stacks are divided by the power of two nearest the largest
    Frobenius norm of the basis, so the rank floor of ``null_space`` does not
    depend on the basis scale; the division is exact, so a unit-scale basis
    keeps every bit of its system.
    """
    for S in (V, W):
        if not invariant(S, A, tol):
            raise InvalidWitnessError("intertwiners need invariant subspaces")
    if V.dim == 0 or W.dim == 0:
        return IntertwinerSpace(source=V, target=W, basis=[])
    top = max((float(np.linalg.norm(b)) for b in A.basis), default=1.0) or 1.0
    scale = 2.0 ** np.round(np.log2(top))

    def restricted(S: Subspace) -> np.ndarray:
        B = [S.frame.conj().T @ b @ S.frame for b in A.basis]
        return np.reshape(B, (-1, S.dim, S.dim)) / scale

    N = null_space(sylvester_system(restricted(W), restricted(V)), tol=tol)
    basis = [N[:, j].reshape(W.dim, V.dim) for j in range(N.shape[1])]
    return IntertwinerSpace(source=V, target=W, basis=basis)


def _module_projection_family(V: Subspace, comm: AlgebraBasis, tol: Tolerance):
    """The least-Frobenius module projection onto V and a basis of its free directions.

    ``comm`` is the commutant, whose basis is orthonormal in the Frobenius
    inner product.  A module projection onto V is p = sum_i y_i C_i over that
    basis with range inside V, (I - P_V) p = 0, that fixes V pointwise,
    p F = F for the frame F of V.  These rows are all at unit scale, whatever
    the scale of the algebra's basis, and there are only dim(commutant)
    unknowns.  As the C_i are orthonormal, the least-norm y gives the
    least-Frobenius p0, and an orthonormal null space gives Frobenius-
    orthonormal directions.  Returns (p0, D) with D a (k, n, n) stack, or
    None when no module projection exists.
    """
    n = V.ambient
    if V.dim in (0, n):
        p0 = np.zeros((n, n), dtype=complex) if V.dim == 0 else identity(n)
        return p0, np.zeros((0, n, n), dtype=complex)
    C = np.reshape(comm.basis, (-1, n, n))
    M = np.vstack(
        [
            ((identity(n) - V.projector()) @ C).reshape(len(C), -1).T,
            (C @ V.frame).reshape(len(C), -1).T,
        ]
    )
    rhs = np.concatenate([np.zeros(n * n, dtype=complex), _vec(V.frame)])
    y = solve_consistent(M, rhs, tol)
    if y is None:
        return None
    return np.tensordot(y, C, 1), np.tensordot(null_space(M, tol=tol).T, C, 1)


def module_complement(
    V: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> Subspace | None:
    """An invariant complement of V, or None when no module projection exists.

    The complement is the kernel of the least-Frobenius module projection
    onto V, solved in the coordinates of the commutant.
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
    module complement.  A yes also keeps, for the later stages, the internal
    unit and the class-labelled irreducible pieces of its range, lifted to C^n.
    """

    verdict: bool
    blocks: tuple | None = None
    degenerate_dim: int | None = None
    radical_element: np.ndarray | None = field(default=None, repr=False)
    witness: Subspace | None = None
    radical_dim: int = field(default=0, repr=False)
    unit: np.ndarray | None = field(default=None, repr=False)
    pieces: tuple = field(default=(), repr=False)


def has_reduction_property(
    A: AlgebraBasis, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, ReductionCertificate]:
    """Decide the reduction property algebraically: it holds iff the radical is zero.

    The invariant-subspace family of a matrix algebra is generally a
    continuum, so the decision is made through semisimplicity; sampled
    complement searches cross-check it in the test suite.
    """
    n = A.ambient
    rad = radical(A, tol)
    if rad.dim:
        _, witness = rank_and_range(np.hstack(rad.basis), tol)
        return False, ReductionCertificate(
            False, radical_element=rad.basis[0], witness=witness, radical_dim=rad.dim
        )
    e = algebra_identity_element(A, tol) if A.dim else np.zeros((n, n), dtype=complex)
    if e is None:
        raise NumericalDegeneracyError("semisimple algebra has no computable unit")
    rank_e, range_e = rank_and_range(e, tol)
    pieces = []
    if rank_e:
        B = restriction_to_invariant(A, range_e, tol)
        pieces = [
            (Subspace.from_spanning(range_e.frame @ p.frame, ambient=n, tol=tol), lab)
            for p, lab in irreducible_decomposition(B, seed=seed, tol=tol)
        ]
    labels = [lab for _, lab in pieces]
    blocks = sorted({lab: (p.dim, labels.count(lab)) for p, lab in pieces}.values(), reverse=True)
    return True, ReductionCertificate(
        True, tuple(blocks), n - rank_e, unit=e, pieces=tuple(pieces)
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

    Each subspace gets its own commutant-coordinate system (see
    ``_module_projection_family``); one ``_spectral_norm_minimiser`` call solves
    every subspace V with 0 < dim V < n (barrier gap <= 1e-11 relative at exit; still
    reported uncertified because no dual value is reported), and one batched check
    re-verifies each result there as an idempotent commuting with the algebra.
    """
    n = A.ambient
    families = [_module_projection_family(V, comm, tol) for V in subspaces]
    if any(f is None for f in families):
        raise NotComplementableError("subspace admits no module projection")
    P = np.array([p0 for p0, _ in families])
    free = [i for i, V in enumerate(subspaces) if 0 < V.dim < n]
    if not free:
        return P
    D = np.zeros((len(free), max(len(families[i][1]) for i in free), n, n), dtype=complex)
    for row, i in enumerate(free):
        D[row, : len(families[i][1])] = families[i][1]
    p = _spectral_norm_minimiser(P[free], D)

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
    commutant (see ``_module_projection_family``); the result is re-verified
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
    """Lower bound for the projection constant, by sampling submodules.

    Samples irreducible pieces, isotypic sums, and graph subspaces built from
    intertwiners between isomorphic irreducible blocks, and maximises the
    minimum projection norm.  The zero submodule is excluded; the reported
    number is a lower bound, never claimed as the supremum.  Each minimum has
    barrier gap <= 1e-11 relative at exit; the bound is still reported
    uncertified because no dual value is reported.

    With ``amplification=2`` the doubled module is sampled as well, covering
    graph submodules between the two copies; levels beyond 2 are out of scope.
    """
    if amplification not in (1, 2):
        raise MalformedInputError("only amplification levels 1 and 2 are supported")
    cert = has_reduction_property(A, seed, tol)[1]
    comm = commutant(A, tol)
    if amplification == 2:
        doubled = AlgebraBasis(
            ambient=2 * A.ambient,
            basis=[np.kron(b, np.eye(2)) for b in A.basis],
            unital=A.unital,
        )
        base, wit1 = _projection_constant_estimate(A, cert, comm, samples, seed, tol)
        high, wit2 = projection_constant_estimate(doubled, samples, seed, tol)
        witnesses = sorted(wit1 + wit2, key=lambda t: -t[1])
        return max(base, high), witnesses
    return _projection_constant_estimate(A, cert, comm, samples, seed, tol)


def _projection_constant_estimate(
    A: AlgebraBasis,
    cert: ReductionCertificate,
    comm: AlgebraBasis,
    samples: int,
    seed: int,
    tol: Tolerance,
) -> tuple[float, list]:
    """``projection_constant_estimate`` at amplification 1, given the reduction
    certificate and the commutant ``comm`` of A.  One ``_min_norm_module_projections``
    pass solves every candidate, to a barrier gap <= 1e-11 relative at exit;
    still reported uncertified because no dual value is reported.
    """
    if not cert.verdict:
        raise StructurePreconditionError("projection constants need the reduction property")
    n = A.ambient
    rng = np.random.default_rng(seed)

    candidates: list[Subspace] = []

    def add(s: Subspace) -> None:
        if s.dim == 0:
            return
        if not invariant(s, A, tol):
            return
        if any(s.equals(t, tol) for t in candidates):
            return
        candidates.append(s)

    for p, _ in cert.pieces:
        add(p)
    by_label: dict[int, list[Subspace]] = {}
    for p, lab in cert.pieces:
        by_label.setdefault(lab, []).append(p)
    for group in by_label.values():
        if len(group) > 1:
            iso = group[0]
            for q in group[1:]:
                iso = iso.join(q, tol)
            add(iso)
    # graph subspaces between isomorphic pieces
    for group in by_label.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                tw = intertwiners(group[i], group[j], A, tol)
                if tw.dim == 0:
                    continue
                T = tw.basis[0]
                T = T / max(operator_norm(T), 1e-30)
                for lam in (1.0, *(rng.uniform(0.3, 3.0, size=3))):
                    cols = group[i].frame + lam * (group[j].frame @ T)
                    add(Subspace.from_spanning(cols, ambient=n, tol=tol))
    if cert.degenerate_dim:
        # the annihilated summand (everything, for a zero unit) is the kernel
        # of the internal unit, which is skew against its range in general
        _, ker_e = rank_and_range(identity(n) - cert.unit, tol)
        add(ker_e)
    # random unions of pieces (bounded number of draws; a mask drawn before
    # gives the same join, so it is skipped before the join is built)
    if len(cert.pieces) > 1:
        drawn = set()
        for _ in range(2 * samples):
            if len(candidates) >= samples:
                break
            mask = rng.integers(0, 2, size=len(cert.pieces))
            key = mask.tobytes()
            if not mask.any() or key in drawn:
                continue
            drawn.add(key)
            s = Subspace.zero(n)
            for flag, (p, _) in zip(mask, cert.pieces):
                if flag:
                    s = s.join(p, tol)
            add(s)
    add(Subspace.full(n))

    candidates = candidates[: max(samples, 1)]
    norms = _opnorms(_min_norm_module_projections(candidates, A, comm, tol)).tolist()
    witnesses = sorted(zip(candidates, norms), key=lambda t: -t[1])
    return max(norms), witnesses


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
        if any(s.equals(t, tol) for t in out):
            return
        out.append(s)

    def cyclic(xi: np.ndarray) -> Subspace:
        S = Subspace.from_spanning(xi[:, None], ambient=n, tol=tol)
        while True:
            cols = [S.frame]
            for b in A.basis:
                cols.append(b @ S.frame)
            S2 = Subspace.from_spanning(np.hstack(cols), ambient=n, tol=tol)
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
    return None if x is None else _unvec(x, m)


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
