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
    eig_clusters,
    identity,
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


def invariant(V: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether AV is contained in V at the comparison tolerance."""
    if V.ambient != A.ambient:
        raise MalformedInputError("subspace and algebra live in different spaces")
    if V.dim == 0:
        return True
    Q = identity(A.ambient) - V.projector()
    for b in A.basis:
        if operator_norm(Q @ b @ V.frame) > tol.eq_eps * max(1.0, operator_norm(b)):
            return False
    return True


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
    """Basis of all maps T with T(a|_V) = (a|_W)T, in frame coordinates."""
    for S in (V, W):
        if not invariant(S, A, tol):
            raise InvalidWitnessError("intertwiners need invariant subspaces")
    if V.dim == 0 or W.dim == 0:
        return IntertwinerSpace(source=V, target=W, basis=[])

    def restricted(S: Subspace) -> np.ndarray:
        return np.reshape([S.frame.conj().T @ b @ S.frame for b in A.basis], (-1, S.dim, S.dim))

    N = null_space(sylvester_system(restricted(W), restricted(V)), tol=tol)
    basis = [N[:, j].reshape(W.dim, V.dim) for j in range(N.shape[1])]
    return IntertwinerSpace(source=V, target=W, basis=basis)


def _module_projection_system(V: Subspace, A: AlgebraBasis):
    """Constraint blocks for projections in the commutant with range V.

    Returns (H, E, rhs): H x = 0 are the homogeneous constraints (commutation
    and range containment), E x = rhs pins the projection to fix V pointwise.
    """
    n = A.ambient
    I = identity(n)
    # the range rows are at unit scale; bring the basis there exactly, as ``radical`` does
    top = max((float(np.linalg.norm(b)) for b in A.basis), default=1.0)
    B = np.reshape(A.basis, (-1, n, n)) / 2.0 ** np.round(np.log2(top))
    H = np.vstack([sylvester_system(B, B), np.kron(I - V.projector(), I)])
    E = np.kron(I, V.frame.T)
    rhs = _vec(V.frame)
    return H, E, rhs


def _feasible_module_projection(
    V: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray | None:
    """A module projection onto V, or None when the affine system is infeasible."""
    n = A.ambient
    if V.dim == 0:
        return np.zeros((n, n), dtype=complex)
    if V.dim == n:
        return identity(n)
    H, E, rhs = _module_projection_system(V, A)
    b = np.concatenate([np.zeros(H.shape[0], dtype=complex), rhs])
    x = solve_consistent(np.vstack([H, E]), b, tol)
    return None if x is None else _unvec(x, n)


def module_complement(
    V: Subspace, A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL
) -> Subspace | None:
    """An invariant complement of V, or None when no module projection exists."""
    if not invariant(V, A, tol):
        raise InvalidWitnessError("module complements need an invariant subspace")
    p = _feasible_module_projection(V, A, tol)
    if p is None:
        return None
    _, ker = rank_and_range(identity(A.ambient) - p, tol)
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


def _spectral_norm_minimiser(
    P0: np.ndarray,
    D: np.ndarray,
    iters: int = 500,
    rel_stop: float = 1e-8,
) -> np.ndarray:
    """Minimise ||P0 + sum_j c_j D_j|| over complex coefficients c.

    ``D`` stacks the k directions as a (k, n, n) array.  One subgradient
    descent from c = 0: with (u, v) the top singular pair of the iterate, the
    subgradient in c_j is conj(u* D_j v).  The problem is convex, so a single
    descent suffices.  Steps are Polyak steps towards a fraction gamma below
    the best value so far, never below 1, the least norm of a nonzero
    idempotent.  gamma halves after 25 steps without progress and whenever
    the iterate already meets the target; the descent ends when gamma falls
    below 1e-12 or after ``iters`` steps.  The best iterate is returned, so
    its norm bounds the minimum from above.
    """
    if len(D) == 0:
        return P0
    c = c_best = np.zeros(len(D), dtype=complex)
    f_best = f_stall = np.inf
    gamma, stall = 0.25, 0
    for _ in range(iters):
        U, s, Vh = np.linalg.svd(P0 + np.tensordot(c, D, 1))
        f = float(s[0])
        g = np.einsum("i,kij,j->k", U[:, 0].conj(), D, Vh[0].conj()).conj()
        if f < f_best * (1 - rel_stop):
            f_best, c_best = f, c
        if f < f_stall * (1 - 1e-10):
            f_stall, stall = f, 0
        else:
            stall += 1
            if stall >= 25:
                gamma *= 0.5
                stall = 0
                if gamma < 1e-12:
                    break
        target = max(1.0 - 1e-12, f_best * (1 - gamma))
        gnorm2 = float(np.vdot(g, g).real)
        if gnorm2 < 1e-24 or f <= target:
            gamma *= 0.5
            if gamma < 1e-12:
                break
            continue
        c = c - ((f - target) / gnorm2) * g
    return P0 + np.tensordot(c_best, D, 1)


def min_norm_module_projection(
    V: Subspace,
    A: AlgebraBasis,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Module projection onto V of (approximately) minimal operator norm.

    Minimises over the affine family p0 + d with d in the commutant, range(d)
    inside V and d vanishing on V; the result is re-verified to be an
    idempotent commuting with the algebra, with range V.
    """
    if not invariant(V, A, tol):
        raise InvalidWitnessError("need an invariant subspace")
    p0 = _feasible_module_projection(V, A, tol)
    if p0 is None:
        raise NotComplementableError("subspace admits no module projection")
    if V.dim in (0, A.ambient):
        return p0
    H, E, _ = _module_projection_system(V, A)
    N = null_space(np.vstack([H, E]), tol=tol)
    n = A.ambient
    p = _spectral_norm_minimiser(p0, N.T.reshape(N.shape[1], n, n))

    scale = max(1.0, operator_norm(p))
    if operator_norm(p @ p - p) > 1e-6 * scale**2:
        raise NumericalDegeneracyError("minimiser drifted off the idempotent manifold")
    for b in A.basis:
        if operator_norm(p @ b - b @ p) > 1e-6 * scale * max(1.0, operator_norm(b)):
            raise NumericalDegeneracyError("minimiser drifted out of the commutant")
    return p


def _graph_subspace(
    Vi: Subspace, Vj: Subspace, T: np.ndarray, lam: complex, tol: Tolerance
) -> Subspace:
    cols = Vi.frame + lam * (Vj.frame @ T)
    return Subspace.from_spanning(cols, ambient=Vi.ambient, tol=tol)


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
    number is a lower bound, never claimed as the supremum.  It is not
    certified: each minimum comes from a primal descent and estimates the
    true minimum from above, with no dual certificate, so the bound can
    overstate by the descent's remaining gap.

    With ``amplification=2`` the doubled module is sampled as well, covering
    graph submodules between the two copies; levels beyond 2 are out of scope.
    """
    if amplification not in (1, 2):
        raise MalformedInputError("only amplification levels 1 and 2 are supported")
    cert = has_reduction_property(A, seed, tol)[1]
    if amplification == 2:
        doubled = AlgebraBasis(
            ambient=2 * A.ambient,
            basis=[np.kron(b, np.eye(2)) for b in A.basis],
            unital=A.unital,
        )
        base, wit1 = _projection_constant_estimate(A, cert, samples, seed, tol)
        high, wit2 = projection_constant_estimate(doubled, samples, seed, tol)
        witnesses = sorted(wit1 + wit2, key=lambda t: -t[1])
        return max(base, high), witnesses
    return _projection_constant_estimate(A, cert, samples, seed, tol)


def _projection_constant_estimate(
    A: AlgebraBasis, cert: ReductionCertificate, samples: int, seed: int, tol: Tolerance
) -> tuple[float, list]:
    """``projection_constant_estimate`` at amplification 1, given the reduction certificate."""
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
                    add(_graph_subspace(group[i], group[j], T, lam, tol))
    if cert.degenerate_dim:
        # the annihilated summand (everything, for a zero unit) is the kernel
        # of the internal unit, which is skew against its range in general
        _, ker_e = rank_and_range(identity(n) - cert.unit, tol)
        add(ker_e)
    # random unions of pieces (bounded number of draws; duplicates are dropped)
    if len(cert.pieces) > 1:
        for _ in range(2 * samples):
            if len(candidates) >= samples:
                break
            mask = rng.integers(0, 2, size=len(cert.pieces))
            if not mask.any():
                continue
            s = Subspace.zero(n)
            for flag, (p, _) in zip(mask, cert.pieces):
                if flag:
                    s = s.join(p, tol)
            add(s)
    add(Subspace.full(n))

    candidates = candidates[: max(samples, 1)]
    witnesses = []
    best = 0.0
    for s in candidates:
        p = min_norm_module_projection(s, A, tol=tol)
        nrm = operator_norm(p)
        witnesses.append((s, nrm))
        best = max(best, nrm)
    witnesses.sort(key=lambda t: -t[1])
    return best, witnesses


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
