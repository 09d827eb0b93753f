"""Structure of a concrete subalgebra A of M_n.

Span closure from generators, commutants, the Jacobson radical via the trace
bilinear form, centres and minimal central idempotents, and the alg/lat pair
of maps between subspace lattices and algebras.

Bases are re-orthonormalised in vectorised form (C^(n^2)), so span-equality
tests reduce to frame comparison; a basis built from an orthonormal frame
keeps that frame.  A generated algebra also keeps its generators, and the
commutant and invariance tests work from them: A' = {g}' and AV in V iff
gV in V for each generator g.  Row-major vectorisation is used throughout:
vec(AXB) = (A kron B^T) vec(X).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidWitnessError,
    MalformedInputError,
    StructurePreconditionError,
)
from .linalg import (
    Subspace,
    _left_factor,
    as_matrix,
    identity,
    null_space,
    operator_norm,
    rank_and_range,
    sylvester_system,
)
from .tolerance import DEFAULT_TOL, Tolerance

__all__ = [
    "AlgebraBasis",
    "SubspaceLattice",
    "generate_algebra",
    "commutant",
    "bicommutant",
    "radical",
    "center_and_minimal_central_idempotents",
    "alg_of_lattice",
    "is_reflexive",
    "span_equal",
]


def _vec(M: np.ndarray) -> np.ndarray:
    return M.reshape(-1)


@dataclass(frozen=True)
class AlgebraBasis:
    """A linearly independent spanning set for a multiplicatively closed span.

    ``generators``, when given, generate the algebra (with the identity, for a
    unital one); left empty, the basis itself is the generating set.  They are
    neither compared nor shown.  A basis made from an orthonormal frame
    (``_basis_from_frame``) holds that frame, and ``frame`` returns it.
    """

    ambient: int
    basis: tuple = field(repr=False)
    unital: bool = False
    generators: tuple = field(default=(), repr=False, compare=False)
    _frame: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "generators", tuple(self.generators))
        for b in self.basis + self.generators:
            if b.shape != (self.ambient, self.ambient):
                raise MalformedInputError("basis elements must be square of the ambient size")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def frame(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal frame of the vectorised span, shape (n^2, dim): the held
        frame if there is one, else the left singular factor of the basis."""
        if self._frame is not None:
            return self._frame
        stacked = np.reshape(self.basis, (self.dim, self.ambient**2)).T
        return Subspace.from_spanning(stacked, ambient=self.ambient**2, tol=tol).frame

    def in_span(self, M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
        return _frame_spans(self.frame(tol), np.asarray(M, dtype=complex), tol)

    def coordinates(self, M: np.ndarray) -> np.ndarray:
        """Coefficients of ``M`` in this basis (least squares; exact on the span)."""
        if not self.basis:
            raise MalformedInputError("cannot take coordinates in an empty basis")
        B = np.column_stack([_vec(b) for b in self.basis])
        coeff, *_ = np.linalg.lstsq(B, _vec(np.asarray(M, dtype=complex)), rcond=None)
        return coeff

    def combine(self, coeff: np.ndarray) -> np.ndarray:
        out = np.zeros((self.ambient, self.ambient), dtype=complex)
        for c, b in zip(coeff, self.basis):
            out += c * b
        return out

    def contains_identity(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.in_span(identity(self.ambient), tol)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Check linear independence and multiplicative closure of the span, and
        that the generators lie in it."""
        if not all(self.in_span(g, tol) for g in self.generators):
            raise MalformedInputError("a generator lies outside the span")
        if not self.basis:
            return
        B = np.reshape(self.basis, (self.dim, self.ambient, self.ambient))
        sig = np.linalg.svd(B.reshape(self.dim, -1).T, compute_uv=False)
        if sig[-1] <= tol.rank_eps * sig[0]:
            raise MalformedInputError("basis is linearly dependent at the rank tolerance")
        if len(_products_outside(self.frame(tol), B, tol.eq_eps)):
            raise MalformedInputError("span is not closed under multiplication")
        if self.unital and not self.contains_identity(tol):
            raise MalformedInputError("unital flag set but identity is not in the span")


def _frame_spans(F: np.ndarray, M: np.ndarray, tol: Tolerance) -> bool:
    """Whether M lies, to eq_eps * max(1, ||M||_F), in the span of the orthonormal
    frame F of vectorised matrices."""
    v = _vec(M)
    resid = v - F @ (F.conj().T @ v)
    return float(np.linalg.norm(resid)) <= tol.eq_eps * max(1.0, float(np.linalg.norm(v)))


def span_equal(A: AlgebraBasis, B: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ||P_A - P_B|| <= eps for the projections onto the two spans.  At equal
    ranks that gap is ||R|| for R = (I - P_A) F_B, over the frame F_B of B, so it is
    read from the top eigenvalue of the rank x rank matrix R* R, with no SVD."""
    if A.ambient != B.ambient or A.dim != B.dim:
        return False
    FA, FB = A.frame(tol), B.frame(tol)
    if FA.shape[1] != FB.shape[1]:
        return False
    if not FB.shape[1]:
        return True
    R = FB - FA @ (FA.conj().T @ FB)
    return bool(np.sqrt(max(np.linalg.eigvalsh(R.conj().T @ R)[-1], 0.0)) <= tol.eq_eps)


def _products_outside(F: np.ndarray, M: np.ndarray, eps: float) -> np.ndarray:
    """The products a @ b over a, b in the (d, n, n) stack ``M`` whose distance from
    the span of the orthonormal frame ``F`` exceeds eps * max(1, ||ab||), as
    vectorised rows in a-major order: one batched product and one residual per a."""
    out, Fc = [np.zeros((0, F.shape[0]), dtype=complex)], F.conj()
    for a in M:
        P = (a @ M).reshape(len(M), -1)
        resid = np.linalg.norm(P - (P @ Fc) @ F.T, axis=1)
        out.append(P[resid > eps * np.maximum(1.0, np.linalg.norm(P, axis=1))])
    return np.concatenate(out)


def _basis_from_frame(F: np.ndarray, n: int, unital: bool, generators=()) -> AlgebraBasis:
    """The algebra whose basis is the orthonormal (n^2, d) frame F; it holds F."""
    basis = list(F.T.reshape(-1, n, n))
    A = AlgebraBasis(ambient=n, basis=basis, unital=unital, generators=generators)
    object.__setattr__(A, "_frame", F)
    return A


def _generating_stack(A: AlgebraBasis) -> np.ndarray:
    """A (k, n, n) stack whose commutant and invariant subspaces are A's: the
    generators when there are some and fewer than the basis elements, else the basis."""
    mats = A.generators if 0 < len(A.generators) < A.dim else A.basis
    return np.reshape(mats, (-1, A.ambient, A.ambient))


def _generator_products(G: np.ndarray, N: np.ndarray) -> np.ndarray:
    """The products g N_j over the (k, n, n) stack G and the columns N_j of the
    (n^2, m) frame N, vectorised, as the n^2 x km columns of one array."""
    n = G.shape[-1]
    return (G[:, None] @ N.T.reshape(-1, n, n)).reshape(-1, n * n).T


def generate_algebra(
    generators,
    unital: bool = False,
    ambient: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> AlgebraBasis:
    """Basis of the smallest subalgebra containing the generators.

    Generators at roundoff level are dropped: those whose Frobenius norms
    are at or below rank_eps times the largest norm (counting the
    identity's, for a unital algebra), and all of them when that largest
    norm is itself at or below rank_eps, as the rank cut of a spanning set
    drops them.  The rest are divided by the power of two nearest their
    Frobenius norms (an exact scaling) and kept as the result's
    ``generators``.  The span is closed Krylov-style under left
    multiplication by them, which suffices, as every word is a generator
    times a shorter word: each pass multiplies only the newest orthonormal
    directions by each generator, and keeps the residuals against the frame
    whose singular values exceed the rank tolerance (absolute: the products
    are at unit scale), re-orthogonalised against the frame.  So the closure
    makes g * dim products for g generators, and stops at dimension n^2.  An
    empty generator list is allowed only for unital algebras, in which case
    ``ambient`` supplies the dimension.
    """
    mats = [as_matrix(g) for g in generators]
    if not mats and not unital:
        raise MalformedInputError("a non-unital algebra needs at least one generator")
    sizes = {m.shape for m in mats}
    if len(sizes) > 1:
        raise MalformedInputError("generators have mismatched shapes")
    for m in mats:
        if m.shape[0] != m.shape[1]:
            raise MalformedInputError("generators must be square")
    n = mats[0].shape[0] if mats else ambient
    if n is None:
        raise MalformedInputError("cannot infer the ambient dimension from an empty list")
    if ambient is not None and n != ambient:
        raise MalformedInputError("generators do not match the requested ambient dimension")
    norms = [float(np.linalg.norm(m)) for m in mats]
    top = max(norms + ([np.sqrt(n)] if unital else []), default=0.0)
    floor = tol.rank_eps * top if top > tol.rank_eps else np.inf
    G = [m / 2.0 ** np.round(np.log2(s)) for m, s in zip(mats, norms) if s > floor]
    G = np.reshape(G, (-1, n, n))
    start = np.reshape(([identity(n)] if unital else []) + list(G), (-1, n * n)).T
    F = new = Subspace.from_spanning(start, ambient=n * n, tol=tol).frame
    while len(G) and new.shape[1] and F.shape[1] < n * n:
        P = _generator_products(G, new)
        W, sig = _left_factor(P - F @ (F.conj().T @ P))
        W = W[:, sig > tol.rank_eps]
        new = np.linalg.qr(W - F @ (F.conj().T @ W))[0]
        F = np.hstack([F, new])

    unital = unital or _frame_spans(F, identity(n), tol)
    return _basis_from_frame(F, n, unital, tuple(G))


_SYLVESTER_CHUNK = 2**21  # entries (32 MiB) of the Sylvester rows ``commutant`` builds at once


def commutant(A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Basis of {T : Tb = bT for all b in A}, via a stacked Sylvester system.

    The rows come from A's generators when it has fewer of them than basis
    elements, else from the basis (``_generating_stack``).  They are built a
    chunk of elements at a time; before the next chunk is stacked below them,
    the rows so far are cut to their n^2 x n^2 triangular factor (QR with no
    Q), which has the same null space.
    """
    n = A.ambient
    B = _generating_stack(A)
    s = max(1, _SYLVESTER_CHUNK // n**4)
    rows = sylvester_system(B[:s], B[:s])
    for i in range(s, len(B), s):
        chunk = sylvester_system(B[i : i + s], B[i : i + s])
        rows = np.vstack([np.linalg.qr(rows, mode="r"), chunk])
    return _basis_from_frame(null_space(rows, tol=tol), n, unital=True)


def bicommutant(A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    return commutant(commutant(A, tol), tol)


def radical(A: AlgebraBasis, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Basis of the Jacobson radical of a concrete matrix algebra.

    Over a characteristic-zero field the radical of a matrix algebra is the
    kernel of the trace bilinear form x, y -> tr(xy) restricted to the span.
    The form is taken on the orthonormal frame of the span, so its Gram
    matrix, and the rank floor of ``null_space`` applied to it, do not
    depend on the scale or the conditioning of the given basis; the kernel
    vectors carried through the frame are an orthonormal basis of the radical.
    The Gram tr(m_a m_b) over the frame's matrices m_a is one product F^T V,
    V holding the vectorised transposes m_b^T as columns, as
    tr(m_a m_b) = vec(m_a) . vec(m_b^T): one gemm.
    """
    if A.dim == 0:
        return AlgebraBasis(ambient=A.ambient, basis=[], unital=False)
    n = A.ambient
    F = A.frame(tol)
    M = F.T.reshape(-1, n, n)
    K = null_space(F.T @ M.swapaxes(1, 2).reshape(len(M), -1).T, tol=tol)
    return _basis_from_frame(F @ K, n, unital=False)


def center_and_minimal_central_idempotents(
    A: AlgebraBasis,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[AlgebraBasis, list[np.ndarray]]:
    """Centre of a unital semisimple algebra and its minimal central idempotents.

    Read from the reduction certificate (``has_reduction_property``): over its
    balanced piece basis Z, a basis of C^n as A holds I, the idempotent of c is
    p_c = Z_c (Z^-1)_c over the columns Z_c of that block and the matching
    rows of Z^-1, the projection onto the isotypic component along the
    others.  The centre is their span.
    """
    from .modules import has_reduction_property

    n = A.ambient
    if not A.contains_identity(tol):
        raise StructurePreconditionError("central idempotents need a unital algebra")
    verdict, cert = has_reduction_property(A, seed, tol)
    if not verdict:
        raise StructurePreconditionError("central idempotents need a semisimple algebra")
    owner = np.repeat(np.arange(len(cert.blocks)), [k * m for k, m in cert.blocks])
    Z, Z_inv = cert.basis, cert.basis_inv
    idems = [Z[:, owner == c] @ Z_inv[owner == c] for c in range(len(cert.blocks))]
    idems.sort(key=lambda p: rank_and_range(p, tol)[1].canonical_key())
    F = Subspace.from_spanning(np.reshape(idems, (len(idems), -1)).T, ambient=n * n, tol=tol)
    return _basis_from_frame(F.frame, n, unital=True), idems


@dataclass(frozen=True)
class SubspaceLattice:
    """A finite family of subspaces closed under meet and join, with 0 and C^n."""

    ambient: int
    members: tuple = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))

    @staticmethod
    def generate(
        ambient: int,
        subspaces,
        tol: Tolerance = DEFAULT_TOL,
        max_size: int = 4096,
    ) -> "SubspaceLattice":
        """Close the given subspaces under meet and join, adding 0 and C^n."""
        members: list[Subspace] = [Subspace.zero(ambient), Subspace.full(ambient)]

        def seen(s: Subspace) -> bool:
            return s.equals_any(members, tol)

        queue = list(subspaces)
        for s in queue:
            if not seen(s):
                members.append(s)
        changed = True
        while changed:
            changed = False
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    for cand in (
                        members[i].meet(members[j], tol),
                        members[i].join(members[j], tol),
                    ):
                        if not seen(cand):
                            members.append(cand)
                            changed = True
                            if len(members) > max_size:
                                raise MalformedInputError("lattice closure exceeded the cap")
        members.sort(key=lambda s: s.canonical_key())
        return SubspaceLattice(ambient=ambient, members=members)

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        if not any(s.dim == 0 for s in self.members):
            raise MalformedInputError("lattice must contain the zero subspace")
        if not any(s.dim == self.ambient for s in self.members):
            raise MalformedInputError("lattice must contain the full space")
        for s in self.members:
            for t in self.members:
                for cand in (s.meet(t, tol), s.join(t, tol)):
                    if not cand.equals_any(self.members, tol):
                        raise MalformedInputError("lattice is not closed under meet/join")


def alg_of_lattice(L: SubspaceLattice, tol: Tolerance = DEFAULT_TOL) -> AlgebraBasis:
    """Basis of {a : aV subseteq V for all V in L}; always a unital algebra."""
    n = L.ambient
    P = np.reshape([V.projector() for V in L.members if 0 < V.dim < n], (-1, n, n))
    rows = np.einsum("kij,kba->kiajb", identity(n) - P, P)  # stacked kron(I - P, P^T)
    return _basis_from_frame(null_space(rows.reshape(-1, n * n), tol=tol), n, unital=True)


def is_reflexive(
    A: AlgebraBasis, witnesses: SubspaceLattice, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether A equals the algebra of its (finite) witness lattice.

    Certifies reflexivity only relative to the supplied invariant family; the
    caller is responsible for sampling a representative lattice.
    """
    from .modules import invariant

    if not all(invariant(V, A, tol) for V in witnesses.members):
        raise InvalidWitnessError("witness subspace is not invariant under the algebra")
    return span_equal(A, alg_of_lattice(witnesses, tol), tol)
