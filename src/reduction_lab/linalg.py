"""Numerical primitives: complex matrices, subspaces, norms, polar decomposition.

Matrices are plain complex ``numpy`` arrays.  Subspaces are always stored
through orthonormal column frames so that equality and containment tests are
stable; frames are re-orthonormalised on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSubspaceError,
    MalformedInputError,
    NotComplementaryError,
    NotPositiveError,
    NumericalDegeneracyError,
    SingularMatrixError,
)
from .tolerance import DEFAULT_TOL, Tolerance

__all__ = [
    "Subspace",
    "as_matrix",
    "check_finite",
    "operator_norm",
    "polar_decompose",
    "matrix_sqrt_positive",
    "principal_angle",
    "projection_onto_along",
    "rank_and_range",
    "null_space",
    "is_hermitian",
    "is_idempotent",
    "identity",
]


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    M = np.asarray(data, dtype=complex)
    if M.ndim != 2:
        raise MalformedInputError(f"expected a matrix, got array of ndim {M.ndim}")
    check_finite(M)
    return M


def check_finite(M: np.ndarray) -> None:
    if not np.isfinite(M).all():
        raise MalformedInputError("matrix has non-finite entries")


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def operator_norm(M) -> float:
    """Largest singular value of ``M``."""
    M = as_matrix(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _opnorms(X: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices held in the last two axes."""
    return np.linalg.norm(X, 2, axis=(-2, -1))


def is_hermitian(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    scale = max(1.0, operator_norm(M))
    return operator_norm(M - M.conj().T) <= tol.eq_eps * scale


def is_idempotent(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    scale = max(1.0, operator_norm(M)) ** 2
    return operator_norm(M @ M - M) <= tol.eq_eps * scale


def polar_decompose(
    M, require_invertible: bool = False, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Factor a square matrix as ``M = U S`` with ``U`` unitary and ``S`` positive.

    ``S`` is the positive-semidefinite Hermitian square root of ``M* M``.
    With ``require_invertible`` a singular ``M`` (at the rank tolerance) is
    rejected instead of silently producing a defective unitary factor.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise MalformedInputError("polar decomposition requires a square matrix")
    W, sig, Vh = np.linalg.svd(M)
    if require_invertible and (sig.size == 0 or sig[-1] <= tol.rank_eps * sig[0]):
        raise SingularMatrixError("matrix is singular at the rank tolerance")
    U = W @ Vh
    S = Vh.conj().T @ np.diag(sig.astype(complex)) @ Vh
    return U, S


def matrix_sqrt_positive(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian positive-semidefinite square root of a Hermitian PSD matrix."""
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise MalformedInputError("matrix square root requires a square matrix")
    size, skew = _opnorms(np.stack([M, M - M.conj().T]))
    if skew > tol.eq_eps * max(1.0, size):
        raise MalformedInputError("matrix is not Hermitian at the comparison tolerance")
    # symmetrise before eigh to suppress drift
    H = (M + M.conj().T) / 2
    evals, Q = np.linalg.eigh(H)
    top = max(evals[-1], 0.0) if evals.size else 0.0
    if evals.size and evals[0] < -tol.rank_eps * max(top, 1.0):
        raise NotPositiveError(f"matrix has negative eigenvalue {evals[0]:.3e}")
    evals = np.clip(evals, 0.0, None)
    R = (Q * np.sqrt(evals)) @ Q.conj().T
    return (R + R.conj().T) / 2


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^n held as an orthonormal column frame."""

    frame: np.ndarray = field(repr=False)
    ambient: int

    def __post_init__(self) -> None:
        if self.frame.shape[0] != self.ambient:
            raise MalformedInputError("frame rows must equal the ambient dimension")

    @staticmethod
    def from_frame(frame: np.ndarray) -> "Subspace":
        """Wrap an already-orthonormal frame (trusted, no re-orthonormalisation)."""
        F = np.asarray(frame, dtype=complex)
        return Subspace(frame=F, ambient=F.shape[0])

    @staticmethod
    def from_spanning(
        vectors, ambient: int | None = None, tol: Tolerance = DEFAULT_TOL
    ) -> "Subspace":
        """Orthonormal subspace spanned by the columns of ``vectors``.

        The frame is the left singular factor up to the rank; a wide V (more
        columns than rows) is cut QR-first (see ``_left_factor``).
        """
        V = np.asarray(vectors, dtype=complex)
        if V.ndim == 1:
            V = V[:, None]
        check_finite(V)
        n = V.shape[0] if ambient is None else ambient
        if V.shape[0] != n:
            raise MalformedInputError("vector length does not match the ambient dimension")
        if V.shape[1] == 0:
            return Subspace(frame=np.zeros((n, 0), dtype=complex), ambient=n)
        W, sig = _left_factor(V)
        return Subspace(frame=W[:, : _rank(sig, tol)], ambient=n)

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(frame=np.zeros((n, 0), dtype=complex), ambient=n)

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(frame=np.eye(n, dtype=complex), ambient=n)

    @staticmethod
    def span_of_basis_vector(n: int, i: int) -> "Subspace":
        e = np.zeros((n, 1), dtype=complex)
        e[i, 0] = 1.0
        return Subspace(frame=e, ambient=n)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projection onto the subspace."""
        return self.frame @ self.frame.conj().T

    def contains(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        if other.dim == 0:
            return True
        resid = other.frame - self.projector() @ other.frame
        return operator_norm(resid) <= tol.eq_eps

    def equals(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.ambient != other.ambient or self.dim != other.dim:
            return False
        return operator_norm(self.projector() - other.projector()) <= tol.eq_eps

    def equals_any(self, others, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether ``equals`` holds against any of ``others``: one stacked operator
        norm of the projector differences to those of the same dimension."""
        same = [t.projector() for t in others if (t.ambient, t.dim) == (self.ambient, self.dim)]
        if not same:
            return False
        return bool(np.any(_opnorms(self.projector() - np.array(same)) <= tol.eq_eps))

    def join(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        return Subspace.from_spanning(
            np.hstack([self.frame, other.frame]), ambient=self.ambient, tol=tol
        )

    def meet(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Intersection, via the null space of the stacked frame [F, -G]."""
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        stacked = np.hstack([self.frame, -other.frame])
        N = null_space(stacked, tol=tol)
        if N.shape[1] == 0:
            return Subspace.zero(self.ambient)
        return Subspace.from_spanning(
            self.frame @ N[: self.dim, :], ambient=self.ambient, tol=tol
        )

    def perp(self) -> "Subspace":
        """Orthogonal complement."""
        P = np.eye(self.ambient, dtype=complex) - self.projector()
        return Subspace.from_spanning(P, ambient=self.ambient)

    def canonical_key(self, digits: int = 6) -> tuple:
        """Deterministic sort key: dimension, then rounded frame entries.

        The frame is phase-normalised column by column (largest entry made
        real positive) so SVD sign ambiguity does not leak into orderings.
        """
        F = self.frame.copy()
        for j in range(F.shape[1]):
            k = int(np.argmax(np.abs(F[:, j])))
            piv = F[k, j]
            if abs(piv) > 0:
                F[:, j] *= np.conj(piv) / abs(piv)
        real, imag = (np.round(part, digits).reshape(-1).tolist() for part in (F.T.real, F.T.imag))
        return (self.dim, tuple(zip(real, imag)))


def _left_factor(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin left singular factor and singular values of a nonempty V.  A wide V
    is first cut to the triangular factor R of V^H = QR (QR with no Q): V = R^H Q^H,
    so R^H has the same left factor and singular values, and no right factor of
    V's width is built."""
    if V.shape[1] > V.shape[0]:
        V = np.linalg.qr(V.conj().T, mode="r").conj().T
    W, sig, _ = np.linalg.svd(V, full_matrices=False)
    return W, sig


def _rank(sig: np.ndarray, tol: Tolerance) -> int:
    """Count of descending singular values above the relative rank cutoff; zero when
    the largest is at the rank tolerance itself (roundoff at unit scale)."""
    if sig.size == 0 or sig[0] <= tol.rank_eps:
        return 0
    return int(np.sum(sig > tol.rank_eps * sig[0]))


def null_space(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space at the rank tolerance.

    A constraint matrix at roundoff level (largest singular value below the
    rank tolerance at unit scale) imposes no constraints at all.  A tall
    system is cut to its cols x cols triangular factor (QR with no Q), which
    has the same singular values and right factor, so no left factor is built.
    """
    M = as_matrix(M)
    if M.shape[0] == 0 or M.size == 0:
        return np.eye(M.shape[1], dtype=complex)
    if M.shape[0] > M.shape[1]:
        M = np.linalg.qr(M, mode="r")
    _, sig, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return Vh[_rank(sig, tol) :, :].conj().T


def sylvester_system(lefts, rights) -> np.ndarray:
    """Stacked kron(I_p, r_j^T) - kron(l_j, I_q): the map X -> X r_j - l_j X on
    row-major vec(X), for (k, p, p) ``lefts`` and (k, q, q) ``rights``.  An empty
    family gives a 0 x pq system.  Built in place, entry for entry the kron
    stack: -l_j on the q diagonal slices of one array, then r_j^T added on p."""
    lefts, rights = np.asarray(lefts, dtype=complex), np.asarray(rights, dtype=complex)
    k, p, q = len(lefts), lefts.shape[-1], rights.shape[-1]
    S = np.zeros((k, p, q, p, q), dtype=complex)
    np.einsum("kiaja->kija", S)[...] = -lefts[..., None]
    np.einsum("kiaib->kiab", S)[...] += rights.transpose(0, 2, 1)[:, None]
    return S.reshape(k * p * q, p * q)


def solve_consistent(M, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Least-squares solution of Mx = b, or None when its residual exceeds
    the comparison tolerance times max(1, ||b||)."""
    x, *_ = np.linalg.lstsq(M, b, rcond=None)
    if float(np.linalg.norm(M @ x - b)) > tol.eq_eps * max(1.0, float(np.linalg.norm(b))):
        return None
    return x


def eig_clusters(evals: np.ndarray, rel_gap: float = 1e-6) -> list[list[int]]:
    """Indices of ``evals`` grouped by single linkage: two eigenvalues share a
    cluster when a chain of them, each within ``rel_gap`` times max(1, largest
    modulus) of the next, joins them.  Members and clusters come in (real, imag)
    order of the eigenvalues, clusters by their first members.  All pairs are
    linked, not only neighbours in that order: a real matrix's copies of a + bi
    sit between its copies of a - bi there."""
    order = np.lexsort((evals.imag, evals.real))
    scale = max(1.0, float(np.max(np.abs(evals)))) if evals.size else 1.0
    e = evals[order]
    near = np.abs(e[:, None] - e[None]) <= rel_gap * scale
    # each position takes the least position it links to, until nothing moves:
    # then every cluster carries the position of its first member
    root = np.arange(len(e))
    while True:
        least = np.min(np.where(near, root[None], len(e)), axis=1, initial=len(e))
        if np.array_equal(least, root):
            break
        root = least
    return [order[root == r].tolist() for r in np.unique(root)]


# Path following in ``least_psd_shift``: the barrier weight s grows by _BARRIER_GROWTH at
# each centred point (Newton decrement below _BARRIER_CENTRED), and a problem stops at a
# centred point with barrier gap N/s <= _BARRIER_GAP max(1, |t|).
_BARRIER_GROWTH = 50.0
_BARRIER_CENTRED = 0.25
_BARRIER_GAP = 1e-11
_BARRIER_ITERS = 500


def least_psd_shift(F0: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Minimise t subject to F0[w] + sum_j y_j F[w, j] + t I >= 0 over real y, for each
    w of a Hermitian (W, N, N) ``F0`` and (W, m, N, N) ``F``; returns y as (W, m).

    Damped Newton steps on s t - log det F(y, t) from y = 0, t = 1 + ||F0[w]||_F: one
    batched inverse per step gives the gradient s e_t - tr(F^-1 F_j) and the Hessian
    Re tr(F^-1 F_j F^-1 F_k), and the step length 1/(1 + decrement) keeps F(y, t)
    positive definite.  A zero F[w, j] gets a unit Hessian diagonal, pinning y_j at 0.
    """
    W, m, N = F.shape[0], F.shape[1] + 1, F0.shape[-1]
    F = np.concatenate([F, np.broadcast_to(identity(N), (W, 1, N, N))], axis=1)
    pin = ~F.any(axis=(-2, -1))[:, None] * np.eye(m)
    x = np.hstack([np.zeros((W, m - 1)), 1.0 + np.linalg.norm(F0, axis=(-2, -1))[:, None]])
    s = N / x[:, -1]
    live = np.arange(W)
    for _ in range(_BARRIER_ITERS):
        if not live.size:
            return x[:, :-1]
        Fl = F[live]
        G = np.linalg.inv(F0[live] + np.einsum("wj,wjab->wab", x[live], Fl))[:, None] @ Fl
        g = np.outer(s[live], np.eye(m)[-1]) - np.einsum("wjaa->wj", G).real
        H = np.einsum("wjab,wkba->wjk", G, G).real + pin[live]
        step = np.linalg.solve(H, -g[..., None])[..., 0]
        dec = np.sqrt(np.maximum(-np.einsum("wj,wj->w", g, step), 0.0))
        x[live] += step / (1.0 + dec[:, None])
        centred = dec < _BARRIER_CENTRED
        done = centred & (N / s[live] <= _BARRIER_GAP * np.maximum(1.0, np.abs(x[live, -1])))
        s[live[centred & ~done]] *= _BARRIER_GROWTH
        live = live[~done]
    raise NumericalDegeneracyError(f"barrier path did not converge in {_BARRIER_ITERS} steps")


def rank_and_range(M, tol: Tolerance = DEFAULT_TOL) -> tuple[int, Subspace]:
    """Rank at the tolerance plus an orthonormal frame for the column space."""
    V = Subspace.from_spanning(as_matrix(M), tol=tol)
    return V.dim, V


def principal_angle(V: Subspace, W: Subspace) -> float:
    """Smallest principal angle between two nonzero subspaces, in [0, pi/2]."""
    if V.ambient != W.ambient:
        raise MalformedInputError("subspaces live in different ambient spaces")
    if V.dim == 0 or W.dim == 0:
        raise DegenerateSubspaceError("principal angle needs nonzero subspaces")
    sig = np.linalg.svd(V.frame.conj().T @ W.frame, compute_uv=False)
    c = min(1.0, max(0.0, float(sig[0])))
    return math.acos(c)


def projection_onto_along(
    V: Subspace, W: Subspace, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """The idempotent with range ``V`` and kernel ``W``, given ``V + W = C^n``."""
    if V.ambient != W.ambient:
        raise MalformedInputError("subspaces live in different ambient spaces")
    n = V.ambient
    if V.dim + W.dim != n:
        raise NotComplementaryError(
            f"dimensions {V.dim} + {W.dim} do not sum to the ambient dimension {n}"
        )
    C = np.hstack([V.frame, W.frame])
    sig = np.linalg.svd(C, compute_uv=False)
    if sig.size and sig[-1] <= tol.rank_eps * sig[0]:
        raise NotComplementaryError("combined frame is rank deficient; subspaces overlap")
    D = np.zeros((n, n), dtype=complex)
    D[: V.dim, : V.dim] = np.eye(V.dim)
    return C @ D @ np.linalg.inv(C)
