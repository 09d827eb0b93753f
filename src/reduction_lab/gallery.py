"""Reproducible worked examples: digraph algebras, CSL algebras, the
two-dimensional commutative family with large projection constant, the
standard non-reflexive algebra, and graph-operator truncations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraBasis,
    SubspaceLattice,
    alg_of_lattice,
)
from .errors import (
    MalformedGraphError,
    MalformedInputError,
    ReductionLabError,
    StructurePreconditionError,
)
from .linalg import (
    Subspace,
    as_matrix,
    identity,
    is_hermitian,
    is_idempotent,
    operator_norm,
    rank_and_range,
)
from .modules import Representation, has_reduction_property
from .orthogonalize import dixmier_orthogonalize
from .tolerance import DEFAULT_TOL, Tolerance

__all__ = [
    "Digraph",
    "digraph_algebra",
    "digraph_rp_check",
    "digraph_cb_bound_check",
    "a_lambda",
    "csl_algebra",
    "truncated_graph_example",
    "non_reflexive_example",
    "all_reflexive_transitive_digraphs",
]


@dataclass(frozen=True)
class Digraph:
    """A reflexive transitive directed graph on nodes 0..n-1."""

    nodes: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise MalformedGraphError(f"a digraph needs at least one node, got {self.nodes}")
        for i, j in self.edges:
            if not (0 <= i < self.nodes and 0 <= j < self.nodes):
                raise MalformedGraphError(f"edge ({i},{j}) is out of range")
        for i in range(self.nodes):
            if (i, i) not in self.edges:
                raise MalformedGraphError(f"graph is not reflexive: missing loop at {i}")
        for i, j in self.edges:
            for k, l in self.edges:
                if j == k and (i, l) not in self.edges:
                    raise MalformedGraphError(
                        f"graph is not transitive: ({i},{j}),({j},{l}) without ({i},{l})"
                    )

    @staticmethod
    def from_edges(nodes: int, edges) -> "Digraph":
        """Build from arbitrary edge pairs, adding loops and closing transitively."""
        E = {(i, i) for i in range(nodes)} | {tuple(e) for e in edges}
        changed = True
        while changed:
            changed = False
            for (i, j), (k, l) in itertools.product(list(E), repeat=2):
                if j == k and (i, l) not in E:
                    E.add((i, l))
                    changed = True
        return Digraph(nodes=nodes, edges=frozenset(E))

    @property
    def symmetric(self) -> bool:
        return all((j, i) in self.edges for i, j in self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)


def digraph_algebra(G: Digraph) -> AlgebraBasis:
    """The span of the matrix units indexed by the digraph's edges."""
    n = G.nodes
    basis = []
    for i, j in G.sorted_edges():
        E = np.zeros((n, n), dtype=complex)
        E[i, j] = 1.0
        basis.append(E)
    return AlgebraBasis(ambient=n, basis=basis, unital=True)


def digraph_rp_check(G: Digraph, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Reduction-property verdict of the digraph algebra; equals graph symmetry."""
    verdict, _ = has_reduction_property(digraph_algebra(G), tol=tol)
    if verdict != G.symmetric:
        raise ReductionLabError(
            "digraph verdict disagrees with graph symmetry; numerical failure"
        )
    return verdict


def digraph_cb_bound_check(
    G: Digraph,
    theta: Representation,
    m: int,
    samples: int = 200,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, float]:
    """Sampled amplified-representation norms against the M n^2 envelope.

    The diagonal units are first made Hermitian by Dixmier averaging; the
    returned pair is (max sampled ratio ||theta^(m)(b)|| / ||b||, M n^2) with
    M the largest conjugated edge-image norm.
    """
    n = G.nodes
    if m < 1:
        raise MalformedInputError("amplification level must be positive")
    edges = G.sorted_edges()
    unit_images = {}
    for (i, j), im in zip(edges, theta.images):
        unit_images[(i, j)] = im
    diag = [unit_images[(i, i)] for i in range(n)]
    S = dixmier_orthogonalize(diag, tol)
    conj = {e: S.conjugate(im) for e, im in unit_images.items()}
    M = max(operator_norm(im) for im in conj.values())
    bound = M * n * n

    rng = np.random.default_rng(seed)
    t = theta.target_dim
    blocks = rng.standard_normal((samples, len(edges), m, m)) + 1j * rng.standard_normal(
        (samples, len(edges), m, m)
    )
    b = np.zeros((samples, n * m, n * m), dtype=complex)
    amp = np.zeros((samples, t * m, t * m), dtype=complex)
    for idx, (i, j) in enumerate(edges):
        b[:, i * m : (i + 1) * m, j * m : (j + 1) * m] += blocks[:, idx]
        im = conj[(i, j)]
        # kron(image, block) assembled batchwise
        amp += np.einsum("pq,sab->spaqb", im, blocks[:, idx]).reshape(samples, t * m, t * m)
    nb = np.linalg.svd(b, compute_uv=False)[:, 0]
    na = np.linalg.svd(amp, compute_uv=False)[:, 0]
    keep = nb > tol.rank_eps
    observed = float(np.max(na[keep] / nb[keep])) if keep.any() else 0.0
    if observed > bound + tol.eq_eps * max(1.0, bound):
        raise ReductionLabError(
            f"sampled amplified norm {observed:.4g} exceeds the envelope {bound:.4g}"
        )
    return observed, bound


def a_lambda(lam: float) -> AlgebraBasis:
    """The two-dimensional commutative algebra {[[a, lam (b-a)], [0, b]]}.

    Semisimple, isomorphic to C^2; the line through the first basis vector is
    uniquely complemented, forcing projection constants of size about lam.
    """
    if not np.isfinite(lam):
        raise MalformedInputError("lambda must be finite")
    b0 = np.array([[1.0, -lam], [0.0, 0.0]], dtype=complex)
    b1 = np.array([[0.0, lam], [0.0, 1.0]], dtype=complex)
    return AlgebraBasis(ambient=2, basis=[b0, b1], unital=True)


def csl_algebra(
    projections, ambient: int | None = None, tol: Tolerance = DEFAULT_TOL
) -> AlgebraBasis:
    """The algebra of the lattice generated by commuting orthogonal projections.

    If the result has the reduction property it must be self-adjoint; that
    consistency is re-verified on every call.
    """
    mats = [as_matrix(p) for p in projections]
    if not mats:
        if ambient is None:
            raise MalformedInputError("need the ambient dimension when no projections given")
        n = ambient
    else:
        n = mats[0].shape[0]
    for p in mats:
        if p.shape != (n, n):
            raise MalformedInputError("projections must share one ambient space")
        if not is_hermitian(p, tol) or not is_idempotent(p, tol):
            raise StructurePreconditionError("inputs must be orthogonal projections")
    for i, p in enumerate(mats):
        for q in mats[i + 1 :]:
            if operator_norm(p @ q - q @ p) > tol.eq_eps:
                raise StructurePreconditionError("projections must commute")
    ranges = [rank_and_range(p, tol)[1] for p in mats]
    lattice = SubspaceLattice.generate(n, ranges, tol)
    A = alg_of_lattice(lattice, tol)
    verdict, _ = has_reduction_property(A, tol=tol)
    if verdict:
        for b in A.basis:
            if not A.in_span(b.conj().T, tol):
                raise ReductionLabError(
                    "lattice algebra has the reduction property but is not self-adjoint"
                )
    return A


def truncated_graph_example(k: int, decay: float) -> AlgebraBasis:
    """Doubled matrix algebra {diag(a, T a T^-1)} for T = diag(decay, ..., decay^k).

    S = diag(T^1/2, decay^((k+1)/2) T^-1/2) carries it onto {diag(b, b)}
    with condition kappa = decay^(-(k-1)/2), and that is the similarity
    condition the Wedderburn pipeline reports.  The basis is the k^2 doubled
    matrix units, whose norms run from 1 to decay^-(k-1); the generators are
    the doubled up-shift diag(U, T U T^-1) and down-shift diag(U^T, T U^T T^-1),
    U with ones on the superdiagonal, whose entries spread only by decay^-1,
    and with I they generate the algebra.  Every analysis seed 0-19 passes
    down to decay 0.001 at k = 4 and 0.02 at k = 6, and some down to 0.0001
    and 0.005 (``scripts/truncation_reach.py``).  From decay 0.0004 at k = 4
    and 0.008 at k = 6 the trace form loses rank, and the yes is certified
    without it, by the decomposition's Burnside count.

    Shrinking the decay drives the smallest singular value of T toward zero,
    and the projection constants over the graph submodules grow without
    bound as the truncation sharpens.  ``projection_constant_estimate``
    follows that growth: its balanced graph submodule between the two copies
    reads (kappa + 1/kappa) / 2, the most a least projection norm can be
    under a similarity of condition kappa (Wielandt's inequality).  So that
    is the projection constant K at level 1, and kappa is the least condition
    of a similarity onto a *-algebra, which is at least K + sqrt(K^2 - 1);
    both up to the minimiser's gap.  At decay 0.05 and above every candidate
    is certified least at its start point by a dual point (gap 1e-11
    relative); below, roundoff splits that point's top singular pair and the
    barrier runs, its gap at exit uncertified.
    """
    if k < 2:
        raise MalformedInputError("need k >= 2")
    if not (0.0 < decay < 1.0):
        raise StructurePreconditionError("decay must lie strictly between 0 and 1")
    T = np.diag([decay ** (i + 1) for i in range(k)]).astype(complex)
    T_inv = np.linalg.inv(T)

    def doubled(E: np.ndarray) -> np.ndarray:
        g = np.zeros((2 * k, 2 * k), dtype=complex)
        g[:k, :k] = E
        g[k:, k:] = T @ E @ T_inv
        return g

    basis = [doubled(E) for E in np.eye(k * k, dtype=complex).reshape(k * k, k, k)]
    up = np.eye(k, k=1, dtype=complex)
    return AlgebraBasis(
        ambient=2 * k, basis=basis, unital=True, generators=(doubled(up), doubled(up.T))
    )


def non_reflexive_example() -> tuple[AlgebraBasis, SubspaceLattice]:
    """The algebra {[[x, y], [0, x]]} with its full invariant lattice.

    The algebra of that lattice is the full upper-triangular algebra, strictly
    larger, so the example is not reflexive.
    """
    I2 = identity(2)
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    A = AlgebraBasis(ambient=2, basis=[I2, e12], unital=True)
    lattice = SubspaceLattice.generate(2, [Subspace.span_of_basis_vector(2, 0)])
    return A, lattice


def all_reflexive_transitive_digraphs(n: int) -> list[Digraph]:
    """Exhaustive enumeration of reflexive transitive digraphs on n nodes.

    Filters every off-diagonal edge subset for transitivity; feasible for the
    desk-scale n <= 4 used in the verification suite.
    """
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    loops = {(i, i) for i in range(n)}
    out = []
    for bits in itertools.product([0, 1], repeat=len(offdiag)):
        E = loops | {e for e, b in zip(offdiag, bits) if b}
        transitive = True
        for i, j in E:
            if not transitive:
                break
            for k, l in E:
                if j == k and (i, l) not in E:
                    transitive = False
                    break
        if transitive:
            out.append(Digraph(nodes=n, edges=frozenset(E)))
    return out
