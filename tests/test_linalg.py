import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab.errors import (
    DegenerateSubspaceError,
    MalformedInputError,
    NotComplementaryError,
    NotPositiveError,
    SingularMatrixError,
)
from reduction_lab.linalg import (
    Subspace,
    eig_clusters,
    least_psd_shift,
    matrix_sqrt_positive,
    null_space,
    operator_norm,
    polar_decompose,
    principal_angle,
    projection_onto_along,
    rank_and_range,
    sylvester_system,
)
from reduction_lab.sampling import random_complementary_pair, random_invertible
from reduction_lab.tolerance import DEFAULT_TOL


def power_iteration_norm(M, iters=4000):
    """Independent oracle: largest singular value via power iteration on M* M."""
    G = M.conj().T @ M
    v = np.ones(G.shape[0], dtype=complex) / math.sqrt(G.shape[0])
    for _ in range(iters):
        w = G @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return math.sqrt(float(np.real(v.conj() @ (G @ v))))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_nilpotent_shift(self):
        assert operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0)

    def test_matches_power_iteration(self, rng):
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert operator_norm(M) == pytest.approx(power_iteration_norm(M), abs=1e-8)

    def test_rejects_nan(self):
        with pytest.raises(MalformedInputError):
            operator_norm([[np.nan, 0], [0, 1]])


class TestPolarDecompose:
    def test_identity(self):
        U, S = polar_decompose(np.eye(2))
        assert np.allclose(U, np.eye(2))
        assert np.allclose(S, np.eye(2))

    def test_positive_diagonal(self):
        U, S = polar_decompose(np.diag([2.0, 3.0]))
        assert np.allclose(U, np.eye(2))
        assert np.allclose(S, np.diag([2.0, 3.0]))

    def test_random_invertible_against_spectral_oracle(self, rng):
        M = random_invertible(4, rng)
        U, S = polar_decompose(M, require_invertible=True)
        assert operator_norm(U @ U.conj().T - np.eye(4)) < 1e-12
        assert operator_norm(U @ S - M) <= 1e-9 * operator_norm(M)
        # oracle: S is the spectral square root of M* M by eigendecomposition
        evals, Q = np.linalg.eigh(M.conj().T @ M)
        S_oracle = (Q * np.sqrt(np.clip(evals, 0, None))) @ Q.conj().T
        assert operator_norm(S - S_oracle) < 1e-9 * operator_norm(S_oracle)

    def test_singular_rejected_when_invertible_required(self):
        with pytest.raises(SingularMatrixError):
            polar_decompose([[1, 0], [0, 0]], require_invertible=True)

    def test_rectangular_rejected(self):
        with pytest.raises(MalformedInputError):
            polar_decompose(np.ones((2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 12))
    def test_reconstruction_on_well_conditioned(self, seed, n):
        gen = np.random.default_rng(seed)
        M = random_invertible(n, gen, max_cond=1e3)
        U, S = polar_decompose(M)
        assert operator_norm(U @ S - M) <= 1e-9 * max(1.0, operator_norm(M))


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_positive(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt_positive(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_residual(self):
        M = np.array([[1.0, 1.0], [1.0, 3.0]])
        R = matrix_sqrt_positive(M)
        assert operator_norm(R @ R - M) <= 1e-9
        assert operator_norm(R - R.conj().T) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            matrix_sqrt_positive(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(MalformedInputError):
            matrix_sqrt_positive([[1.0, 2.0], [0.0, 1.0]])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), c=st.floats(0.01, 100.0))
    def test_scaling(self, seed, c):
        gen = np.random.default_rng(seed)
        X = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        M = X @ X.conj().T
        lhs = matrix_sqrt_positive(c * M)
        rhs = math.sqrt(c) * matrix_sqrt_positive(M)
        assert operator_norm(lhs - rhs) <= 1e-8 * max(1.0, operator_norm(rhs))


class TestPrincipalAngle:
    def test_orthogonal_lines(self):
        V = Subspace.span_of_basis_vector(2, 0)
        W = Subspace.span_of_basis_vector(2, 1)
        assert principal_angle(V, W) == pytest.approx(math.pi / 2)

    def test_rotated_line(self):
        t = 0.3
        V = Subspace.span_of_basis_vector(2, 0)
        W = Subspace.from_spanning(np.array([[math.cos(t)], [math.sin(t)]]))
        assert principal_angle(V, W) == pytest.approx(t, abs=1e-12)

    def test_same_subspace(self, rng):
        V = Subspace.from_spanning(rng.standard_normal((4, 2)))
        assert principal_angle(V, V) == pytest.approx(0.0, abs=1e-7)

    def test_zero_subspace_rejected(self):
        with pytest.raises(DegenerateSubspaceError):
            principal_angle(Subspace.zero(2), Subspace.full(2))


class TestProjectionOntoAlong:
    def test_coordinate_lines(self):
        p = projection_onto_along(
            Subspace.span_of_basis_vector(2, 0), Subspace.span_of_basis_vector(2, 1)
        )
        assert np.allclose(p, np.diag([1.0, 0.0]))

    def test_skew_kernel(self):
        # kernel spanned by (2, 1): p e1 = e1 and p (2,1) = 0 force [[1,-2],[0,0]]
        V = Subspace.span_of_basis_vector(2, 0)
        W = Subspace.from_spanning(np.array([[2.0], [1.0]]))
        p = projection_onto_along(V, W)
        assert np.allclose(p, np.array([[1.0, -2.0], [0.0, 0.0]]), atol=1e-12)

    def test_cosecant_law(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            V, W = random_complementary_pair(n, rng, min_angle_sin=0.05)
            p = projection_onto_along(V, W)
            want = 1.0 / math.sin(principal_angle(V, W))
            assert abs(operator_norm(p) - want) <= 1e-8 * max(1.0, want)

    def test_idempotent_norm_at_least_one(self, rng):
        V, W = random_complementary_pair(5, rng, min_angle_sin=0.05)
        p = projection_onto_along(V, W)
        assert operator_norm(p @ p - p) < 1e-9
        assert operator_norm(p) >= 1.0 - 1e-12

    def test_hermitian_iff_norm_one(self, rng):
        V = Subspace.from_spanning(rng.standard_normal((4, 2)))
        p = projection_onto_along(V, V.perp())
        assert operator_norm(p) == pytest.approx(1.0)
        assert operator_norm(p - p.conj().T) < 1e-10
        # and conversely: a skew kernel forces both non-Hermitian and norm > 1
        for _ in range(10):
            V, W = random_complementary_pair(4, rng, min_angle_sin=0.05)
            q = projection_onto_along(V, W)
            skew = operator_norm(q - q.conj().T) > 1e-8 * max(1.0, operator_norm(q))
            assert skew == (operator_norm(q) > 1.0 + 1e-8)

    def test_overlapping_rejected(self):
        V = Subspace.from_spanning(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        W = Subspace.span_of_basis_vector(3, 0)
        with pytest.raises(NotComplementaryError):
            projection_onto_along(V, W)


class TestRankAndRange:
    def test_zero_matrix(self):
        rank, sub = rank_and_range(np.zeros((3, 3)))
        assert rank == 0 and sub.dim == 0

    def test_rank_one(self):
        rank, sub = rank_and_range(np.ones((2, 2)))
        assert rank == 1
        assert sub.contains(Subspace.from_spanning(np.array([[1.0], [1.0]])))

    def test_noise_level_matrix_is_zero(self):
        rank, _ = rank_and_range(1e-14 * np.ones((3, 3)))
        assert rank == 0

    def test_random_products_against_row_reduction(self, rng):
        def row_reduction_rank(M, eps=1e-9):
            M = M.copy()
            rank = 0
            for col in range(M.shape[1]):
                piv = np.argmax(np.abs(M[rank:, col])) + rank
                if abs(M[piv, col]) < eps:
                    continue
                M[[rank, piv]] = M[[piv, rank]]
                M[rank] = M[rank] / M[rank, col]
                for r in range(M.shape[0]):
                    if r != rank:
                        M[r] -= M[r, col] * M[rank]
                rank += 1
                if rank == M.shape[0]:
                    break
            return rank

        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            M = np.zeros((n, n), dtype=complex)
            for _ in range(k):
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                M += np.outer(u, v)
            rank, _ = rank_and_range(M)
            assert rank <= k
            assert rank == row_reduction_rank(M)


class TestSubspace:
    def test_meet_and_join(self):
        V = Subspace.from_spanning(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        W = Subspace.from_spanning(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        meet = V.meet(W)
        assert meet.dim == 1
        assert meet.contains(Subspace.span_of_basis_vector(3, 1))
        assert V.join(W).dim == 3

    def test_frames_are_orthonormal(self, rng):
        X = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 4))
        S = Subspace.from_spanning(X)
        assert S.dim == 3
        assert np.allclose(S.frame.conj().T @ S.frame, np.eye(3))

    def test_canonical_key_matches_per_entry_rounding(self, rng):
        # the key rounds the phase-normalised frame with one np.round call; it
        # must equal the per-entry round of each np.float64 part, on random
        # frames and on entries at the half-way points of the last digit kept
        def per_entry(S, digits):
            F = S.frame.copy()
            for j in range(F.shape[1]):
                piv = F[int(np.argmax(np.abs(F[:, j]))), j]
                if abs(piv) > 0:
                    F[:, j] *= np.conj(piv) / abs(piv)
            flat = [(round(z.real, digits), round(z.imag, digits)) for z in F.T.reshape(-1)]
            return (S.dim, tuple(flat))

        for n, k in [(2, 1), (4, 2), (6, 3), (8, 8)]:
            for _ in range(25):
                X = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
                S = Subspace.from_spanning(X)
                assert S.canonical_key() == per_entry(S, 6)
                for digits in (2, 6):
                    # a real positive first row is each column's pivot, which
                    # the phase normalisation leaves as it is
                    halves = rng.integers(-99, 100, size=(2, n, k)) + 0.5
                    halves[:, 0] = [[199.5], [0.0]]
                    H = Subspace.from_frame((halves[0] + 1j * halves[1]) / 10**digits)
                    assert H.canonical_key(digits) == per_entry(H, digits)

    def test_null_space_of_noise_is_everything(self):
        N = null_space(1e-15 * np.ones((4, 4)))
        assert N.shape[1] == 4

    @pytest.mark.parametrize("rank", [36, 20, 1, 0])
    def test_wide_span_matches_svd_reference(self, rng, rank):
        # the shape of generate_algebra's candidate matrix at n = 6: 36 x (d + d^2)
        def svd_span(V, eps=DEFAULT_TOL.rank_eps):
            W, sig, _ = np.linalg.svd(V, full_matrices=False)
            r = 0 if sig[0] <= eps else int(np.sum(sig > eps * sig[0]))
            return W[:, :r]

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        V = cplx(36, rank) @ cplx(rank, 1122) if rank else 1e-12 * cplx(36, 1122)
        S, want = Subspace.from_spanning(V), svd_span(V)
        assert S.dim == want.shape[1] == rank
        assert np.linalg.norm(S.frame.conj().T @ S.frame - np.eye(rank)) <= 1e-12
        assert np.linalg.norm(S.projector() - want @ want.conj().T, 2) <= 1e-12

    def test_equals_any_keeps_what_pairwise_equals_keeps(self, rng):
        # lines of a 2-dimensional V turned by sin(angle) = c eq_eps give
        # ||dP|| = c eps and ||dP||_F = sqrt(2 turned) c eps: the cases with
        # c in (1/sqrt(2), sqrt(6)) are those a Frobenius norm alone, cut at eps
        # and eps sqrt(n), leaves undecided
        eps, n = DEFAULT_TOL.eq_eps, 6
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

        def turned(c, lines):
            F = Q[:, :2].copy()
            for j in range(lines):
                F[:, j] = np.sqrt(1 - (c * eps) ** 2) * Q[:, j] + c * eps * Q[:, 2 + j]
            return Subspace.from_frame(F)

        V = Subspace.from_frame(Q[:, :2])
        family = [V, Subspace.from_frame(Q[:, :3]), Subspace.from_frame(Q[:, 3:5])]
        family += [turned(c, lines) for c in (0.5, 0.9, 1.1, 2.0, 10.0) for lines in (1, 2)]
        in_band = 0
        for s in family:
            for t in family:
                diff = s.projector() - t.projector()
                in_band += s.dim == t.dim and eps < np.linalg.norm(diff) <= eps * np.sqrt(n)
                assert s.equals_any([t]) == s.equals(t)
        assert in_band
        order = [family[i] for i in rng.permutation(len(family))]
        for candidates in (family, order, order[::-1]):
            kept, want = [], []
            for s in candidates:
                if not s.equals_any(kept):
                    kept.append(s)
                if not any(s.equals(t) for t in want):
                    want.append(s)
            assert [id(s) for s in kept] == [id(s) for s in want]


class TestNullSpaceKernel:
    @pytest.mark.parametrize("shape", [(4096, 64), (64, 512)], ids=["tall", "wide"])
    def test_memory_and_null_space(self, rng, shape):
        rows, cols = shape
        rank = 8

        def gaussian(r, c):
            return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

        M = gaussian(rows, rank) @ gaussian(rank, cols)
        tracemalloc.start()
        try:
            N = null_space(M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a null space needs its input and its output; a tall system must not
        # also build its rows x rows left singular factor
        assert peak < 4 * (M.nbytes + N.nbytes)
        assert N.shape == (cols, cols - rank)
        assert np.allclose(N.conj().T @ N, np.eye(cols - rank), atol=1e-10)
        assert operator_norm(M @ N) < 1e-10 * operator_norm(M)

    @pytest.mark.parametrize("k, p, q", [(3, 4, 5), (1, 2, 2), (0, 3, 3), (7, 6, 6)])
    def test_sylvester_system_is_the_kron_stack(self, rng, k, p, q):
        L = rng.standard_normal((k, p, p)) + 1j * rng.standard_normal((k, p, p))
        R = rng.standard_normal((k, q, q)) + 1j * rng.standard_normal((k, q, q))
        rows = [np.kron(np.eye(p), r.T) - np.kron(l, np.eye(q)) for l, r in zip(L, R)]
        want = np.vstack([np.zeros((0, p * q), dtype=complex), *rows])
        assert np.array_equal(sylvester_system(L, R), want)

    @pytest.mark.parametrize("nullity", [0, 1, 5, 24], ids=["0", "1", "5", "roundoff"])
    def test_tall_null_space_matches_thin_svd(self, rng, nullity):
        def thin_svd_null_space(M, eps=DEFAULT_TOL.rank_eps):
            _, sig, Vh = np.linalg.svd(M, full_matrices=False)
            rank = 0 if sig[0] <= eps else int(np.sum(sig > eps * sig[0]))
            return Vh[rank:].conj().T

        def gaussian(r, c):
            return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

        rows, cols = 300, 24
        if nullity < cols:
            M = gaussian(rows, cols - nullity) @ gaussian(cols - nullity, cols)
        else:  # largest singular value below the rank tolerance: no constraint at all
            M = 1e-12 * gaussian(rows, cols)
        N, want = null_space(M), thin_svd_null_space(M)
        assert N.shape == want.shape == (cols, nullity)
        assert np.allclose(N @ N.conj().T, want @ want.conj().T, rtol=0, atol=1e-12)

    def test_sylvester_system_applies_the_map(self, rng):
        k, p, q = 3, 2, 4
        L = rng.standard_normal((k, p, p)) + 1j * rng.standard_normal((k, p, p))
        R = rng.standard_normal((k, q, q)) + 1j * rng.standard_normal((k, q, q))
        X = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        S = sylvester_system(L, R)
        assert S.shape == (k * p * q, p * q)
        want = np.concatenate([(X @ r - l @ X).reshape(-1) for l, r in zip(L, R)])
        assert np.allclose(S @ X.reshape(-1), want)


class TestEigClusters:
    def test_conjugate_pairs_of_a_repeated_eigenvalue(self):
        # in (real, imag) order the copies of 1 + 2i sit between those of 1 - 2i
        evals = np.array([1 + 2j + 1e-15, 1 - 2j + 1e-15, 1 + 2j - 1e-15, 1 - 2j - 1e-15])
        assert eig_clusters(evals) == [[3, 1], [2, 0]]

    def test_groups_and_order_of_neighbour_chains(self):
        evals = np.array([3.0, 1.0, 2.0, 1.0 + 1e-10, 3.0, 1.0 + 2e-10])
        assert eig_clusters(evals) == [[1, 3, 5], [2], [0, 4]]
        assert eig_clusters(np.zeros(0, dtype=complex)) == []


class TestLeastPsdShift:
    def test_stacked_known_minima_with_a_pinned_direction(self):
        # min_y lambda_max(A0 + y A1) is min t with -A0 - y A1 + t I >= 0:
        # max(1 - y, y - 1) has minimum 0 at y = 1, max(5 - y, 1 + y) minimum 3
        # at y = 2; a zero second direction keeps its coefficient at 0
        A0 = np.array([np.diag([1.0, -1.0]), np.diag([5.0, 1.0])], dtype=complex)
        A1 = np.array([np.diag([-1.0, 1.0])] * 2, dtype=complex)
        F = np.stack([-A1, np.zeros_like(A1)], axis=1)
        y = least_psd_shift(-A0, F)
        assert y.shape == (2, 2)
        assert np.allclose(y[:, 0], [1.0, 2.0], atol=1e-9)
        assert not y[:, 1].any()
