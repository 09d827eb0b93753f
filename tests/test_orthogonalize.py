import numpy as np
import pytest

from reduction_lab import modules, orthogonalize
from reduction_lab.algebra import AlgebraBasis, _generating_stack, generate_algebra, span_equal
from reduction_lab.errors import (
    FamilyTooLargeError,
    NumericalDegeneracyError,
    StructurePreconditionError,
)
from reduction_lab.gallery import a_lambda, truncated_graph_example
from reduction_lab.linalg import (
    Subspace,
    is_idempotent,
    matrix_sqrt_positive,
    operator_norm,
    rank_and_range,
)
from reduction_lab.modules import (
    Representation,
    _kronecker_fit,
    has_reduction_property,
    intertwiners,
)
from reduction_lab.orthogonalize import (
    SimilarityReport,
    dixmier_orthogonalize,
    orthogonalize_matrix_units,
    renorm_from_projection,
    similarity_bound_report,
    symmetric_difference_closure,
    wedderburn_similarity,
)
from reduction_lab.sampling import (
    block_algebra_basis,
    random_commuting_idempotents,
    random_invertible,
    random_semisimple_algebra,
)
from reduction_lab.tolerance import DEFAULT_TOL

from conftest import unit


def conjugated_basis(A, report):
    return [report.conjugate(b) for b in A.basis]


def adjoint_closure_defect(basis):
    A = AlgebraBasis(ambient=basis[0].shape[0], basis=list(basis), unital=False)
    F = A.frame()
    worst = 0.0
    for b in basis:
        v = b.conj().T.reshape(-1)
        resid = v - F @ (F.conj().T @ v)
        worst = max(worst, float(np.linalg.norm(resid) / max(1.0, np.linalg.norm(v))))
    return worst


def staged_similarity(A, cert):
    """The similarity as three composed stages, from the public constructions:
    renorm the unit, Dixmier-average the central idempotents, then fit each
    block.  Returns (S, blocks, degenerate dimension)."""
    n = A.ambient
    R = renorm_from_projection(cert.unit).S
    e = R @ cert.unit @ np.linalg.inv(R)
    rank_e, range_e = rank_and_range((e + e.conj().T) / 2)
    F0 = range_e.frame
    groups = []
    for c in sorted({lab for _, lab in cert.pieces}):
        group = [p for p, lab in cert.pieces if lab == c]
        cols = [group[0].frame]
        for q in group[1:]:
            cols.append(q.frame @ intertwiners(group[0], q, A).basis[0])
        groups.append((group[0].dim, len(group), np.stack(cols, axis=2).reshape(n, -1)))
    groups.sort(key=lambda g: (-g[0], -g[1]))
    blocks = tuple((k, mult) for k, mult, _ in groups)
    Y = np.hstack([y for _, _, y in groups])
    owner = np.repeat(np.arange(len(groups)), [k * mult for k, mult in blocks])

    X = F0.conj().T @ R @ Y
    X_inv = np.linalg.inv(X)
    idems = [X[:, owner == i] @ X_inv[owner == i] for i in range(len(groups))]
    D = np.eye(n) + F0 @ (dixmier_orthogonalize(idems).S - np.eye(rank_e)) @ F0.conj().T

    T = F0.conj().T @ D @ R @ Y
    T_inv = np.linalg.inv(T)
    rows = []
    for i, (k, mult) in enumerate(blocks):
        G, H = _kronecker_fit(T[:, owner == i].conj().T @ T[:, owner == i], k, mult)
        root = np.kron(matrix_sqrt_positive(G), matrix_sqrt_positive(H))
        rows.append(root @ T_inv[owner == i] @ F0.conj().T)
    rows.append(Subspace.from_frame(F0).perp().frame.conj().T)
    return np.vstack(rows) @ D @ R, blocks, n - rank_e


class TestDixmier:
    def test_orthogonal_projection_gives_identity(self):
        S = dixmier_orthogonalize([np.diag([1.0, 0.0]).astype(complex)])
        assert np.allclose(S.S, np.eye(2))
        assert S.condition == pytest.approx(1.0)

    def test_hand_computed_two_by_two(self):
        # (1-2p)*(1-2p) for p=[[1,1],[0,0]] is [[1,2],[2,5]]; averaging with the
        # identity gives M=[[1,1],[1,3]]
        p = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        S = dixmier_orthogonalize([p])
        M = np.array([[1.0, 1.0], [1.0, 3.0]])
        assert np.allclose(S.S, matrix_sqrt_positive(M))
        conj = S.conjugate(p)
        assert operator_norm(conj - conj.conj().T) < 1e-10

    def test_random_family_hermitian_and_bounded(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            fam = random_commuting_idempotents(rng, n, int(rng.integers(1, 4)))
            rep = dixmier_orthogonalize(fam)
            closed = symmetric_difference_closure(fam)
            K = max(operator_norm(p) for p in closed)
            for p in closed:
                c = rep.conjugate(p)
                assert operator_norm(c - c.conj().T) <= 1e-8 * max(1.0, operator_norm(p))
            # the group-averaging construction guarantees the squared envelope
            assert rep.condition <= (1.0 + 2.0 * K) ** 2 + 1e-8

    def test_single_idempotent_meets_linear_bound(self, rng):
        # for a single idempotent the condition equals ||1 - 2p||, which is
        # within 1 + 2||p||
        for _ in range(20):
            n = int(rng.integers(2, 7))
            fam = random_commuting_idempotents(rng, n, 1)
            rep = dixmier_orthogonalize(fam)
            K = operator_norm(fam[0])
            assert rep.condition <= 1.0 + 2.0 * K + 1e-8
            assert rep.condition == pytest.approx(
                operator_norm(np.eye(n) - 2 * fam[0]), rel=1e-9
            )

    def test_non_idempotent_rejected(self):
        with pytest.raises(StructurePreconditionError):
            dixmier_orthogonalize([np.array([[1.0, 0.0], [0.0, 2.0]])])

    def test_non_commuting_rejected(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        with pytest.raises(StructurePreconditionError):
            dixmier_orthogonalize([p, q])

    @pytest.mark.parametrize(
        "family",
        [
            [np.diag([1.0, 2.0])],
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([1.0, 1.0 + 1e-6])],
            [np.diag([1.0, 0.0]), np.array([[0.5, 0.5], [0.5, 0.5]])],
            [
                np.diag([1.0, 0.0, 0.0]),
                np.diag([1.0, 1.0, 0.0]),
                np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1e-7, 1.0]]),
            ],
            [np.diag([1.0, 0.0]), np.diag([1.0, 1.0, 0.0])],
            [np.diag([1.0, 2.0]), np.diag([1.0, 1.0, 0.0])],
            [np.diag([1.0, 0.0]), np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 2.0])],
            [np.ones((2, 3))],
        ],
        ids=[
            "non-idempotent",
            "third-non-idempotent",
            "non-commuting",
            "commutator-1e-7",
            "shapes",
            "non-idempotent-then-shapes",
            "shapes-then-non-idempotent",
            "non-square",
        ],
    )
    def test_stacked_checks_raise_like_per_pair_checks(self, family):
        # the per-member and per-pair checks that the stacked norms replaced
        def per_pair_message(mats):
            n = mats[0].shape[0]
            for p in mats:
                if p.shape != (n, n):
                    return "idempotents must share one ambient space"
                if not is_idempotent(p):
                    return "input is not idempotent at the tolerance"
            for i, p in enumerate(mats):
                for q in mats[i + 1 :]:
                    scale = max(1.0, operator_norm(p) * operator_norm(q))
                    if operator_norm(p @ q - q @ p) > DEFAULT_TOL.eq_eps * scale:
                        return "idempotents do not commute"
            return None

        family = [np.asarray(p, dtype=complex) for p in family]
        want = per_pair_message(family)
        assert want is not None
        with pytest.raises(StructurePreconditionError) as err:
            dixmier_orthogonalize(family)
        assert str(err.value) == want

    def test_atoms_sum_matches_per_atom_loop(self, rng):
        for n, m in ((4, 2), (6, 3), (8, 4)):
            fam = random_commuting_idempotents(rng, n, m)
            atoms = [np.eye(n, dtype=complex)]
            for p in fam:
                atoms = [b for a in atoms for b in (a @ p, a - a @ p) if operator_norm(b) >= 0.5]
            S = matrix_sqrt_positive(sum(a.conj().T @ a for a in atoms))
            got = dixmier_orthogonalize(fam).S
            assert np.linalg.norm(got - S) <= 1e-12 * np.linalg.norm(S)

    def test_closure_cap(self, rng):
        fam = [np.diag((np.arange(6) == i).astype(complex)) for i in range(6)]
        with pytest.raises(FamilyTooLargeError):
            symmetric_difference_closure(fam, cap=8)

    def test_closure_contains_zero_and_is_idempotent(self, rng):
        fam = random_commuting_idempotents(rng, 5, 3)
        closed = symmetric_difference_closure(fam)
        assert any(operator_norm(p) < 1e-10 for p in closed)
        for p in closed:
            assert operator_norm(p @ p - p) < 1e-8 * max(1.0, operator_norm(p)) ** 2

    def test_closed_form_equals_group_average(self, rng):
        # the sum over atoms against the enumerated average of g* g over the
        # group {1 - 2p : p in the symmetric-difference closure}
        for _ in range(50):
            n = int(rng.integers(2, 9))
            fam = random_commuting_idempotents(rng, n, int(rng.integers(1, 6)))
            closed = symmetric_difference_closure(fam)
            gs = [np.eye(n) - 2 * p for p in closed]
            average = sum(g.conj().T @ g for g in gs) / len(gs)
            S = dixmier_orthogonalize(fam).S
            assert operator_norm(S @ S - average) <= 1e-12 * operator_norm(average)

    def test_sixteen_coordinate_idempotents(self, rng):
        # the closure of this family has 2^16 elements, past its cap
        n = 16
        Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        C = Q @ (np.eye(n) + 0.5 * np.triu(np.ones((n, n)), 1))
        C_inv = np.linalg.inv(C)
        fam = [C @ unit(n, i, i) @ C_inv for i in range(n)]
        rep = dixmier_orthogonalize(fam)
        for p in fam:
            c = rep.conjugate(p)
            assert operator_norm(c - c.conj().T) <= 1e-8 * operator_norm(p)


class TestRenorm:
    def test_hermitian_projection_gives_identity(self):
        S = renorm_from_projection(np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(S.S, np.eye(2))

    def test_hand_computed_two_by_two(self):
        # (1-p)*(1-p) = [[0,0],[0,2]] for p = [[1,1],[0,0]]
        p = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        q = np.eye(2) - p
        assert np.allclose(q.conj().T @ q, np.array([[0.0, 0.0], [0.0, 2.0]]))
        S = renorm_from_projection(p)
        assert np.allclose(S.S, matrix_sqrt_positive(p.conj().T @ p + q.conj().T @ q))
        conj = S.conjugate(p)
        assert operator_norm(conj) == pytest.approx(1.0, abs=1e-10)
        assert operator_norm(conj - conj.conj().T) < 1e-10

    def test_parallelogram_renorming(self, rng):
        n = 5
        R = random_invertible(n, rng, max_cond=30)
        mask = np.diag([1.0, 1.0, 0.0, 0.0, 0.0]).astype(complex)
        p = R @ mask @ np.linalg.inv(R)
        S = renorm_from_projection(p)
        for _ in range(20):
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = np.linalg.norm(S.S @ xi) ** 2
            rhs = np.linalg.norm(p @ xi) ** 2 + np.linalg.norm((np.eye(n) - p) @ xi) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)
        conj = S.conjugate(p)
        assert operator_norm(conj) == pytest.approx(1.0, abs=1e-8)

    def test_non_idempotent_rejected(self):
        with pytest.raises(StructurePreconditionError):
            renorm_from_projection(np.array([[1.0, 0.0], [0.0, 0.5]]))


def matrix_unit_source(k):
    units = []
    for s in range(k):
        for t in range(k):
            units.append(unit(k, s, t))
    return AlgebraBasis(ambient=k, basis=units, unital=True)


class TestOrthogonalizeMatrixUnits:
    def test_identity_representation(self):
        src = matrix_unit_source(2)
        theta = Representation(source=src, target_dim=2, images=list(src.basis))
        S = orthogonalize_matrix_units(theta)
        assert np.allclose(S.S, np.eye(2))

    def test_conjugated_amplification_roundtrip(self, rng):
        src = matrix_unit_source(2)
        R = random_invertible(4, rng, max_cond=30)
        R_inv = np.linalg.inv(R)
        images = [R @ np.kron(b, np.eye(2)) @ R_inv for b in src.basis]
        theta = Representation(source=src, target_dim=4, images=images)
        S = orthogonalize_matrix_units(theta)
        conj = [S.conjugate(im) for im in images]
        assert adjoint_closure_defect(conj) < 1e-8
        for s in range(2):
            d = conj[s * 2 + s]
            assert operator_norm(d - d.conj().T) < 1e-8

    def test_skew_diagonal_unit_hand_example(self):
        # conjugate the identity representation of M_2 by [[1,1],[0,1]]
        src = matrix_unit_source(2)
        R = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        R_inv = np.array([[1.0, -1.0], [0.0, 1.0]], dtype=complex)
        images = [R @ b @ R_inv for b in src.basis]
        assert np.allclose(images[0], np.array([[1.0, -1.0], [0.0, 0.0]]))
        theta = Representation(source=src, target_dim=2, images=images)
        S = orthogonalize_matrix_units(theta)
        for idx in (1, 2):
            u = S.conjugate(images[idx])
            prod = u.conj().T @ u
            assert operator_norm(prod @ prod - prod) < 1e-8
            assert operator_norm(prod - prod.conj().T) < 1e-8

    def test_partial_source_rejected(self):
        diag = AlgebraBasis(
            ambient=2,
            basis=[np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
            unital=True,
        )
        theta = Representation(source=diag, target_dim=2, images=list(diag.basis))
        with pytest.raises(StructurePreconditionError):
            orthogonalize_matrix_units(theta)

    def test_non_multiplicative_rejected(self):
        src = matrix_unit_source(2)
        images = [np.eye(2, dtype=complex) for _ in src.basis]
        theta = Representation(source=src, target_dim=2, images=images)
        with pytest.raises(StructurePreconditionError):
            orthogonalize_matrix_units(theta)


class TestWedderburnSimilarity:
    def test_full_matrix_algebra_is_fixed(self):
        A = generate_algebra(
            [unit(3, 0, 1), unit(3, 1, 0), unit(3, 1, 2), unit(3, 2, 1)]
        )
        prof = wedderburn_similarity(A)
        assert prof.blocks == ((3, 1),)
        assert prof.degenerate_dim == 0
        assert prof.similarity.condition == pytest.approx(1.0, abs=1e-9)

    def test_conjugated_two_block_roundtrip(self, rng):
        literal = block_algebra_basis([(2, 2), (1, 1)])
        R = random_invertible(5, rng, max_cond=40)
        R_inv = np.linalg.inv(R)
        A = AlgebraBasis(ambient=5, basis=[R @ b @ R_inv for b in literal.basis], unital=True)
        prof = wedderburn_similarity(A, seed=3)
        assert prof.blocks == ((2, 2), (1, 1))
        conj = conjugated_basis(A, prof.similarity)
        assert adjoint_closure_defect(conj) <= 1e-7

    def test_a_lambda_two_scalar_blocks(self):
        A = a_lambda(2.0)
        prof = wedderburn_similarity(A)
        assert prof.blocks == ((1, 1), (1, 1))
        conj = conjugated_basis(A, prof.similarity)
        for c in conj:
            assert operator_norm(c - np.diag(np.diag(c))) < 1e-9

    def test_scalars_have_multiplicity(self):
        A = generate_algebra([np.eye(3)], unital=True)
        prof = wedderburn_similarity(A)
        assert prof.blocks == ((1, 3),)

    def test_profile_is_seed_invariant(self, rng):
        A, blocks, degenerate = random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True)
        p1 = wedderburn_similarity(A, seed=1)
        p2 = wedderburn_similarity(A, seed=99)
        assert p1.blocks == p2.blocks == blocks
        assert p1.degenerate_dim == p2.degenerate_dim == degenerate

    def test_one_solve_matches_staged_pipeline(self, rng):
        # the renorm, Dixmier and block-fit stages compose to the one-solve
        # similarity times a unitary: same condition, profile and layout
        with_degenerate = 0
        for _ in range(60):
            A, blocks, degenerate = random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True)
            with_degenerate += degenerate > 0
            cert = has_reduction_property(A, seed=7)[1]
            prof = orthogonalize._wedderburn_similarity(A, cert)
            S, staged_blocks, staged_degenerate = staged_similarity(A, cert)
            staged = SimilarityReport.from_matrix(S)
            assert prof.similarity.condition == pytest.approx(staged.condition, rel=1e-12)
            assert prof.blocks == staged_blocks == blocks
            assert prof.degenerate_dim == staged_degenerate == degenerate
            n = A.ambient
            literal = AlgebraBasis(
                ambient=n, basis=list(block_algebra_basis(blocks, degenerate).basis), unital=False
            )
            for rep in (prof.similarity, staged):
                conj = AlgebraBasis(ambient=n, basis=conjugated_basis(A, rep), unital=False)
                assert span_equal(conj, literal)
        assert with_degenerate >= 10

    @pytest.mark.parametrize("fault", ["unit-swapped", "piece-dropped"])
    def test_pieces_and_kernel_not_a_basis_raise(self, fault):
        # the certificate builder lays one piece beside a kernel frame: with
        # the unit swapped for 1 - e, its kernel is the range of e, which
        # contains that piece, and [Y K] is square but singular; with the
        # kernel kept, [Y K] is not square
        A = block_algebra_basis([(1, 1), (1, 1)], degenerate_dim=1)
        cert = has_reduction_property(A)[1]
        K = cert.kernel.frame
        if fault == "unit-swapped":
            K = rank_and_range(cert.unit)[1].frame
        with pytest.raises(NumericalDegeneracyError, match="stage 'block-similarity'"):
            modules._piece_basis(cert.pieces[:1], cert.homs[:1], K)

    def test_non_reduction_rejected(self):
        A = generate_algebra(
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex), unit(2, 0, 1)]
        )
        with pytest.raises(StructurePreconditionError):
            wedderburn_similarity(A)

    def test_truncated_graph_profile(self):
        A = truncated_graph_example(2, 0.5)
        prof = wedderburn_similarity(A, seed=5)
        assert prof.blocks == ((2, 2),)
        conj = conjugated_basis(A, prof.similarity)
        assert adjoint_closure_defect(conj) <= 1e-7

    def test_block_layout_is_literal(self, rng):
        # the x kron I_mult layout, blocks first, the annihilated summand last
        for blocks, degenerate in [(((2, 1),), 1), (((2, 2), (1, 1)), 0), (((2, 3),), 1)]:
            literal = block_algebra_basis(blocks, degenerate_dim=degenerate)
            n = literal.ambient
            R = random_invertible(n, rng, max_cond=20)
            R_inv = np.linalg.inv(R)
            A = AlgebraBasis(ambient=n, basis=[R @ b @ R_inv for b in literal.basis], unital=False)
            prof = wedderburn_similarity(A, seed=2)
            assert prof.blocks == blocks and prof.degenerate_dim == degenerate
            conj = AlgebraBasis(ambient=n, basis=conjugated_basis(A, prof.similarity), unital=False)
            assert span_equal(conj, AlgebraBasis(ambient=n, basis=list(literal.basis), unital=False))

    def test_similarity_is_the_balanced_basis_inverse(self, rng):
        # the fits are applied once, in the certificate's piece basis: the
        # similarity is its inverse bit for bit, and each balanced block's
        # Gram matrix fits I kron I
        tested = 0
        while tested < 12:
            A, blocks, _ = random_semisimple_algebra(rng, max_dim=6, allow_degenerate=True)
            if all(m == 1 for _, m in blocks):
                continue
            seed = int(rng.integers(2**31))
            cert = has_reduction_property(A, seed)[1]
            assert np.array_equal(wedderburn_similarity(A, seed).similarity.S, cert.basis_inv)
            at = 0
            for k, mult in cert.blocks:
                Y = cert.basis[:, at : at + k * mult]
                fit = np.kron(*_kronecker_fit(Y.conj().T @ Y, k, mult))
                assert operator_norm(fit - np.eye(k * mult)) <= 1e-10
                at += k * mult
            tested += 1


class TestKroneckerFit:
    def test_recovers_exact_kronecker_product(self, rng):
        for k, mult in [(1, 3), (3, 1), (2, 2), (3, 4)]:
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            h = rng.standard_normal((mult, mult)) + 1j * rng.standard_normal((mult, mult))
            G0 = g.conj().T @ g + np.eye(k)
            H0 = h.conj().T @ h + np.eye(mult)
            K = np.kron(G0, H0)
            G, H = _kronecker_fit(K, k, mult)
            assert operator_norm(np.kron(G, H) - K) <= 1e-10 * operator_norm(K)
            # the pair is fixed up to a scalar moved between the factors
            c = np.trace(G) / np.trace(G0)
            assert operator_norm(G - c * G0) <= 1e-10 * operator_norm(G)
            assert operator_norm(H - H0 / c) <= 1e-10 * operator_norm(H)

    def test_round_cap_raises(self, monkeypatch):
        # a K that is no Kronecker product is not fitted by the start point
        # H = tr_k(K) / k, so one step is too few
        K = np.kron(np.diag([1.0, 4.0]), np.diag([1.0, 9.0])).astype(complex)
        K[0, 1] = K[1, 0] = 0.5
        monkeypatch.setattr(modules, "_KRON_FIT_STEPS", 1)
        with pytest.raises(NumericalDegeneracyError, match="stage 'block-similarity'"):
            _kronecker_fit(K, 2, 2)

    @pytest.mark.parametrize("k, mult", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
    def test_newton_residual_is_at_its_stopping_rule(self, rng, k, mult):
        # on a K that is no Kronecker product the fit is the fixed point
        # H = Phi(H) of the flip-flop pair, to the whitened residual it stops at
        X = rng.standard_normal((k * mult, 3 * k * mult)) + 1j * rng.standard_normal(
            (k * mult, 3 * k * mult)
        )
        K = X @ X.conj().T
        G, H = _kronecker_fit(K, k, mult)
        K4 = K.reshape(k, mult, k, mult)
        assert np.allclose(G, np.einsum("ambn,nm->ab", K4, np.linalg.inv(H)) / mult, rtol=1e-13)
        Phi = np.einsum("ambn,ba->mn", K4, np.linalg.inv(G)) / k
        L_inv = np.linalg.inv(np.linalg.cholesky(H))
        residual = np.linalg.norm(L_inv @ (Phi - H) @ L_inv.conj().T)
        assert residual <= modules._KRON_FIT_TOL

    def test_matches_the_flip_flop(self, rng):
        # the flip-flop iteration, kept as the reference for the Newton fit
        def flip_flop(K, k, mult):
            K4, H = K.reshape(k, mult, k, mult), np.eye(mult)
            for _ in range(100000):
                G = np.einsum("ambn,nm->ab", K4, np.linalg.inv(H)) / mult
                H_next = np.einsum("ambn,ba->mn", K4, np.linalg.inv(G)) / k
                if np.linalg.norm(H_next - H) <= 1e-13 * np.linalg.norm(H_next):
                    return G, H_next
                H = H_next
            raise AssertionError("the flip-flop did not settle")

        for k, mult, cond in [(2, 2, 10.0), (4, 2, 1e3), (3, 3, 1e2), (2, 4, 1e4)]:
            X = random_invertible(k * mult, rng, max_cond=cond)
            K = X.conj().T @ X
            got, want = np.kron(*_kronecker_fit(K, k, mult)), np.kron(*flip_flop(K, k, mult))
            assert operator_norm(got - want) <= 1e-9 * operator_norm(want)

    def test_closed_forms(self, rng):
        # one copy, or a multiplicity space alone: the fit is K itself
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        K = X @ X.conj().T + np.eye(3)
        for k, mult, want in [(3, 1, (K, np.eye(1))), (1, 3, (np.eye(1), K))]:
            G, H = _kronecker_fit(K, k, mult)
            assert np.array_equal(G, want[0]) and np.array_equal(H, want[1])


class TestSimilarityBoundReport:
    def test_identity_case(self):
        A = generate_algebra([unit(2, 0, 1), unit(2, 1, 0)])
        prof = wedderburn_similarity(A)
        report = similarity_bound_report(prof, 1.0)
        assert report.within_bound and report.bound == pytest.approx(128.0)

    def test_a_lambda_case(self):
        lam = 2.0
        prof = wedderburn_similarity(a_lambda(lam))
        K = np.sqrt(1 + lam * lam)
        report = similarity_bound_report(prof, K)
        assert report.within_bound
        assert prof.similarity.condition <= 128.0 * (1 + lam * lam)

    def test_recovered_conjugation(self, rng):
        from reduction_lab.modules import projection_constant_estimate

        literal = block_algebra_basis([(2, 1)])
        R = random_invertible(2, rng, max_cond=50)
        R_inv = np.linalg.inv(R)
        A = AlgebraBasis(ambient=2, basis=[R @ b @ R_inv for b in literal.basis], unital=True)
        prof = wedderburn_similarity(A, seed=1)
        K, _ = projection_constant_estimate(A, seed=1)
        report = similarity_bound_report(prof, K)
        assert report.within_bound


class TestStackedChecks:
    def test_self_adjointness_defect_matches_loop(self, rng):
        # the generators' block residual and the adjoint closure of the whole
        # conjugated basis (the loop) agree: both at roundoff on the pipeline's
        # S, and both past the 1e-7 gate on S perturbed by 1e-3 relative
        tested = 0
        while tested < 6:
            A, _, _ = random_semisimple_algebra(rng, max_dim=5, allow_degenerate=True)
            if A.dim in (1, A.ambient**2) and A.contains_identity():
                continue  # C I and M_n stay *-closed under every similarity
            prof = wedderburn_similarity(A)
            S = prof.similarity.S
            E = rng.standard_normal(S.shape) + 1j * rng.standard_normal(S.shape)
            perturbed = S + 1e-3 * operator_norm(S) / operator_norm(E) * E
            for T, closed in ((S, True), (perturbed, False)):
                rep = SimilarityReport.from_matrix(T)
                got = orthogonalize._self_adjointness_defect(
                    rep.conjugate(_generating_stack(A)), prof.blocks
                )
                want = adjoint_closure_defect(conjugated_basis(A, rep))
                if closed:
                    assert got <= 1e-9 and want <= 1e-9
                else:
                    assert got > 1e-7 and want > 1e-7
            tested += 1

    def test_condition_is_ratio_of_extreme_singular_values(self, rng):
        for cond in (1.0, 50.0, 1e4):
            S = random_invertible(5, rng, max_cond=cond) if cond > 1 else np.eye(5)
            rep = SimilarityReport.from_matrix(S)
            want = operator_norm(S) * operator_norm(np.linalg.inv(S))
            assert rep.condition == pytest.approx(want, rel=1e-13)
            assert np.array_equal(rep.S_inv, np.linalg.inv(S))
