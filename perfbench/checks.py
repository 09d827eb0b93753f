"""Correctness checks on analysis reports.

Each check compares a report against a computation made apart from the
program (the algebra the benchmark built, its digraph, a closed form) or
against a property the method must have.  ``check_report`` returns the list
of problems found; an empty list means the report passed.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import BlockExpect, Case, DigraphExpect

BOUND_RTOL = 1e-9  # closed forms, and 1 <= bound <= condition
SPAN_RTOL = 1e-8  # membership and invariance residuals, relative


def check_report(case: Case, report: dict) -> list[str]:
    exp = case.expect
    if isinstance(exp, BlockExpect):
        problems = _check_block(exp, report)
    else:
        problems = _check_digraph(exp, report)
    if report["reduction_property"]["verdict"]:
        problems += _check_bound(exp, report)
    return [f"{case.name}: {p}" for p in problems]


def _expect_equal(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def _check_block(exp: BlockExpect, report: dict) -> list[str]:
    problems: list[str] = []
    blocks = [list(b) for b in exp.blocks]
    d = exp.degenerate
    rp = report["reduction_property"]
    _expect_equal(problems, "verdict", rp["verdict"], True)
    if not rp["verdict"]:
        return problems
    _expect_equal(problems, "wedderburn_profile", report["wedderburn_profile"], blocks)
    _expect_equal(problems, "certificate blocks", rp["certificate"]["blocks"], blocks)
    _expect_equal(problems, "degenerate_dimension", rp["certificate"]["degenerate_dimension"], d)
    _expect_equal(problems, "ambient_dimension", report["ambient_dimension"], sum(k * m for k, m in blocks) + d)
    _expect_equal(problems, "algebra_dimension", report["algebra_dimension"], sum(k * k for k, _ in blocks))
    _expect_equal(problems, "radical_dimension", report["radical_dimension"], 0)
    _expect_equal(problems, "commutant_dimension", report["commutant_dimension"], sum(m * m for _, m in blocks) + d * d)
    _expect_equal(problems, "bicommutant_equals_algebra", report["bicommutant_equals_algebra"], d == 0)
    return problems


def _components(nodes: int, edges) -> int:
    parent = list(range(nodes))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in edges:
        parent[root(i)] = root(j)
    return len({root(i) for i in range(nodes)})


def _matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _check_digraph(exp: DigraphExpect, report: dict) -> list[str]:
    problems: list[str] = []
    n, edges = exp.nodes, set(exp.edges)
    one_way = [(i, j) for i, j in exp.edges if (j, i) not in edges]
    symmetric = not one_way
    rp = report["reduction_property"]
    _expect_equal(problems, "verdict", rp["verdict"], symmetric)
    _expect_equal(problems, "ambient_dimension", report["ambient_dimension"], n)
    _expect_equal(problems, "algebra_dimension", report["algebra_dimension"], len(edges))
    _expect_equal(problems, "radical_dimension", report["radical_dimension"], len(one_way))
    _expect_equal(problems, "commutant_dimension", report["commutant_dimension"], _components(n, edges))
    if symmetric or rp["verdict"]:
        return problems

    units = dict(zip(exp.edges, exp.edge_units()))
    r = _matrix(rp["certificate"]["radical_element"])
    r_norm = float(np.linalg.norm(r, 2))
    if not r_norm > SPAN_RTOL:
        problems.append("radical element is zero")
        return problems
    if np.linalg.norm(np.linalg.matrix_power(r / r_norm, n), 2) > SPAN_RTOL:
        problems.append("radical element is not nilpotent")
    # the radical of a digraph algebra is spanned by its one-way edge units
    B = np.column_stack([units[e].reshape(-1) for e in one_way])
    coeff, *_ = np.linalg.lstsq(B, r.reshape(-1), rcond=None)
    if np.linalg.norm(B @ coeff - r.reshape(-1)) > SPAN_RTOL * r_norm:
        problems.append("radical element is outside the span of the one-way edge units")

    W = _matrix(rp["certificate"]["uncomplemented_subspace_frame"])
    k = W.shape[1] if W.ndim == 2 else 0
    if not 0 < k < n or np.linalg.matrix_rank(W) != k:
        problems.append(f"witness frame is not a basis of a proper nonzero subspace of C^{n}")
        return problems
    P = W @ np.linalg.pinv(W)
    worst = max(
        float(np.linalg.norm(b @ W - P @ b @ W, 2)) / float(np.linalg.norm(b, 2)) for b in units.values()
    )
    if worst > SPAN_RTOL * float(np.linalg.norm(W, 2)):
        problems.append(f"witness is not invariant (residual {worst:.2e})")
    return problems


def _check_bound(exp, report: dict) -> list[str]:
    problems: list[str] = []
    bound = report["projection_constant_lower_bound"]
    cond = report["similarity_condition"]
    if not (isinstance(bound, float) and isinstance(cond, float) and math.isfinite(bound) and math.isfinite(cond)):
        return [f"bound {bound!r} or condition {cond!r} is not a finite number"]
    # S^-1 P S is a module projection of norm at most cond(S), and every
    # nonzero idempotent has norm at least 1
    if bound < 1.0 - BOUND_RTOL:
        problems.append(f"bound {bound!r} is below 1")
    if bound > cond * (1.0 + BOUND_RTOL):
        problems.append(f"bound {bound!r} exceeds the similarity condition {cond!r}")
    closed = getattr(exp, "closed_bound", None)
    if closed is not None and abs(bound - closed) > BOUND_RTOL * max(1.0, closed):
        problems.append(f"bound {bound!r} differs from the closed form {closed!r}")
    return problems
