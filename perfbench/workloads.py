"""The benchmark's inputs: the cases of each workload, built from the workload seed.

Every conjugated input is a fixed literal algebra carried by ``S = U C``:
``U`` is a Haar-random unitary drawn from the workload seed and ``C`` is a
fixed upper-triangular shear.  Every matrix entry the program reads changes
with the seed, while the unitarily invariant outputs (dimensions, profile,
similarity condition of the central split) do not, so the run-to-run spread
of the end-to-end figures is the program's and not the inputs'.

The analysis seed handed to the CLI is fixed at ``ANALYSIS_SEED``; it drives
the program's own random splitters and subspace sampling, and passing it
explicitly keeps ``REDUCTION_LAB_SEED`` in the caller's shell out of the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANALYSIS_SEED = 42


@dataclass(frozen=True)
class BlockExpect:
    """A conjugated (+)(M_k (x) I_mult) (+) 0_d with d = ``degenerate``."""

    blocks: tuple  # ((k, mult), ...) in the report's order: descending
    degenerate: int = 0
    closed_bound: float | None = None  # exact projection-constant lower bound


@dataclass(frozen=True)
class DigraphExpect:
    """The span of ``S E_ij S^-1`` over the edges (i, j) of a reflexive transitive digraph."""

    nodes: int
    edges: tuple
    conjugator: np.ndarray

    def edge_units(self) -> list[np.ndarray]:
        S_inv = np.linalg.inv(self.conjugator)
        units = []
        for i, j in self.edges:
            E = np.zeros((self.nodes, self.nodes), dtype=complex)
            E[i, j] = 1.0
            units.append(self.conjugator @ E @ S_inv)
        return units


@dataclass(frozen=True)
class Case:
    """One operation: a CLI argument list and what its report must show."""

    name: str
    argv: tuple
    expect: BlockExpect | DigraphExpect


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def conjugator(n: int, rng: np.random.Generator) -> np.ndarray:
    shear = np.eye(n) + 0.5 * np.triu(np.ones((n, n)), 1)
    return haar_unitary(n, rng) @ shear


def clock(n: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def cyclic_shift(n: int) -> np.ndarray:
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


def _matrix_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def write_spec(path: Path, n: int, generators: list, unital: bool) -> str:
    spec = {
        "dimension": n,
        "generators": [_matrix_json(g) for g in generators],
        "unital": unital,
    }
    path.write_text(json.dumps(spec))
    return str(path)


def _conjugated(S: np.ndarray, mats: list) -> list:
    S_inv = np.linalg.inv(S)
    return [S @ m @ S_inv for m in mats]


def _analyze(path: str) -> tuple:
    return ("analyze", path, "--seed", str(ANALYSIS_SEED), "--format", "json")


def _gallery(*args: str) -> tuple:
    return ("gallery", *args, "--seed", str(ANALYSIS_SEED), "--format", "json")


def full_matrix(n: int, rng, workdir: Path) -> Case:
    """M_n, generated by a conjugated clock (a diagonal) and cyclic shift."""
    S = conjugator(n, rng)
    path = write_spec(workdir / f"M{n}.json", n, _conjugated(S, [clock(n), cyclic_shift(n)]), True)
    return Case(f"M{n}", _analyze(path), BlockExpect(((n, 1),), closed_bound=1.0))


def chain(n: int, rng, workdir: Path) -> Case:
    """T_n, the upper-triangular algebra of the chain digraph 1 > 2 > ... > n."""
    S = conjugator(n, rng)
    superdiag = np.diag(np.ones(n - 1, dtype=complex), 1)
    path = write_spec(workdir / f"T{n}.json", n, _conjugated(S, [clock(n), superdiag]), True)
    edges = tuple((i, j) for i in range(n) for j in range(i, n))
    return Case(f"T{n}", _analyze(path), DigraphExpect(n, edges, S))


def diagonal(m: int, rng, workdir: Path, zeros: int = 0) -> Case:
    """C^m as conjugated diagonals, plus an annihilated summand of dimension ``zeros``."""
    n = m + zeros
    S = conjugator(n, rng)
    D = np.zeros((n, n), dtype=complex)
    D[:m, :m] = clock(m)
    name = f"C{m}" + (f"+0_{zeros}" if zeros else "")
    path = write_spec(workdir / f"{name}.json", n, _conjugated(S, [D]), zeros == 0)
    return Case(name, _analyze(path), BlockExpect(((1, 1),) * m, degenerate=zeros))


def matrix_tensor_identity(k: int, mult: int, rng, workdir: Path) -> Case:
    """M_k (x) I_mult, conjugated."""
    n = k * mult
    S = conjugator(n, rng)
    gens = [np.kron(clock(k), np.eye(mult)), np.kron(cyclic_shift(k), np.eye(mult))]
    name = f"M{k}xI{mult}"
    path = write_spec(workdir / f"{name}.json", n, _conjugated(S, gens), True)
    return Case(name, _analyze(path), BlockExpect(((k, mult),)))


def a_lambda(lam: float) -> Case:
    return Case(
        f"a_lambda-{lam:g}",
        _gallery("a_lambda", "--lambda", repr(lam)),
        BlockExpect(((1, 1), (1, 1)), closed_bound=math.sqrt(1.0 + lam * lam)),
    )


def graph_truncation(k: int, decay: float) -> Case:
    return Case(
        f"trunc-k{k}-{decay:g}",
        _gallery("graph_truncation", "--k", str(k), "--decay", repr(decay)),
        BlockExpect(((k, 2),)),
    )


def _algebra_ladder(rng, workdir: Path) -> list[Case]:
    return (
        [full_matrix(n, rng, workdir) for n in (4, 5, 6)]
        + [chain(n, rng, workdir) for n in (6, 8)]
        + [diagonal(m, rng, workdir) for m in (4, 5, 6)]
        + [diagonal(4, rng, workdir, zeros=2)]
    )


def _projection_bound(rng, workdir: Path) -> list[Case]:
    return (
        [a_lambda(lam) for lam in (0.5, 2.0, 10.0)]
        + [graph_truncation(4, decay) for decay in (0.5, 0.2, 0.1)]
        + [matrix_tensor_identity(2, 2, rng, workdir)]
    )


# On a shared 2-CPU host the speed of this code alternates by up to 50% in
# phases of ten seconds to minutes.  Single operations of 6-10 s (M_7, T_9,
# C^7, C I_3) left one or two rounds per run and run-to-run spreads of
# 0.22-0.34; cases of at most about 5 s give 3-9 rounds a run, whose medians
# hold the spread well inside the bound.
WORKLOADS = {
    "algebra-ladder": _algebra_ladder,
    "projection-bound": _projection_bound,
}


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """The workload's cases; the spec files they read are written into ``workdir``."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, workdir)


def warmup(workdir: Path) -> list[Case]:
    """Small cases touching every code path once, run during set-up."""
    rng = np.random.default_rng(0)
    return [full_matrix(3, rng, workdir), chain(3, rng, workdir), diagonal(3, rng, workdir), a_lambda(1.5)]
