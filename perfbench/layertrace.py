"""Outside-in per-layer trace: wrap public functions of the package and numpy.linalg.

Layers are the package's modules (``linalg``, ``algebra``, ``modules``,
``orthogonalize``, ``cli``) plus ``lapack``, the ``numpy.linalg`` calls made
beneath all of them.  A wrapped function is replaced in every
``reduction_lab.*`` namespace that binds it, so calls made inside its own
module are counted too.  Per function the tracer keeps:

- ``calls``;
- ``s``, inclusive seconds, counted at the outermost activation only;
- ``self_s``, seconds not spent inside another wrapped function;
- ``svd_calls``, direct ``numpy.linalg.svd`` calls made while it is active;
- ``elements``, total length of the lists it returned;
- ``out_mb``, computed megabytes (1e6 bytes) of the arrays it returned.

Only direct ``numpy.linalg`` calls are seen: numpy's own internal use of
LAPACK (inside ``norm`` or ``inv``, say) goes through module globals that are
not wrapped.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

TRACED = {
    "linalg": ("null_space", "rank_and_range"),
    "algebra": (
        "generate_algebra",
        "commutant",
        "bicommutant",
        "radical",
        "center_and_minimal_central_idempotents",
    ),
    "modules": (
        "has_reduction_property",
        "irreducible_decomposition",
        "algebra_identity_element",
        "intertwiners",
        "invariant",
        "min_norm_module_projection",
        "projection_constant_estimate",
    ),
    "orthogonalize": (
        "symmetric_difference_closure",
        "dixmier_orthogonalize",
        "orthogonalize_matrix_units",
        "wedderburn_similarity",
    ),
    "cli": ("main",),
}
LAPACK = ("svd", "lstsq", "eig")
FIELDS = ("calls", "s", "self_s", "svd_calls", "elements", "out_mb")


def _nbytes(result) -> int:
    if isinstance(result, np.ndarray):
        return result.nbytes
    if isinstance(result, tuple):
        return sum(_nbytes(r) for r in result)
    return 0


class Tracer:
    """Counters and timers per wrapped function; ``install`` patches, ``remove`` restores."""

    def __init__(self) -> None:
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list] = []  # [name, seconds spent in wrapped callees]
        self._active: Counter = Counter()
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.stats.clear()

    def _wrap(self, name: str, fn):
        stats, stack, active = self.stats, self._stack, self._active
        is_svd = name == "lapack.svd"

        def wrapper(*args, **kwargs):
            if is_svd:
                for owner in {frame[0] for frame in stack}:
                    stats[owner]["svd_calls"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            outermost = active[name] == 0
            active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                active[name] -= 1
                st = stats[name]
                st["calls"] += 1
                st["self_s"] += dt - frame[1]
                if outermost:
                    st["s"] += dt
                if stack:
                    stack[-1][1] += dt
            if isinstance(result, list):
                st["elements"] += len(result)
            st["out_mb"] += _nbytes(result) / 1e6
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, namespace, attr: str, wrapper) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self) -> None:
        import reduction_lab.cli  # noqa: F401  (imports every traced layer)

        namespaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("reduction_lab")]
        for layer, names in TRACED.items():
            module = sys.modules[f"reduction_lab.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)
        for fname in LAPACK:
            self._patch(np.linalg, fname, self._wrap(f"lapack.{fname}", getattr(np.linalg, fname)))

    def remove(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def metrics(self) -> dict[str, float]:
        """Every nonzero field of every function, as ``<layer>.<function>.<field>``."""
        out = {}
        for name, st in self.stats.items():
            for field in FIELDS:
                if st[field]:
                    out[f"{name}.{field}"] = st[field]
        return out
