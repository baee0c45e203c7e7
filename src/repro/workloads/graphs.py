"""Synthetic graph generation in CSR form.

The paper evaluates the GAP benchmark suite on large real/synthetic graphs;
we generate scaled-down graphs that preserve the properties the paper leans
on: irregular, data-dependent neighbour access (high data-cache miss rate)
and skewed degree distributions (power-law option, Kronecker-like skew).
All generation is seeded and deterministic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class CSRGraph:
    """Compressed-sparse-row graph with optional edge weights.

    ``row_ptr`` has ``n+1`` entries; ``col[row_ptr[u]:row_ptr[u+1]]`` are
    ``u``'s neighbours (sorted, deduplicated, no self-loops).
    """

    def __init__(self, row_ptr: np.ndarray, col: np.ndarray,
                 weights: Optional[np.ndarray] = None):
        if row_ptr.ndim != 1 or col.ndim != 1:
            raise ValueError("row_ptr and col must be 1-D")
        if row_ptr[0] != 0 or row_ptr[-1] != len(col):
            raise ValueError("malformed row_ptr")
        self.row_ptr = row_ptr.astype(np.int64)
        self.col = col.astype(np.int64)
        self.weights = None if weights is None \
            else weights.astype(np.int64)

    @property
    def num_nodes(self) -> int:
        return len(self.row_ptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.col)

    def degree(self, u: int) -> int:
        return int(self.row_ptr[u + 1] - self.row_ptr[u])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def neighbors(self, u: int) -> np.ndarray:
        return self.col[self.row_ptr[u]:self.row_ptr[u + 1]]

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_nodes}, m={self.num_edges})"


def _build_csr(n: int, src: np.ndarray, dst: np.ndarray) -> CSRGraph:
    """Assemble CSR from parallel edge arrays: each vertex's targets
    sorted, with duplicates and self-loops dropped.  One lexsort over
    all edges (not a per-vertex ``np.unique``): the graph build is the
    bulk of a workload build."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst = src[first], dst[first]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_ptr[1:])
    return CSRGraph(row_ptr, dst)


def _from_targets(n: int, targets: np.ndarray,
                  symmetric: bool) -> CSRGraph:
    """CSR from an ``(n, degree)`` matrix of per-vertex targets; with
    ``symmetric`` every edge also gets its reverse (needed by tc and
    cc)."""
    src = np.repeat(np.arange(n, dtype=np.int64), targets.shape[1])
    dst = targets.reshape(-1)
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return _build_csr(n, src, dst)


def uniform_random(n: int, degree: int, seed: int = 1,
                   symmetric: bool = False) -> CSRGraph:
    """Uniform random graph: each vertex draws ``degree`` random targets."""
    if n < 2 or degree < 1:
        raise ValueError("need n >= 2 and degree >= 1")
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, n, size=(n, degree), dtype=np.int64)
    return _from_targets(n, targets, symmetric)


def power_law(n: int, degree: int, seed: int = 1, skew: float = 1.3,
              symmetric: bool = False) -> CSRGraph:
    """Power-law graph: targets drawn Zipf-like over a shuffled vertex
    permutation, giving a few high-degree hubs (graph-analytics-like)."""
    if n < 2 or degree < 1:
        raise ValueError("need n >= 2 and degree >= 1")
    if skew <= 1.0:
        raise ValueError("skew must be > 1.0")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    # Zipf ranks clipped into [0, n); rank 0 is the biggest hub.
    ranks = rng.zipf(skew, size=(n, degree)) - 1
    ranks = np.minimum(ranks, n - 1)
    return _from_targets(n, perm[ranks], symmetric)


def with_weights(graph: CSRGraph, seed: int = 7,
                 max_weight: int = 64) -> CSRGraph:
    """Attach uniform integer edge weights in [1, max_weight]."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, max_weight + 1, size=graph.num_edges,
                           dtype=np.int64)
    return CSRGraph(graph.row_ptr, graph.col, weights)
