"""Tests for synthetic graph generation."""

import numpy as np
import pytest

from repro.workloads import graphs


class TestCSRGraph:
    def test_well_formed(self):
        g = graphs.uniform_random(100, 5, seed=1)
        assert g.num_nodes == 100
        assert g.row_ptr[0] == 0
        assert g.row_ptr[-1] == g.num_edges
        assert np.all(np.diff(g.row_ptr) >= 0)
        assert np.all(g.col >= 0) and np.all(g.col < 100)

    def test_neighbors_sorted_unique_no_self_loops(self):
        g = graphs.power_law(200, 8, seed=3)
        for u in range(g.num_nodes):
            neighbors = g.neighbors(u)
            assert np.all(np.diff(neighbors) > 0)  # sorted & unique
            assert u not in neighbors

    def test_deterministic(self):
        a = graphs.uniform_random(64, 4, seed=9)
        b = graphs.uniform_random(64, 4, seed=9)
        assert np.array_equal(a.col, b.col)
        c = graphs.uniform_random(64, 4, seed=10)
        assert not np.array_equal(a.col, c.col) or a.num_edges != c.num_edges

    def test_degree_accessors(self):
        g = graphs.uniform_random(50, 4, seed=2)
        assert g.degree(0) == len(g.neighbors(0))
        assert np.sum(g.out_degrees()) == g.num_edges

    def test_malformed_row_ptr_rejected(self):
        with pytest.raises(ValueError):
            graphs.CSRGraph(np.array([1, 2]), np.array([0]))


class TestGenerators:
    def test_power_law_is_skewed(self):
        g = graphs.power_law(1000, 8, seed=5)
        in_degrees = np.bincount(g.col, minlength=1000)
        # Hubs: the max in-degree dwarfs the mean.
        assert in_degrees.max() > 8 * in_degrees.mean()

    def test_uniform_is_not_skewed(self):
        g = graphs.uniform_random(1000, 8, seed=5)
        in_degrees = np.bincount(g.col, minlength=1000)
        assert in_degrees.max() < 6 * max(in_degrees.mean(), 1)

    def test_symmetric_graphs_are_symmetric(self):
        g = graphs.power_law(150, 5, seed=7, symmetric=True)
        edges = set()
        for u in range(g.num_nodes):
            for v in g.neighbors(u):
                edges.add((u, int(v)))
        for u, v in edges:
            assert (v, u) in edges

    @pytest.mark.parametrize("n, m, seed", [(5, 0, 0), (2, 3, 1),
                                            (50, 400, 2), (300, 5000, 3)])
    def test_csr_matches_per_vertex_reference(self, n, m, seed):
        """The one-lexsort CSR assembly equals the per-vertex
        sort-unique-drop-self-loop loop it replaced."""
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, size=m, dtype=np.int64)
        dst = rng.integers(0, n, size=m, dtype=np.int64)
        g = graphs._build_csr(n, src, dst)
        row_ptr, col = [0], []
        for u in range(n):
            targets = np.unique(dst[src == u])
            col.extend(targets[targets != u].tolist())
            row_ptr.append(len(col))
        assert g.row_ptr.tolist() == row_ptr
        assert g.col.tolist() == col

    def test_with_weights(self):
        g = graphs.with_weights(graphs.uniform_random(50, 4, seed=1),
                                seed=2, max_weight=10)
        assert g.weights is not None
        assert len(g.weights) == g.num_edges
        assert g.weights.min() >= 1 and g.weights.max() <= 10

    @pytest.mark.parametrize("fn", [graphs.uniform_random,
                                    graphs.power_law])
    def test_invalid_parameters(self, fn):
        with pytest.raises(ValueError):
            fn(1, 4)
        with pytest.raises(ValueError):
            fn(10, 0)

    def test_power_law_skew_validation(self):
        with pytest.raises(ValueError):
            graphs.power_law(10, 2, skew=0.5)
