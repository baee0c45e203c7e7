"""GAP cc: connected components by min-label propagation
(Shiloach-Vishkin flavour) on an undirected graph.

The inner loop's ``cv < cu`` test is data-dependent on a random-access
load, and iterations over vertices reconverge at the next vertex — the
converging pattern the paper describes for GAP.
"""

from __future__ import annotations

import numpy as np

from repro.workloads import graphs
from repro.workloads.base import Workload, build_program

SOURCE = """
int row_ptr[{n1}];
int col[{m}];
int comp[{n}];

void main() {{
    int n = {n};
    for (int i = 0; i < n; i += 1) {{
        comp[i] = i;
    }}
    int changed = 1;
    while (changed) {{
        changed = 0;
        for (int u = 0; u < n; u += 1) {{
            int cu = comp[u];
            int rb = row_ptr[u];
            int re = row_ptr[u + 1];
            for (int j = rb; j < re; j += 1) {{
                int cv = comp[col[j]];
                if (cv < cu) {{
                    cu = cv;
                    changed = 1;
                }}
            }}
            comp[u] = cu;
        }}
    }}
    int sum = 0;
    for (int i = 0; i < n; i += 1) {{
        sum += comp[i];
    }}
    print_int(sum);
}}
"""


def reference(graph: graphs.CSRGraph) -> int:
    """Sum over vertices of the minimum vertex id in their component."""
    # Deferred: scipy costs every CLI start ~0.3 s; only this check uses it.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    n = graph.num_nodes
    matrix = csr_matrix(
        (np.ones(graph.num_edges, dtype=np.int8),
         graph.col, graph.row_ptr), shape=(n, n))
    _, labels = connected_components(matrix, directed=False)
    min_id = {}
    for v in range(n):
        label = labels[v]
        if label not in min_id:
            min_id[label] = v  # vertex ids ascend, first hit is the min
    return int(sum(min_id[labels[v]] for v in range(n)))


def build(scale: str = "small", seed: int = 3,
          check: bool = True) -> Workload:
    from repro.workloads.gap import GRAPH_SCALES
    n, degree = GRAPH_SCALES[scale]
    # Undirected so min-label propagation converges per component.
    graph = graphs.uniform_random(n, max(2, degree // 2), seed=seed,
                                  symmetric=True)
    src = SOURCE.format(n=n, n1=n + 1, m=graph.num_edges)
    program = build_program(src, {
        "row_ptr": graph.row_ptr,
        "col": graph.col,
    })
    expected = [reference(graph)] if check else None
    return Workload("cc", "gap", program,
                    description="connected components, min-label "
                                "propagation (GAP)",
                    expected_output=expected,
                    meta={"nodes": n, "edges": graph.num_edges,
                          "scale": scale, "seed": seed})
