"""Peak memory of the graph path grows linearly with the graph.

A CFG is sparse, so nothing between extraction and the forward pass may
hold an ``n x n`` array: at n = 50,000 a dense float64 adjacency alone
would need 18.6 GiB.  The test runs ACFG construction, the text-record
round trip (journal and dataset cache), batch collation and the WL
fingerprint under ``tracemalloc`` on a chain-plus-branch graph with
about 2n edges.
"""

import tracemalloc

import numpy as np

from repro.cfg.serialization import acfg_from_text, acfg_to_text
from repro.core.batched import GraphBatch
from repro.features.acfg import ACFG
from repro.similarity import fingerprint_acfg

#: Budget for the whole path at n = 50,000 (about 100k edges).
PEAK_LIMIT_BYTES = 64 * 2**20

#: A tenfold larger graph may cost at most this much more memory.
MAX_GROWTH = 12.0


def chain_plus_branch(n):
    """Edges ``i -> i+1`` plus a forward branch ``i -> i + 1 + i % 7``."""
    sources = np.arange(n - 1, dtype=np.int64)
    branch_sources = np.arange(n, dtype=np.int64)
    branch_targets = branch_sources + 1 + branch_sources % 7
    keep = branch_targets < n
    return np.concatenate([
        np.stack([sources, sources + 1], axis=1),
        np.stack([branch_sources[keep], branch_targets[keep]], axis=1),
    ])


def graph_path_peak(n):
    """Peak traced bytes of building, round-tripping, collating and
    fingerprinting one ``n``-vertex graph."""
    tracemalloc.start()
    try:
        attributes = np.tile(np.arange(11, dtype=np.float64), (n, 1))
        acfg = ACFG(edges=chain_plus_branch(n), attributes=attributes)
        edges, attributes, _ = acfg_from_text(
            acfg_to_text(acfg.edges, acfg.attributes)
        )
        restored = ACFG(edges=edges, attributes=attributes)
        batch = GraphBatch([restored])
        fingerprint = fingerprint_acfg(restored)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert restored.num_edges == acfg.num_edges > 1.8 * n
    assert batch.propagation.nnz == n + acfg.num_edges
    assert fingerprint.num_vertices == n
    return peak


def test_peak_memory_linear_up_to_50k_vertices():
    small = graph_path_peak(5_000)
    large = graph_path_peak(50_000)
    assert large < PEAK_LIMIT_BYTES, f"peak {large / 2**20:.1f} MiB at n=50k"
    assert large / small <= MAX_GROWTH, (
        f"5k -> 50k peak grew {large / small:.1f}x "
        f"({small / 2**20:.1f} -> {large / 2**20:.1f} MiB)"
    )
