"""Topology-aware CFG similarity: fingerprints, minhash, LSH, dedup.

Real malware traffic is dominated by repacked and trivially mutated
variants of a small number of families; the exact sha256-of-text
prediction cache misses on exactly those repeats.  This package computes
a fingerprint that survives such mutations — Weisfeiler-Lehman
relabeling over the CFG's edge list, seeded with quantized
per-vertex attribute buckets — and the machinery to look near-duplicates
up fast:

* :mod:`repro.similarity.fingerprint` — deterministic, vertex-order
  invariant WL label multisets over quantized ACFG attributes.
* :mod:`repro.similarity.minhash` — fixed-seed minhash signatures with
  an estimated-Jaccard comparator.
* :mod:`repro.similarity.lsh` — the banded :class:`SimilarityIndex`:
  bounded (LRU), thread-safe, threshold-gated near-duplicate lookup.
* :mod:`repro.similarity.dedup` — corpus-level near-duplicate
  clustering for the ``repro.cli dedup`` pre-training pass.

The serving integration (second cache tier behind the exact tier) lives
in :mod:`repro.serve.engine`; every fingerprint and signature here is
bit-reproducible across processes (blake2b hashing, explicitly seeded
generators only).
"""

from repro.similarity.dedup import (
    DedupReport,
    DuplicateCluster,
    DuplicateMember,
    find_near_duplicates,
    keeper_of,
)
from repro.similarity.fingerprint import (
    DEFAULT_WL_ITERATIONS,
    CfgFingerprint,
    fingerprint_acfg,
    quantize_attributes,
)
from repro.similarity.lsh import (
    DEFAULT_INDEX_SIZE,
    DEFAULT_NUM_BANDS,
    DEFAULT_SIMILARITY_THRESHOLD,
    SimilarityIndex,
    SimilarityMatch,
)
from repro.similarity.minhash import (
    DEFAULT_MINHASH_SEED,
    DEFAULT_NUM_PERMUTATIONS,
    MinHasher,
    estimated_jaccard,
)

__all__ = [
    "CfgFingerprint",
    "DEFAULT_INDEX_SIZE",
    "DEFAULT_MINHASH_SEED",
    "DEFAULT_NUM_BANDS",
    "DEFAULT_NUM_PERMUTATIONS",
    "DEFAULT_SIMILARITY_THRESHOLD",
    "DEFAULT_WL_ITERATIONS",
    "DedupReport",
    "DuplicateCluster",
    "DuplicateMember",
    "MinHasher",
    "SimilarityIndex",
    "SimilarityMatch",
    "estimated_jaccard",
    "find_near_duplicates",
    "fingerprint_acfg",
    "keeper_of",
    "quantize_attributes",
]
