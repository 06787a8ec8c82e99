"""Throughput: batched sparse default path vs per-graph dense reference.

Engineering benchmark behind the batch-first execution contract.  The
production forward pass runs the graph convolutions once over a
block-diagonal CSR merge of the minibatch (``GraphBatch``); the dense
per-graph loop survives only as ``DgcnnBase.forward_reference`` for
equivalence testing.  This bench keeps the speedup claim measured: it
records the actual ratio on the benchmark corpus, including the effect
of collate memoization (the trainer revisits fixed validation chunks
every epoch).

A second case times the adaptive-pooling head (Section III-C): the
batched head, one im2col contraction and a segmented max over the whole
batch with a backward through the recorded argmax cells, against the
per-graph ``conv2d -> relu -> adaptive_max_pool2d`` composition it
replaces.  Outputs must be bit-equal and the batched head at least 2x
faster, forward plus backward.

Historical note: an earlier revision of this bench measured the sparse
path *slower* and used that to justify a per-graph default — the batch
operator was being assembled from dense blocks, so every explicit zero
was stored (~1M "non-zeros" instead of ~14k).  Assembling from the
per-graph cached CSR operators removed that artifact.
"""

import gc
import time

import numpy as np

from repro.core.adaptive_pooling import AdaptivePoolingHead
from repro.core.dgcnn import ModelConfig, build_model
from repro.features.scaling import AttributeScaler
from repro.nn import functional as F
from repro.nn.tensor import Tensor, stack
from repro.train.batching import BatchCollator

from benchmarks.bench_common import save_result


def _model():
    return build_model(
        ModelConfig(
            num_attributes=11,
            num_classes=9,
            pooling="sort_weighted",   # cheapest head: isolates propagation
            graph_conv_sizes=(32, 32, 32, 32),
            sort_k=10,
            hidden_size=32,
            dropout=0.0,
            seed=0,
        )
    )


def _interleaved_best(contenders, rounds):
    """Best-of-``rounds`` seconds per contender, timed round-robin.

    Interleaving spreads machine-load drift over every contender; one
    warm-up call absorbs first-call allocator effects, and GC pauses
    during timing so a collection of one contender's autograd garbage
    does not land on the next.
    """
    best = {name: float("inf") for name in contenders}
    for fn in contenders.values():
        fn()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        for _ in range(rounds):
            for name, fn in contenders.items():
                started = time.perf_counter()
                fn()
                best[name] = min(best[name], time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def test_throughput_per_graph_vs_batched(benchmark, mskcfg_bench):
    acfgs = AttributeScaler().fit_transform(mskcfg_bench.acfgs)[:48]

    model = _model()
    model.eval()
    collator = BatchCollator()

    # Equivalence before timing: default path == per-graph reference.
    np.testing.assert_allclose(
        model(acfgs[:8]).data, model.forward_reference(acfgs[:8]).data,
        atol=1e-10,
    )

    # The reference path allocates thousands of small cyclic autograd
    # tensors, hence the GC pause inside the timing helper.
    best = _interleaved_best({
        "per_graph": lambda: model.forward_reference(acfgs),
        "batched_cold": lambda: model(model.collate(acfgs)),
        "batched_warm": lambda: model(collator(acfgs)),
    }, rounds=7)

    per_graph_seconds = best["per_graph"]
    batched_cold_seconds = best["batched_cold"]
    batched_warm_seconds = best["batched_warm"]

    ratio = batched_cold_seconds / per_graph_seconds
    print("\nPropagation throughput (48-graph batch, 4 conv layers):")
    print(f"  per-graph dense reference : {per_graph_seconds * 1000:7.1f} ms")
    print(f"  batched sparse (cold)     : {batched_cold_seconds * 1000:7.1f} ms")
    print(f"  batched sparse (memoized) : {batched_warm_seconds * 1000:7.1f} ms")
    print(f"  ratio (batched/per-graph) : {ratio:.2f}x")

    # The batch-first default must never regress behind the old
    # per-graph default (small tolerance absorbs timer noise); the
    # memoized path is what Trainer actually runs, so it gets the
    # tighter bound.
    assert batched_cold_seconds <= per_graph_seconds * 1.10, (
        f"batched path regressed: {batched_cold_seconds * 1000:.1f} ms vs "
        f"per-graph {per_graph_seconds * 1000:.1f} ms"
    )
    assert batched_warm_seconds <= per_graph_seconds * 1.05, (
        f"memoized batched path regressed: "
        f"{batched_warm_seconds * 1000:.1f} ms vs "
        f"per-graph {per_graph_seconds * 1000:.1f} ms"
    )

    benchmark(lambda: model(collator(acfgs[:16])))

    save_result("throughput_batching", {
        "per_graph_ms": per_graph_seconds * 1000,
        "batched_ms": batched_cold_seconds * 1000,
        "batched_memoized_ms": batched_warm_seconds * 1000,
        "ratio": ratio,
        "batch_size": len(acfgs),
    })


#: Vertex counts of the fixed ragged batch: a one-row and a two-row graph
#: (fewer rows than the 3-row grid) around the corpus mean (~94) and max
#: (~312) of the synthetic MSKCFG graphs.
HEAD_BATCH_SIZES = (1, 2, 37, 94, 150, 312, 8, 60, 120, 45)


def _per_graph_head(head, z, boundaries):
    """The per-graph composition the batched head replaces."""
    pooled = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        rows = z[int(start):int(end)]
        image = rows.reshape(1, 1, *rows.shape)
        convolved = F.conv2d(image, head.conv.weight, head.conv.bias, padding=1).relu()
        volume = F.adaptive_max_pool2d(convolved, head.output_grid)
        pooled.append(volume.reshape(head.channels, *head.output_grid))
    return stack(pooled, axis=0)


def test_adaptive_pooling_head_batched_vs_per_graph():
    rng = np.random.default_rng(0)
    head = AdaptivePoolingHead(16, output_grid=(3, 3), rng=rng)
    head.conv.bias.data = rng.standard_normal(16) * 0.1
    boundaries = np.concatenate([[0], np.cumsum(HEAD_BATCH_SIZES)])
    z_data = np.tanh(rng.standard_normal((int(boundaries[-1]), 128)))
    upstream = rng.standard_normal((len(HEAD_BATCH_SIZES), 16, 3, 3))

    def forward_backward(forward):
        z = Tensor(z_data, requires_grad=True)
        out = forward(z)
        out.backward(upstream)
        return out.data

    batched = lambda: forward_backward(lambda z: head(z, boundaries))  # noqa: E731
    per_graph = lambda: forward_backward(  # noqa: E731
        lambda z: _per_graph_head(head, z, boundaries)
    )
    np.testing.assert_array_equal(batched(), per_graph())

    best = _interleaved_best({"per_graph": per_graph, "batched": batched}, rounds=7)
    speedup = best["per_graph"] / best["batched"]
    print(f"\nAdaptive-pooling head, forward + backward "
          f"({len(HEAD_BATCH_SIZES)} graphs, {int(boundaries[-1])} rows):")
    print(f"  per-graph conv2d/relu/AMP : {best['per_graph'] * 1000:7.1f} ms")
    print(f"  batched head              : {best['batched'] * 1000:7.1f} ms")
    print(f"  speed-up                  : {speedup:.2f}x")

    save_result("throughput_adaptive_head", {
        "per_graph_ms": best["per_graph"] * 1000,
        "batched_ms": best["batched"] * 1000,
        "speedup": speedup,
        "graph_sizes": list(HEAD_BATCH_SIZES),
    })
    assert speedup >= 2.0, f"batched head only {speedup:.2f}x faster than per-graph"
