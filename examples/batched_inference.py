#!/usr/bin/env python
"""End-to-end online inference through the serving subsystem.

The offline story (train a model, call ``predict_proba`` on ACFGs you
extracted yourself) becomes an online one in three steps:

1. **Publish** a fitted system to a model registry — a versioned,
   sha256-verified archive that also pins the fitted attribute-scaling
   parameters, so serve-time preprocessing is bitwise identical to
   training.
2. **Load** it into an :class:`~repro.serve.InferenceEngine`, which runs
   the whole listing-text -> CFG -> ACFG -> batched-DGCNN path with
   per-request fault isolation and a content-hash prediction cache.
3. **Coalesce** concurrent requests with a :class:`~repro.serve.MicroBatcher`
   so that simultaneous callers share one ``GraphBatch`` forward pass —
   the same machinery behind ``python -m repro.cli serve``.

Run:  python examples/batched_inference.py
"""

import tempfile
import threading

from repro.core import Magic, ModelConfig
from repro.datasets import generate_mskcfg_dataset, generate_mskcfg_listings
from repro.serve import InferenceEngine, MicroBatcher, publish
from repro.train import TrainingConfig


def train_and_publish(registry_root: str) -> None:
    dataset = generate_mskcfg_dataset(total=36, seed=0, minimum_per_family=4)
    magic = Magic(
        ModelConfig(
            num_attributes=dataset.acfgs[0].num_attributes,
            num_classes=dataset.num_classes,
            pooling="sort_weighted",
            graph_conv_sizes=(16, 16),
            sort_k=8,
            hidden_size=16,
            dropout=0.0,
            seed=0,
        ),
        dataset.family_names,
    )
    magic.fit(dataset.acfgs,
              training_config=TrainingConfig(epochs=3, batch_size=8, seed=0))
    info = publish(magic, registry_root, "mskcfg-demo")
    print(f"published {info.describe()} -> {info.path}")


def main() -> None:
    registry_root = tempfile.mkdtemp(prefix="magic-registry-")
    train_and_publish(registry_root)

    engine = InferenceEngine.from_registry(registry_root, "mskcfg-demo")

    # Fresh listings the model has never seen, plus an exact duplicate
    # (hits the content-hash cache) and a malformed one (fails alone,
    # with a structured kind, instead of poisoning the batch).
    listings = generate_mskcfg_listings(total=9, seed=7, minimum_per_family=1)
    samples = [(name, text) for name, text, _ in listings]
    samples.append(("duplicate-of-first", samples[0][1]))
    samples.append(("not-assembly", "this is not a disassembly listing"))

    print(f"\nclassifying {len(samples)} listings in one batch:")
    for result in engine.classify_texts(samples):
        print(f"  {result.describe()}")

    # Concurrent callers coalesce into shared forward passes.
    print(f"\nmicro-batching {len(listings)} concurrent requests:")
    with MicroBatcher(engine, max_batch_size=8, max_wait_ms=200.0) as batcher:
        threads = [
            threading.Thread(target=batcher.submit, args=(text,),
                             kwargs={"name": name})
            for name, text, _ in listings
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    snapshot = engine.metrics.snapshot()
    print(f"  batch size histogram: {snapshot['batches']['size_histogram']}")
    cache = snapshot["cache"]
    print(f"  cache exact/similar/miss: {cache['exact_hits']}/"
          f"{cache['similar_hits']}/{cache['misses']}")
    print(f"  requests ok/failed:   {snapshot['requests']['ok']}"
          f"/{snapshot['requests']['failed']}")


if __name__ == "__main__":
    main()
