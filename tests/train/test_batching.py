"""Tests for minibatch iteration and model-side collation."""

import numpy as np
import pytest

from repro.core.batched import GraphBatch
from repro.core.dgcnn import ModelConfig, build_model
from repro.exceptions import TrainingError
from repro.features.acfg import ACFG
from repro.train.batching import BatchCollator, iterate_minibatches


def make_acfgs(n):
    return [
        ACFG(
            edges=[],
            attributes=np.array([[float(i)]]),
            label=0,
            name=f"s{i}",
        )
        for i in range(n)
    ]


class TestMinibatches:
    def test_covers_all_samples_once(self):
        acfgs = make_acfgs(23)
        seen = []
        for batch in iterate_minibatches(acfgs, 5, rng=np.random.default_rng(0)):
            seen.extend(a.name for a in batch)
        assert sorted(seen) == sorted(a.name for a in acfgs)

    def test_batch_sizes(self):
        batches = list(
            iterate_minibatches(make_acfgs(23), 5, rng=np.random.default_rng(0))
        )
        assert [len(b) for b in batches] == [5, 5, 5, 5, 3]

    def test_no_shuffle_preserves_order(self):
        batches = list(iterate_minibatches(make_acfgs(6), 2, shuffle=False))
        assert [a.name for b in batches for a in b] == [f"s{i}" for i in range(6)]

    def test_shuffle_deterministic_for_seed(self):
        acfgs = make_acfgs(10)
        a = [x.name for b in iterate_minibatches(acfgs, 3, rng=np.random.default_rng(1)) for x in b]
        b = [x.name for b2 in iterate_minibatches(acfgs, 3, rng=np.random.default_rng(1)) for x in b2]
        assert a == b

    def test_invalid_batch_size(self):
        with pytest.raises(TrainingError):
            list(iterate_minibatches(make_acfgs(3), 0))


class TestCollateGraphs:
    def model(self, normalize_propagation=True):
        return build_model(ModelConfig(
            num_attributes=1, num_classes=2, pooling="sort_weighted",
            normalize_propagation=normalize_propagation,
        ))

    def test_builds_graph_batch(self):
        batch = self.model().collate(make_acfgs(3))
        assert batch.num_graphs == 3
        assert batch.normalized is True

    def test_unnormalized(self):
        batch = self.model(normalize_propagation=False).collate(make_acfgs(2))
        assert batch.normalized is False

    def test_benchmark_stub_returns_graph_batch(self):
        batch = BatchCollator()(make_acfgs(2))
        assert isinstance(batch, GraphBatch) and batch.num_graphs == 2
