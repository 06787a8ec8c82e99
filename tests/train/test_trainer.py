"""Tests for the training loop."""

import gc

import numpy as np
import pytest

from repro.core.batched import GraphBatch
from repro.core.dgcnn import ModelConfig, build_model
from repro.exceptions import TrainingError
from repro.features.scaling import AttributeScaler
from repro.train.trainer import Trainer, TrainingConfig

from tests.conftest import dense_acfg


def toy_dataset(rng, n_per_class=8):
    """Two families separable by attribute shift and density."""
    acfgs = []
    for label in (0, 1):
        for _ in range(n_per_class):
            n = int(rng.integers(4, 9))
            adjacency = (rng.random((n, n)) < (0.15 + 0.4 * label)).astype(float)
            np.fill_diagonal(adjacency, 0.0)
            attributes = rng.standard_normal((n, 11)) + 2.5 * label
            acfgs.append(
                dense_acfg(adjacency=adjacency, attributes=attributes, label=label)
            )
    return acfgs


def small_model(seed=0):
    return build_model(
        ModelConfig(
            num_attributes=11,
            num_classes=2,
            pooling="sort_weighted",
            graph_conv_sizes=(8, 8),
            sort_k=4,
            hidden_size=8,
            dropout=0.0,
            seed=seed,
        )
    )


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            TrainingConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainingConfig(batch_size=0)


class TestTrainer:
    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            Trainer(TrainingConfig(epochs=1)).train(small_model(), [])

    def test_unlabelled_rejected(self, rng):
        acfgs = toy_dataset(rng)
        acfgs[0].label = None
        with pytest.raises(TrainingError):
            Trainer(TrainingConfig(epochs=1)).train(small_model(), acfgs)

    def test_loss_decreases_over_training(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))
        history = Trainer(
            TrainingConfig(epochs=12, batch_size=8, learning_rate=5e-3)
        ).train(small_model(), acfgs)
        assert history.num_epochs == 12
        assert history.train_losses[-1] < history.train_losses[0]

    def test_validation_tracked_and_best_recorded(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))
        train, val = acfgs[:10], acfgs[10:]
        history = Trainer(TrainingConfig(epochs=5, batch_size=4)).train(
            small_model(), train, val
        )
        assert len(history.validation_losses) == 5
        assert 0 <= history.best_epoch < 5
        assert history.best_validation_loss == min(history.validation_losses)

    def test_restore_best_loads_best_epoch_weights(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng))
        train, val = acfgs[:10], acfgs[10:]
        model = small_model()
        trainer = Trainer(TrainingConfig(epochs=8, batch_size=4, learning_rate=1e-2))
        history = trainer.train(model, train, val, restore_best=True)
        final_loss = Trainer.evaluate_loss(model, val)
        assert final_loss == pytest.approx(history.best_validation_loss, rel=1e-6)

    def test_timing_recorded(self, rng):
        acfgs = toy_dataset(rng, n_per_class=3)
        history = Trainer(TrainingConfig(epochs=1, batch_size=2)).train(
            small_model(), acfgs
        )
        assert history.train_seconds_per_instance > 0

    def test_deterministic_given_seeds(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng, n_per_class=4))
        losses = []
        for _ in range(2):
            history = Trainer(
                TrainingConfig(epochs=3, batch_size=4, seed=5)
            ).train(small_model(seed=3), acfgs)
            losses.append(history.train_losses)
        np.testing.assert_allclose(losses[0], losses[1])

    def test_no_graph_batch_outlives_training(self, rng):
        acfgs = AttributeScaler().fit_transform(toy_dataset(rng, n_per_class=4))
        trainer = Trainer(TrainingConfig(epochs=2, batch_size=3))
        trainer.train(small_model(), acfgs[:6], acfgs[6:])
        gc.collect()
        alive = [o for o in gc.get_objects() if isinstance(o, GraphBatch)]
        assert alive == []


class TestEvaluation:
    def test_predict_proba_batched_consistently(self, rng):
        acfgs = toy_dataset(rng, n_per_class=5)
        model = small_model()
        all_at_once = Trainer.predict_proba(model, acfgs, batch_size=64)
        chunked = Trainer.predict_proba(model, acfgs, batch_size=3)
        np.testing.assert_allclose(all_at_once, chunked, atol=1e-12)

    def test_evaluate_report_families(self, rng):
        acfgs = toy_dataset(rng, n_per_class=4)
        report = Trainer.evaluate(small_model(), acfgs, family_names=["a", "b"])
        assert report.family_names == ["a", "b"]
        assert report.confusion.sum() == len(acfgs)

    @pytest.mark.parametrize("evaluate", [
        Trainer.predict_proba,
        Trainer.evaluate_loss,
        Trainer.evaluate,
    ])
    def test_empty_input_rejected(self, evaluate):
        with pytest.raises(TrainingError, match="empty"):
            evaluate(small_model(), [])
