"""Tests for the end-to-end MAGIC system."""

import numpy as np
import pytest

from repro.core.dgcnn import ModelConfig
from repro.core.magic import Magic
from repro.exceptions import ConfigurationError, MagicError, TrainingError
from repro.train.trainer import TrainingConfig

from tests.conftest import SAMPLE_ASM


def small_config(num_classes=9):
    return ModelConfig(
        num_attributes=11,
        num_classes=num_classes,
        pooling="adaptive",
        graph_conv_sizes=(8, 8),
        amp_grid=(2, 2),
        conv2d_channels=4,
        hidden_size=16,
        dropout=0.1,
        seed=0,
    )


@pytest.fixture(scope="module")
def trained_magic(tiny_mskcfg):
    magic = Magic(small_config(), tiny_mskcfg.family_names)
    train, _ = tiny_mskcfg.stratified_split(0.2, seed=0)
    magic.fit(
        train.acfgs,
        training_config=TrainingConfig(epochs=3, batch_size=10, seed=0),
    )
    return magic


# module-scope fixture needs the session dataset; re-export it
@pytest.fixture(scope="module")
def tiny_mskcfg(request):
    from repro.datasets import generate_mskcfg_dataset

    return generate_mskcfg_dataset(total=45, seed=11)


class TestConstruction:
    def test_family_count_must_match(self):
        with pytest.raises(ConfigurationError):
            Magic(small_config(num_classes=9), ["only", "two"])


class TestIngestion:
    def test_acfg_from_asm(self):
        magic = Magic(small_config(), [f"f{i}" for i in range(9)])
        acfg = magic.acfg_from_asm(SAMPLE_ASM, name="s")
        assert acfg.num_vertices == 5
        assert acfg.num_attributes == 11


class TestTrainPredict:
    def test_predict_before_fit_rejected(self, tiny_mskcfg):
        magic = Magic(small_config(), tiny_mskcfg.family_names)
        with pytest.raises(MagicError):
            magic.predict(tiny_mskcfg.acfgs[:2])

    def test_fit_returns_history(self, trained_magic):
        assert trained_magic.history is not None
        assert trained_magic.history.num_epochs == 3

    def test_predict_shapes(self, trained_magic, tiny_mskcfg):
        probabilities = trained_magic.predict_proba(tiny_mskcfg.acfgs[:5])
        assert probabilities.shape == (5, 9)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)
        predictions = trained_magic.predict(tiny_mskcfg.acfgs[:5])
        assert predictions.shape == (5,)

    def test_predict_empty_rejected(self, trained_magic):
        with pytest.raises(TrainingError, match="empty"):
            trained_magic.predict_proba([])

    def test_predict_family_names(self, trained_magic, tiny_mskcfg):
        families = trained_magic.predict_family(tiny_mskcfg.acfgs[:3])
        assert all(f in tiny_mskcfg.family_names for f in families)

    def test_classify_asm_one_call(self, trained_magic):
        family, probabilities = trained_magic.classify_asm(SAMPLE_ASM)
        assert family in trained_magic.family_names
        assert probabilities.shape == (9,)

    def test_evaluate_report(self, trained_magic, tiny_mskcfg):
        report = trained_magic.evaluate(tiny_mskcfg.acfgs)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.family_names == tiny_mskcfg.family_names

    def test_measure_timing(self, trained_magic):
        timing = trained_magic.measure_timing([SAMPLE_ASM] * 3)
        assert timing.feature_seconds_per_sample > 0
        assert timing.predict_seconds_per_sample > 0

    def test_measure_timing_empty_rejected(self, trained_magic):
        with pytest.raises(MagicError):
            trained_magic.measure_timing([])


class TestPersistence:
    def test_save_load_roundtrip(self, trained_magic, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "model")
        trained_magic.save(directory)
        restored = Magic.load(directory)
        assert restored.family_names == trained_magic.family_names
        original = trained_magic.predict_proba(tiny_mskcfg.acfgs[:4])
        reloaded = restored.predict_proba(tiny_mskcfg.acfgs[:4])
        np.testing.assert_allclose(original, reloaded, atol=1e-12)

    def test_save_before_fit_rejected(self, tiny_mskcfg, tmp_path):
        magic = Magic(small_config(), tiny_mskcfg.family_names)
        with pytest.raises(MagicError):
            magic.save(str(tmp_path / "nope"))

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(MagicError):
            Magic.load(str(tmp_path / "missing"))
