"""Model training loop (Section V-B).

Reproduces the paper's protocol: Adam with L2 weight regularization,
mean negative log-likelihood loss (Equation 5), the
drop-LR-by-10x-after-two-consecutive-validation-increases rule, and
best-epoch selection by minimum validation loss.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.adv.attack import perturb_batch_scaled
from repro.exceptions import TrainingDivergedError, TrainingError
from repro.features.acfg import ACFG
from repro.nn.clip import clip_grad_norm
from repro.nn.layers import Module
from repro.nn.loss import nll_loss
from repro.nn.lr_scheduler import ReduceLROnPlateau
from repro.nn.optim import Adam
from repro.train.batching import iterate_minibatches
from repro.train.metrics import ClassificationReport, evaluate_predictions


@dataclasses.dataclass(frozen=True)
class AdversarialConfig:
    """Inner-attack settings for adversarial training (PGD-AT).

    Each training batch is additionally perturbed by a short PGD run in
    scaled feature space (:func:`repro.adv.attack.perturb_batch_scaled`)
    and the optimization step descends a mix of the clean and attacked
    losses: ``(1 - weight) * L(x) + weight * L(x_adv)``.

    The inner attack is the *relaxed* threat model — no integer/semantic
    projection — which upper-bounds the projected evaluation attack, so
    robustness trained here transfers to the realistic one.  ``epsilon``
    and ``step_size`` are in scaled (z-scored) units, matching
    :class:`repro.adv.attack.AttackConfig`.
    """

    steps: int = 3
    epsilon: float = 1.0
    step_size: Optional[float] = None
    #: Weight of the adversarial loss term in the clean/adversarial mix.
    weight: float = 0.5
    random_start: bool = True

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise TrainingError(
                f"adversarial steps must be >= 1, got {self.steps}"
            )
        if self.epsilon <= 0.0:
            raise TrainingError(
                f"adversarial epsilon must be > 0, got {self.epsilon}"
            )
        if not 0.0 < self.weight <= 1.0:
            raise TrainingError(
                f"adversarial weight must be in (0, 1], got {self.weight}"
            )

    @property
    def resolved_step_size(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.steps


@dataclasses.dataclass(frozen=True)
class TrainingConfig:
    """Optimization hyper-parameters (the training rows of Table II).

    ``grad_clip_norm`` is an optional global-L2 gradient cap; ``None``
    (the default, matching the paper) disables clipping.

    ``halt_on_divergence`` controls what happens when a training step
    produces a non-finite loss or gradient: ``True`` (default) raises
    :class:`~repro.exceptions.TrainingDivergedError` carrying the
    epoch/batch — so a sweep records the run as a structured failure
    instead of ranking a NaN score — while ``False`` stops the run
    early, marks the divergence on the :class:`TrainingHistory`, and
    returns the best parameters seen so far.

    ``adversarial`` switches on adversarial training: every batch is
    perturbed by a short inner PGD attack and the step descends a
    clean/adversarial loss mix (see :class:`AdversarialConfig`).
    Inner-attack randomness is seeded per ``(seed, epoch, batch)`` via
    ``SeedSequence``, so a fixed seed reproduces the run bit for bit.

    ``compiled`` is accepted and ignored: the eager autograd engine is
    the only execution path.  It stays only for the benchmark harness,
    which still passes it.
    """

    epochs: int = 100
    batch_size: int = 10
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    lr_decay_factor: float = 0.1
    lr_decay_patience: int = 2
    grad_clip_norm: Optional[float] = None
    halt_on_divergence: bool = True
    compiled: dataclasses.InitVar[bool] = True
    seed: int = 0
    adversarial: Optional[AdversarialConfig] = None

    def __post_init__(self, compiled: bool) -> None:
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch record of one training run."""

    train_losses: List[float] = dataclasses.field(default_factory=list)
    validation_losses: List[float] = dataclasses.field(default_factory=list)
    learning_rates: List[float] = dataclasses.field(default_factory=list)
    best_epoch: int = -1
    best_validation_loss: float = float("inf")
    train_seconds_per_instance: float = 0.0
    #: Set when ``halt_on_divergence=False`` stopped the run early on a
    #: non-finite loss/gradient; ``(-1, -1)`` means the run was clean.
    diverged_epoch: int = -1
    diverged_batch: int = -1

    @property
    def diverged(self) -> bool:
        return self.diverged_epoch >= 0

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses)

    def to_dict(self) -> Dict:
        """JSON-ready form for the sweep checkpoint journal.

        Python's float repr round-trips exactly through JSON, so a
        journaled history reproduces the in-memory one bit for bit.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "TrainingHistory":
        return cls(**payload)


class Trainer:
    """Trains one DGCNN (or any batch-of-ACFGs model) on labelled ACFGs.

    Every forward gets a plain ACFG list; the model collates it.
    """

    def __init__(self, config: TrainingConfig) -> None:
        self.config = config
        #: Always ``None``; kept only for the benchmark harness.
        self.last_collator: None = None
        #: Always ``None``; kept only for the benchmark harness.
        self.last_compiled: None = None

    def train(
        self,
        model: Module,
        train_acfgs: Sequence[ACFG],
        validation_acfgs: Optional[Sequence[ACFG]] = None,
        restore_best: bool = True,
    ) -> TrainingHistory:
        """Run the full training loop; returns the epoch history.

        When ``validation_acfgs`` is given, the LR schedule follows the
        validation loss and (with ``restore_best``) the model ends at the
        parameters of its best validation epoch — the paper's "minimum
        validation loss over the 100 epochs" criterion.
        """
        if not train_acfgs:
            raise TrainingError("cannot train on an empty dataset")
        if any(acfg.label is None for acfg in train_acfgs):
            raise TrainingError("all training ACFGs must be labelled")

        config = self.config
        rng = np.random.default_rng(config.seed)
        optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        scheduler = ReduceLROnPlateau(
            optimizer,
            factor=config.lr_decay_factor,
            patience=config.lr_decay_patience,
        )
        history = TrainingHistory()
        best_state: Optional[Dict[str, np.ndarray]] = None
        instances_seen = 0
        train_time = 0.0
        adversarial = config.adversarial

        for epoch in range(config.epochs):
            model.train(True)
            epoch_losses: List[float] = []
            started = time.perf_counter()
            for batch_index, batch in enumerate(iterate_minibatches(
                train_acfgs, config.batch_size, rng=rng
            )):
                labels = np.array([acfg.label for acfg in batch], dtype=np.int64)
                attacked: Optional[List[ACFG]] = None
                if adversarial is not None:
                    attack_rng = (
                        np.random.default_rng(np.random.SeedSequence(
                            [config.seed, epoch, batch_index]
                        ))
                        if adversarial.random_start
                        else None
                    )
                    attacked, attack_loss = perturb_batch_scaled(
                        model,
                        batch,
                        labels,
                        epsilon=adversarial.epsilon,
                        steps=adversarial.steps,
                        step_size=adversarial.resolved_step_size,
                        rng=attack_rng,
                    )
                    if not np.isfinite(attack_loss):
                        self._diverged(
                            "inner-attack loss is not finite",
                            history, epoch, batch_index, float(attack_loss),
                        )
                        break
                # zero_grad runs *after* the inner attack: its backward
                # passes accumulated throwaway gradients into the model
                # parameters, which must not leak into the real step.
                optimizer.zero_grad()
                loss = nll_loss(model(batch), labels)
                if attacked is not None:
                    assert adversarial is not None
                    adversarial_loss = nll_loss(model(attacked), labels)
                    loss = (
                        loss * (1.0 - adversarial.weight)
                        + adversarial_loss * adversarial.weight
                    )
                loss_value = loss.item()
                if not np.isfinite(loss_value):
                    self._diverged(
                        "training loss is not finite",
                        history, epoch, batch_index, loss_value,
                    )
                    break
                loss.backward()
                if not self._gradients_finite(model):
                    self._diverged(
                        "gradients are not finite",
                        history, epoch, batch_index, loss_value,
                    )
                    break
                if config.grad_clip_norm is not None:
                    clip_grad_norm(model.parameters(), config.grad_clip_norm)
                optimizer.step()
                epoch_losses.append(loss_value)
                instances_seen += len(batch)
            train_time += time.perf_counter() - started
            if history.diverged:
                # halt_on_divergence=False: stop here with the best
                # parameters seen so far; the partial epoch is dropped.
                break

            train_loss = float(np.mean(epoch_losses))
            history.train_losses.append(train_loss)
            history.learning_rates.append(optimizer.lr)

            if validation_acfgs:
                validation_loss = self.evaluate_loss(model, validation_acfgs)
                history.validation_losses.append(validation_loss)
                monitored = validation_loss
            else:
                monitored = train_loss

            if monitored < history.best_validation_loss:
                history.best_validation_loss = monitored
                history.best_epoch = epoch
                if restore_best:
                    best_state = model.state_dict()

            scheduler.step(monitored)

        if restore_best and best_state is not None:
            model.load_state_dict(best_state)
        if instances_seen:
            history.train_seconds_per_instance = train_time / instances_seen
        return history

    # ------------------------------------------------------------------
    # divergence guard

    @staticmethod
    def _gradients_finite(model: Module) -> bool:
        return all(
            param.grad is None or np.isfinite(param.grad).all()
            for param in model.parameters()
        )

    def _diverged(
        self,
        reason: str,
        history: TrainingHistory,
        epoch: int,
        batch: int,
        loss_value: float,
    ) -> None:
        """Non-finite loss/gradient: raise or record, per the config.

        A diverged optimizer state is unrecoverable (NaN propagates into
        every parameter it touches), so there is no continue-training
        option — only "raise a structured error" (the sweep-friendly
        default) or "stop early and keep the best finite parameters".
        """
        if self.config.halt_on_divergence:
            raise TrainingDivergedError(
                reason, epoch=epoch, batch=batch, loss=loss_value
            )
        history.diverged_epoch = epoch
        history.diverged_batch = batch

    # ------------------------------------------------------------------
    # evaluation helpers

    @staticmethod
    def predict_proba(
        model: Module,
        acfgs: Sequence[ACFG],
        batch_size: int = 64,
    ) -> np.ndarray:
        """Class probabilities over ``acfgs`` (gradient-free, eval mode).

        The model sees ``batch_size`` graphs per forward.
        """
        if not acfgs:
            raise TrainingError("cannot predict on an empty dataset")
        model.train(False)
        chunks = [
            np.exp(model(list(acfgs[start : start + batch_size])).data)
            for start in range(0, len(acfgs), batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    @classmethod
    def evaluate_loss(cls, model: Module, acfgs: Sequence[ACFG]) -> float:
        """Mean NLL of the true labels under the model."""
        labels = np.array([acfg.label for acfg in acfgs], dtype=np.int64)
        probabilities = cls.predict_proba(model, acfgs)
        eps = 1e-15
        picked = np.clip(probabilities[np.arange(len(labels)), labels], eps, 1.0)
        return float(-np.log(picked).mean())

    @classmethod
    def evaluate(
        cls,
        model: Module,
        acfgs: Sequence[ACFG],
        family_names: Optional[Sequence[str]] = None,
    ) -> ClassificationReport:
        """Full precision/recall/F1/accuracy/log-loss report."""
        labels = np.array([acfg.label for acfg in acfgs], dtype=np.int64)
        probabilities = cls.predict_proba(model, acfgs)
        return evaluate_predictions(
            labels,
            probabilities,
            num_classes=probabilities.shape[1],
            family_names=family_names,
        )
