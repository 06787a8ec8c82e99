"""The served model: Table II's best configuration, trained once per checkout.

classify-fresh and serve-replay both serve the paper's best model
(adaptive pooling, graph convs (32,32,32,32), AMP grid 3x3, 16 conv2d
channels, hidden 64) in float64 with the default compiled tape.  Training
it takes about a minute on two CPUs, longer than a measured run, so it is
trained from a fixed seed on the first run in a checkout and published to
a registry under the work directory; later runs load it.  Training time
is input preparation and stays out of every timed metric; it runs in a
child process (``python3 -m perfbench.model``), so the measuring
process's heap, and with it its peak RSS, is the same on the first run
in a checkout as on every later one.  Each run's
``--seed`` drives the workload inputs, which never overlap the training
corpus (:data:`perfbench.inputs.TRAFFIC_SEED_BASE`).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

from benchmarks.bench_common import best_model_config
from perfbench.common import ROOT, WORK_DIR, log

#: Training corpus and schedule of the served model.
MODEL_SEED = 0
TRAIN_TOTAL = 180
TRAIN_MIN_PER_FAMILY = 8
TRAIN_EPOCHS = 10
TRAIN_LR = 3e-3
VALIDATION_EVERY = 10  # every tenth sample goes to the validation split

MODEL_NAME = "magic"
MODEL_VERSION = "v1"
REGISTRY = os.path.join(WORK_DIR, f"registry-seed{MODEL_SEED}")


def ensure_registry() -> str:
    """Registry root holding the trained model, training it if absent."""
    from repro.serve.registry import list_versions

    if MODEL_VERSION not in list_versions(REGISTRY, MODEL_NAME):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        subprocess.run([sys.executable, "-m", "perfbench.model"], cwd=ROOT, env=env,
                       check=True)
    return REGISTRY


def _train_and_publish() -> None:
    from repro.core import Magic
    from repro.datasets.mskcfg import MSKCFG_FAMILIES, generate_mskcfg_listings
    from repro.features.pipeline import AcfgPipeline
    from repro.serve import publish
    from repro.train import TrainingConfig

    log(f"training the served model (seed {MODEL_SEED}); this happens once per checkout")
    started = time.perf_counter()
    listings = generate_mskcfg_listings(
        total=TRAIN_TOTAL, seed=MODEL_SEED, minimum_per_family=TRAIN_MIN_PER_FAMILY
    )
    acfgs = AcfgPipeline().extract_from_texts(listings).acfgs
    train = [a for i, a in enumerate(acfgs) if i % VALIDATION_EVERY]
    validation = [a for i, a in enumerate(acfgs) if not i % VALIDATION_EVERY]
    magic = Magic(best_model_config(len(MSKCFG_FAMILIES), MODEL_SEED), MSKCFG_FAMILIES)
    magic.fit(train, validation, TrainingConfig(
        epochs=TRAIN_EPOCHS, batch_size=10, learning_rate=TRAIN_LR, seed=MODEL_SEED,
    ))
    # Publish into a private root, then move it into place, so a run cut
    # short never leaves a half-written registry behind.
    staging = f"{REGISTRY}.staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    publish(magic, staging, MODEL_NAME, version=MODEL_VERSION)
    try:
        os.replace(staging, REGISTRY)
    except OSError:  # another run published first
        shutil.rmtree(staging, ignore_errors=True)
    log(f"served model ready in {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    _train_and_publish()
