"""train-epoch: ``Trainer.train`` over an in-memory ACFG corpus.

The corpus is extracted before timing starts, so a run measures forward,
backward and Adam (plus per-epoch validation) and nothing of extraction,
serving or caching.  Each timed call trains a fresh Table II best model
from the same seed for a fixed number of epochs, so every call does the
same work and must produce the same loss history.  Graphs per second
and CPU time per graph are medians over the calls, and every timing is
scaled to the nominal machine speed of :class:`perfbench.common.SpeedProbe`.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Optional

from perfbench import inputs, layers, model, tracing
from perfbench.common import (
    SpeedProbe,
    check,
    log,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
)

TOTAL = 150
VALIDATION_SHARE = 0.2
EPOCHS = 2
BATCH_SIZE = 10
LEARNING_RATE = 3e-3
WARMUP_CALLS = 1
#: Speed probes timed before each training call.
PROBES_PER_CALL = 3


def _train_once(train, validation, seed: int, compiled: bool = True, epochs: int = EPOCHS):
    from repro.core.dgcnn import build_model
    from repro.features.scaling import AttributeScaler
    from repro.train import Trainer, TrainingConfig

    started = time.perf_counter()
    scaler = AttributeScaler().fit(train)
    scaled_train = scaler.transform(train)
    scaled_validation = scaler.transform(validation)
    net = build_model(model.best_model_config(9, seed))
    setup = time.perf_counter() - started
    trainer = Trainer(TrainingConfig(
        epochs=epochs, batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE,
        seed=seed, compiled=compiled,
    ))
    started, started_cpu = time.perf_counter(), time.process_time()
    history = trainer.train(net, scaled_train, scaled_validation)
    return {"setup": setup, "elapsed": time.perf_counter() - started,
            "cpu": time.process_time() - started_cpu, "history": history,
            "trainer": trainer, "net": net, "validation": scaled_validation}


def _measure(train, validation, seed: int, seconds: float,
             recorder: Optional[tracing.SpanRecorder] = None) -> Dict:
    # An untimed warm-up call: a fresh process trains markedly slower on
    # its first call (its heap is still growing), which a long-lived
    # training job pays once.
    for _ in range(WARMUP_CALLS):
        _train_once(train, validation, seed)
        gc.collect()
    probe = SpeedProbe()
    setups: List[float] = []
    rates: List[float] = []
    cpu_per_graph: List[float] = []
    histories = []
    accuracy = 0.0
    captures = replays = collate_hits = collate_calls = 0
    if recorder is not None:
        recorder.spans.clear()  # keep the warm-up out of the traced run
    reset_ok = reset_peak_rss([os.getpid()])
    started = time.perf_counter()
    while not rates or time.perf_counter() - started < seconds:
        # Tape executors hold reference cycles: collect the previous
        # call's model and tapes so calls do not stack up their arenas.
        trainer = call = None
        gc.collect()
        for _ in range(PROBES_PER_CALL):
            probe.sample()
        call = _train_once(train, validation, seed)
        trainer, history = call["trainer"], call["history"]
        setups.append(call["setup"])
        rates.append(EPOCHS * len(train) / call["elapsed"])
        cpu_per_graph.append(call["cpu"] / (EPOCHS * len(train)))
        histories.append(history)
        if len(histories) == 1 and recorder is None:
            # Every call trains the same model, so the first one's
            # validation accuracy is every call's.
            predicted = call["net"].predict(call["validation"])
            accuracy = float((predicted == [a.label for a in validation]).mean())
        stats = trainer.last_compiled.stats() if trainer.last_compiled else {}
        captures += stats.get("captures", 0)
        replays += stats.get("replays", 0)
        collator = trainer.last_collator
        if collator is not None:
            collate_hits += collator.hits
            collate_calls += collator.hits + collator.misses
    slowdown = probe.slowdown()
    raw = {"setup_s": median(setups), "graphs_per_s": median(rates),
           "cpu_ms_per_graph": 1000.0 * median(cpu_per_graph)}
    return {
        "peak_rss_mb": peak_rss_mb([os.getpid()], reset_ok),
        # Timings at the nominal machine speed (see SpeedProbe).
        "setup_s": raw["setup_s"] / slowdown,
        "graphs_per_s": raw["graphs_per_s"] * slowdown,
        "cpu_ms_per_graph": raw["cpu_ms_per_graph"] / slowdown,
        "accuracy": accuracy,
        "raw": raw, "slowdown": slowdown, "probe_runs": probe.samples,
        "setup_runs": setups, "rates": rates, "cpu_per_graph": cpu_per_graph,
        "histories": histories,
        "graphs": EPOCHS * len(train) * len(rates),
        "captures": captures, "replays": replays,
        "collate_hits": collate_hits, "collate_calls": collate_calls,
    }


def _repeats(histories, first, failures: List[str], label: str) -> int:
    """Count the loss histories that differ from ``first`` bit for bit."""
    import numpy as np

    mismatched = 0
    for call, history in enumerate(histories):
        same = (history.train_losses == first.train_losses
                and history.validation_losses == first.validation_losses
                and bool(np.all(np.isfinite(history.train_losses))))
        check(same, failures, f"{label} train call {call} differs from untraced call 0")
        mismatched += not same
    return mismatched


def _oracle(measured: Dict, train, validation, seed: int, failures: List[str]) -> int:
    """Every call repeats the first; epoch 1 matches an eager run bit for bit."""
    first = measured["histories"][0]
    mismatched = _repeats(measured["histories"], first, failures, "untraced")
    eager = _train_once(train, validation, seed, compiled=False, epochs=1)["history"]
    same = eager.train_losses[0] == first.train_losses[0]
    check(same, failures,
          f"epoch-1 loss {first.train_losses[0]!r} != eager {eager.train_losses[0]!r}")
    return mismatched + (not same)


def run(seed: int, seconds: float, trace: bool, recorder_dir: str) -> Dict:
    train, validation, corpus_info, samples = inputs.train_corpus(
        seed, TOTAL, VALIDATION_SHARE)
    log(f"train-epoch: {len(train)} train / {len(validation)} validation graphs, "
        f"vertices {corpus_info['vertices']}")
    plain = _measure(train, validation, seed, seconds / 2 if trace else seconds)
    failures: List[str] = []
    failed = _oracle(plain, train, validation, seed, failures)
    record = {
        "spec": {"epochs": EPOCHS, "batch_size": BATCH_SIZE, "learning_rate": LEARNING_RATE,
                 "compiled": True, "dtype": "float64",
                 "model": model.best_model_config(9, seed).__dict__},
        "inputs": corpus_info,
        "setup_runs": plain["setup_runs"],
        "graphs_per_s_runs": plain["rates"],
        "cpu_ms_per_graph_runs": [1000.0 * cpu for cpu in plain["cpu_per_graph"]],
        "raw": plain["raw"],
        "slowdown": plain["slowdown"],
        "probe_runs": plain["probe_runs"],
        "first_losses": plain["histories"][0].train_losses,
    }
    result = {"attempted": len(plain["histories"]) + 1, "failed": failed,
              "failures": failures, "record": record}
    if not trace:
        result["metrics"] = {
            "setup_s": plain["setup_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
            "ok_share": 1.0 - failed / result["attempted"],
            "throughput_per_s": plain["graphs_per_s"],
            "cpu_ms_per_item": plain["cpu_ms_per_graph"],
        }
        return result

    # Training never extracts; the extraction layers are timed over one
    # extraction of this run's corpus, which must give the same ACFGs.
    extraction = tracing.SpanRecorder(recorder_dir)
    tracing.install(extraction)
    try:
        again = inputs.extract(samples)
    finally:
        extraction.uninstall()
    same = inputs.acfg_digest(again) == corpus_info["digest"]
    check(same, failures, "traced extraction of the corpus differs from the untraced one")
    result["attempted"] += 1
    result["failed"] += not same

    recorder = tracing.SpanRecorder(recorder_dir)
    tracing.install(recorder)
    try:
        traced = _measure(train, validation, seed, seconds / 2, recorder)
    finally:
        recorder.uninstall()
    result["attempted"] += len(traced["histories"])
    result["failed"] += _repeats(
        traced["histories"], plain["histories"][0], failures, "traced")
    spans = recorder.spans
    self_s, counts = tracing.self_times(spans)
    record["span_counts"] = counts
    record["self_ms_per_graph"] = {
        name: 1000.0 * total / traced["graphs"] for name, total in self_s.items()}
    names = {(pid, span_id): name for span_id, _, _, name, _, _, pid in spans}
    # One training step: forward, backward and Adam over one minibatch
    # (validation minibatches run under train.eval and are left out).
    steps_ms = [1000.0 * (end - start) for _, parent, _, name, start, end, pid in spans
                if name == "train.step" and names.get((pid, parent)) == "train.run"]
    # Batches are drawn in a seeded shuffle; consecutive runs of the
    # corpus stand in for them.
    largest, typical = layers.adjacency_mb((a.num_vertices for a in train), BATCH_SIZE)
    result["metrics"] = layers.per_layer(spans, traced["graphs"], "train.run", {
        "latency_ms_p50": percentile(steps_ms, 50),
        "latency_ms_p90": percentile(steps_ms, 90),
        "accuracy": plain["accuracy"],
        "features.dense_adjacency_mb": largest,
        "features.dense_adjacency_mb_p50": typical,
        "nn.tape.capture_ratio":
            traced["captures"] / max(1, traced["captures"] + traced["replays"]),
        "nn.tape.calls": traced["captures"] + traced["replays"],
        "collate.memo_hit_ratio": traced["collate_hits"] / max(1, traced["collate_calls"]),
        "collate.calls": traced["collate_calls"],
        "trace.overhead_share": 1.0 - traced["graphs_per_s"] / plain["graphs_per_s"],
        "datasets.generate_ms_per_sample": corpus_info["generate_ms_per_sample"],
    }, extraction=(extraction.spans, len(samples)))
    result["spans"] = recorder
    return result
