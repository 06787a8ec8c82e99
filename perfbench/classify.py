"""classify-fresh: closed-loop ``InferenceEngine.classify_texts`` over unique listings.

A single caller classifies fixed-size batches back to back.  Every
listing is new to the engine, so each sample misses every cache and
pays the whole path: parse, CFG, ACFG, scale, collate, graph
convolutions, pooling head and classifier, plus a tape capture for
every new batch shape.  The pool is cycled for the length of the run
(at least :data:`MIN_PASSES` times) with a fresh engine per pass (engine
construction is outside the timed batches), which keeps every sample a
miss while the pool stays small enough to generate in a few seconds.

On a shared machine a batch runs 10-90% slower whenever a neighbour
takes the memory bandwidth or the CPU, and the machine's speed swings
within a second.  So a :class:`perfbench.common.SpeedProbe` sample is
timed right before every batch, and the batch's wall and CPU time are
scaled to the nominal machine speed by that sample: a slow moment
lengthens both and cancels out, while a change to the program moves
the batch alone.  Every pass classifies the same batches, and each
batch's time is the median of its scaled passes.  On the two-vCPU shared
Xeon virtual machine the benchmark was written on, ten runs over ten
seeds spread by 0.03 (IQR over median) in samples per second this way,
against 0.10-0.20 for the best raw pass of each batch scaled by the
run's median probe.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

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

#: Listings per classify_texts call.  With one tail listing per 100 and
#: batches of 4, about 4% of batches carry a tail listing, so p90 sits
#: among ordinary batches instead of flipping between the two.
BATCH = 4
POOL = 200
#: One set-up is timed before every this many batches.
SETUP_EVERY = 5
MIN_PASSES = 3
#: Batches of the first pass checked against ``forward_reference``.
ORACLE_BATCHES = 2

def _setup(registry: str):
    """What an operator waits for: archive load plus engine construction."""
    from repro.serve.engine import InferenceEngine
    from repro.serve.registry import load

    started = time.perf_counter()
    loaded = load(registry, model.MODEL_NAME, model.MODEL_VERSION)
    engine = InferenceEngine(loaded.magic, model_info=loaded.info)
    return loaded, engine, time.perf_counter() - started


def _measure(registry: str, pool: List[inputs.Listing], seconds: float,
             min_passes: int, recorder: Optional[tracing.SpanRecorder] = None) -> Dict:
    from repro.serve.engine import InferenceEngine

    probe = SpeedProbe()
    loaded, engine, _ = _setup(registry)
    setups: List[float] = []
    batches = [pool[i:i + BATCH] for i in range(0, len(pool), BATCH)]
    # Per pass and batch: wall and CPU time at the nominal machine speed.
    pass_batch_ms: List[List[float]] = []
    pass_batch_cpu: List[List[float]] = []
    raw_batch_ms: List[float] = []
    first_pass: List[np.ndarray] = []
    failures: List[str] = []
    attempted = failed = correct_labels = passes = 0
    collate_hits = collate_calls = captures = replays = 0
    exact_hits = similar_hits = 0
    pass_rates: List[float] = []
    reset_ok = reset_peak_rss([os.getpid()])
    started = time.perf_counter()
    while passes < min_passes or time.perf_counter() - started < seconds:
        if passes:
            # Tape executors hold reference cycles: collect the previous
            # pass's engine so passes do not stack up their arenas.
            engine = None
            gc.collect()
            engine = InferenceEngine(loaded.magic, model_info=loaded.info)
        batch_ms: List[float] = []
        batch_cpu: List[float] = []
        for index, batch in enumerate(batches):
            setup_s = _setup(registry)[2] if index % SETUP_EVERY == 0 else None
            probe.sample()
            scale = SpeedProbe.NOMINAL_S / probe.samples[-1]
            if setup_s is not None:
                # Set-ups are spread over the run, between batches, and
                # scaled like the batches.
                setups.append(setup_s * scale)
            request = [(listing.name, listing.text) for listing in batch]
            began, began_cpu = time.perf_counter(), time.process_time()
            results = engine.classify_texts(request)
            elapsed_ms = 1000.0 * (time.perf_counter() - began)
            raw_batch_ms.append(elapsed_ms)
            batch_ms.append(elapsed_ms * scale)
            batch_cpu.append(1000.0 * (time.process_time() - began_cpu) * scale)
            for position, (listing, result) in enumerate(zip(batch, results)):
                attempted += 1
                exact_hits += result.cached and not result.similar
                similar_hits += result.similar
                row = index * BATCH + position
                ok = result.ok and result.probabilities is not None
                if ok and passes == 0:
                    first_pass.append(result.probabilities)
                elif ok:
                    # Same input, fresh engine: the answer must not move.
                    ok = np.array_equal(result.probabilities, first_pass[row])
                    check(ok, failures, f"{listing.name}: pass {passes} differs from pass 0")
                else:
                    failures.append(f"{listing.name}: {result.describe()}")
                    if passes == 0:
                        first_pass.append(np.zeros(0))
                failed += not ok
                correct_labels += ok and result.label == listing.label
        passes += 1
        pass_batch_ms.append(batch_ms)
        pass_batch_cpu.append(batch_cpu)
        pass_rates.append(1000.0 * len(pool) / sum(batch_ms))  # nominal speed
        collate = engine.collator_stats() or {}
        collate_hits += collate.get("hits", 0)
        collate_calls += collate.get("hits", 0) + collate.get("misses", 0)
        tape = engine.compile_stats() or {}
        captures += tape.get("captures", 0)
        replays += tape.get("replays", 0)
    peak = peak_rss_mb([os.getpid()], reset_ok)
    batch_ms = [median(times) for times in zip(*pass_batch_ms)]
    batch_cpu = [median(times) for times in zip(*pass_batch_cpu)]
    slowdown = probe.slowdown()
    return {
        "magic": loaded.magic,
        "first_pass": first_pass,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        # Timings at the nominal machine speed (see SpeedProbe).
        "setup_s": median(setups),
        "samples_per_s": 1000.0 * len(pool) / sum(batch_ms),
        "cpu_ms_per_sample": sum(batch_cpu) / len(pool),
        "batch_ms_p50": percentile(batch_ms, 50),
        "batch_ms_p90": percentile(batch_ms, 90),
        "raw_batch_ms_p50": percentile(raw_batch_ms, 50),
        "slowdown": slowdown,
        "probe_runs": probe.samples,
        "setup_runs": setups,
        "peak_rss_mb": peak,
        "pass_rates": pass_rates,
        "batches": sum(len(ms) for ms in pass_batch_ms),
        "accuracy": correct_labels / attempted,
        "collate_hits": collate_hits,
        "collate_calls": collate_calls,
        "captures": captures,
        "replays": replays,
        "exact_hits": exact_hits,
        "similar_hits": similar_hits,
    }


def _oracle(magic, pool: List[inputs.Listing], first_pass, failures: List[str]) -> Tuple[int, int]:
    """Check the engine's float64 probabilities on a fixed subset.

    The subset is re-extracted here, independently of the engine, and
    scaled with the archive's scaler.  The served probabilities must be
    bit-identical to the eager batched forward over the same batches
    (``Magic.predict_proba``; the compiled tape promises bit-exact
    replay) and must match the per-graph dense ``forward_reference``
    within the repository's equivalence tolerance (1e-8 on
    log-probabilities): the dense path sums in another order, so it
    agrees to the last few ulps, not bit for bit.
    """
    from repro.asm.parser import AsmParser
    from repro.cfg.builder import CfgBuilder
    from repro.features.acfg import ACFG

    checked = mismatched = 0
    for index in range(ORACLE_BATCHES):
        batch = pool[index * BATCH:(index + 1) * BATCH]
        acfgs = []
        for listing in batch:
            parser = AsmParser()
            program = parser.parse(listing.text)
            cfg = CfgBuilder(resolve_target=parser.resolve_target).build(
                program, name=listing.name
            )
            acfgs.append(ACFG.from_cfg(cfg))
        eager = magic.predict_proba(acfgs)
        magic.model.train(False)
        reference = magic.model.forward_reference(magic.scaler.transform(acfgs)).data
        for row, listing in enumerate(batch):
            served = first_pass[index * BATCH + row]
            same = served.shape == eager[row].shape and np.array_equal(served, eager[row])
            check(same, failures,
                  f"{listing.name}: engine probabilities differ from the eager forward")
            close = same and bool(np.all(np.abs(np.log(served) - reference[row]) <= 1e-8))
            check(close, failures,
                  f"{listing.name}: engine log-probabilities differ from forward_reference")
            checked += 1
            mismatched += not close
    return checked, mismatched


def run(seed: int, seconds: float, trace: bool, recorder_dir: str) -> Dict:
    registry = model.ensure_registry()
    pool, pool_info = inputs.classify_pool(seed, POOL)
    log(f"classify-fresh: pool of {len(pool)} listings, vertices {pool_info['vertices']}")
    # A traced run reports per-layer figures only, which need no best of
    # several passes; its two halves then fit the run's length.
    plain = _measure(registry, pool, seconds / 2 if trace else seconds,
                     1 if trace else MIN_PASSES)
    failures = list(plain["failures"])
    checked, mismatched = _oracle(plain["magic"], pool, plain["first_pass"], failures)
    attempted = plain["attempted"] + checked
    failed = plain["failed"] + mismatched
    record = {
        "spec": {"batch": BATCH, "pool": POOL, "setup_every": SETUP_EVERY,
                 "min_passes": MIN_PASSES,
                 "oracle_samples": checked, "similarity_tier": False,
                 "model": model.best_model_config(9, model.MODEL_SEED).__dict__},
        "inputs": pool_info,
        "passes": plain["passes"],
        "samples_per_s_passes": plain["pass_rates"],
        "raw_batch_ms_p50": plain["raw_batch_ms_p50"],
        "slowdown": plain["slowdown"],
        "probe_runs": plain["probe_runs"],
        "setup_runs": plain["setup_runs"],
    }
    result = {"attempted": attempted, "failed": failed, "failures": failures,
              "record": record}
    if not trace:
        record["batches"] = plain["batches"]
        result["metrics"] = {
            "setup_s": plain["setup_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
            "ok_share": 1.0 - failed / attempted,
            "throughput_per_s": plain["samples_per_s"],
            "cpu_ms_per_item": plain["cpu_ms_per_sample"],
        }
        return result

    recorder = tracing.SpanRecorder(recorder_dir)
    tracing.install(recorder)
    try:
        traced = _measure(registry, pool, seconds / 2, 1, recorder)
    finally:
        recorder.uninstall()
    result["attempted"] += traced["attempted"]
    result["failed"] += traced["failed"]
    failures.extend(traced["failures"])
    # The traced passes are checked against their own first pass; that
    # pass must match the untraced one, which went through the oracle.
    for listing, ours, theirs in zip(pool, traced["first_pass"], plain["first_pass"]):
        same = np.array_equal(ours, theirs)
        check(same, failures, f"{listing.name}: traced run differs from untraced run")
        result["attempted"] += 1
        result["failed"] += not same
    spans = recorder.spans
    self_s, counts = tracing.self_times(spans)
    samples = traced["attempted"]
    record["span_counts"] = counts
    record["self_ms_per_sample"] = {
        name: 1000.0 * total / samples for name, total in self_s.items()}
    largest, typical = layers.adjacency_mb((listing.vertices for listing in pool), BATCH)
    result["metrics"] = layers.per_layer(spans, samples, "engine.classify", {
        "latency_ms_p50": plain["batch_ms_p50"],
        "latency_ms_p90": plain["batch_ms_p90"],
        "accuracy": plain["accuracy"],
        "features.dense_adjacency_mb": largest,
        "features.dense_adjacency_mb_p50": typical,
        "collate.memo_hit_ratio": traced["collate_hits"] / max(1, traced["collate_calls"]),
        "collate.calls": traced["collate_calls"],
        "nn.tape.capture_ratio":
            traced["captures"] / max(1, traced["captures"] + traced["replays"]),
        "nn.tape.calls": traced["captures"] + traced["replays"],
        "engine.requests": samples,
        "engine.exact_hit_ratio": traced["exact_hits"] / samples,
        "engine.similar_hit_ratio": traced["similar_hits"] / samples,
        "engine.miss_ratio": 1.0 - (traced["exact_hits"] + traced["similar_hits"]) / samples,
        "engine.repeat_share": 0.0,  # every listing of the pool is unique
        "trace.overhead_share": 1.0 - traced["samples_per_s"] / plain["samples_per_s"],
        "datasets.generate_ms_per_sample": pool_info["generate_ms_per_sample"],
    })
    result["spans"] = recorder
    return result
