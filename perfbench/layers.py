"""Per-layer metrics of a traced run, under the same names for every workload.

A traced run of any workload prints the whole per-layer set of the
manifest, so that parent and child runs of one workload always compare
the same names:

* ``<layer>.self_ms`` for the layers all three workloads run: self time
  per item of the workload (a classified sample, an answered request, a
  trained graph).  train-epoch runs parse, CFG and ACFG only to extract
  its corpus, so it times them over one extraction of that corpus and
  reports them per extracted graph;
* ``<layer>.self_share`` for the layers only some workloads run: the
  layer's share of all the self time the traced run recorded, 0 in a
  workload that never calls the layer;
* counters and ratios of a subsystem (engine caches, fleet, HTTP, load
  generator, collate memo, tape cache) are 0 in a workload that does not
  use it, see :data:`SUBSYSTEM_COUNTERS`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from perfbench import tracing

#: Layers of the extraction path; train-epoch times them over its corpus.
EXTRACTION = ("asm.parse", "cfg.build", "features.acfg")

#: Layers every workload runs while it is measured.
MODEL_PATH = ("features.scale", "collate", "core.graph_conv", "core.pool_head",
              "core.classify", "nn.tape")

#: Layers only some workloads run.
PROFILED = ("engine.classify", "nn.backward", "nn.optim", "train.step", "train.eval",
            "similarity.fingerprint", "similarity.query", "fleet.submit")

#: Counters of subsystems a workload may not have; they read 0 there.
SUBSYSTEM_COUNTERS = (
    "collate.memo_hit_ratio", "collate.calls",
    "nn.tape.capture_ratio", "nn.tape.calls",
    "engine.requests", "engine.exact_hit_ratio", "engine.similar_hit_ratio",
    "engine.miss_ratio", "engine.repeat_share",
    "fleet.batch_mean_size", "fleet.queue_depth_max", "fleet.respawns",
    "fleet.retries", "fleet.loop_faults",
    "http.client_overhead_share", "loadgen.late_share",
    "loadgen.low.sent", "loadgen.low.succeeded", "loadgen.low.failed",
    "loadgen.high.sent", "loadgen.high.succeeded", "loadgen.high.failed",
)


def per_layer(
    spans: Iterable[tracing.Span],
    items: int,
    root: str,
    counters: Dict[str, float],
    extraction: Optional[Tuple[Iterable[tracing.Span], int]] = None,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, without their units.

    ``spans`` cover the measured work of ``items`` items; ``root`` names
    the span of one unit of that work (a classify call, a train call),
    whose wall time the layers below it should cover.  ``extraction``
    holds the spans and graph count of a separate extraction pass, for a
    workload whose measured work does not extract.  ``counters`` holds
    the workload's own figures, which override the zero defaults.
    """
    spans = list(spans)
    self_s, _ = tracing.self_times(spans)
    total = sum(self_s.values())
    metrics = dict.fromkeys(SUBSYSTEM_COUNTERS, 0.0)
    extract_s, extract_items = self_s, items
    if extraction is not None:
        extract_s = tracing.self_times(extraction[0])[0]
        extract_items = extraction[1]
    for name in EXTRACTION:
        metrics[name + ".self_ms"] = 1000.0 * extract_s.get(name, 0.0) / extract_items
    for name in MODEL_PATH:
        metrics[name + ".self_ms"] = 1000.0 * self_s.get(name, 0.0) / items
    for name in PROFILED:
        metrics[name + ".self_share"] = self_s.get(name, 0.0) / total
    metrics["trace.path_coverage"] = tracing.child_coverage(spans, root)
    metrics.update(counters)
    return metrics


def adjacency_mb(sizes: Iterable[int], batch: int) -> Tuple[float, float]:
    """Largest and median dense batch adjacency (n^2 float64 per graph), MiB."""
    from perfbench.common import percentile

    sizes = list(sizes)
    per_batch = [sum(n * n * 8 for n in sizes[i:i + batch]) / 2 ** 20
                 for i in range(0, len(sizes), batch)]
    return max(per_batch), percentile(per_batch, 50)
