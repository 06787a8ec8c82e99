"""Span recorder for the traced run, wrapped around public layer entry points.

Nothing inside ``src/`` is touched: :func:`install` replaces the public
functions of each layer (parse, CFG, ACFG, scale, collate, graph conv,
pooling head, classifier, tape, backward, optimizer, fingerprint, ...)
with thin wrappers that record one span per call — name, start, end,
parent span and the root span (the batch or request) it belongs to.
Spans stay in memory and are written out once, at the end.

Fleet replicas are forked from the process that installed the wrappers,
so they inherit them.  A replica notices the changed pid on its first
span, drops the spans it inherited, and writes its own spans to the
spool directory when it exits (``multiprocessing`` runs registered
finalizers on a clean worker exit).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: (span id, parent id, root id, name, start, end, pid)
Span = Tuple[int, int, int, str, float, float, int]


class SpanRecorder:
    """Collects nested spans per thread; forked children spool to disk."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        if os.getpid() != self._pid:
            self._become_child()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _become_child(self) -> None:
        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        mp_util.Finalize(None, self._spool, exitpriority=100)

    def _spool(self) -> None:
        os.makedirs(self.spool_dir, exist_ok=True)
        path = os.path.join(self.spool_dir, f"spans-{self._pid}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(self.spans, handle)
        os.replace(path + ".tmp", path)

    def open(self) -> Tuple[List[int], int, int, int, float]:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, root = stack[-1], self._local.root
        else:
            parent, root = 0, span_id
            self._local.root = span_id
        stack.append(span_id)
        return stack, span_id, parent, root, time.perf_counter()

    def close(self, name: str, handle: Tuple[List[int], int, int, int, float]) -> None:
        end = time.perf_counter()
        stack, span_id, parent, root, start = handle
        if span_id in stack:
            stack.remove(span_id)
        self.spans.append((span_id, parent, root, name, start, end, self._pid))

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            handle = recorder.open()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(name, handle)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Each item's consumer body (until the next item) is one span."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                handle = recorder.open()
                try:
                    yield item
                finally:
                    recorder.close(name, handle)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attribute: str, name: str, kind: str = "function") -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        if kind == "classmethod":
            replacement: Any = classmethod(self.wrap(name, original.__func__))
        elif kind == "generator":
            replacement = self.wrap_generator(name, original)
        else:
            replacement = self.wrap(name, original)
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def collect_children(self) -> int:
        """Merge spans spooled by exited child processes; returns files read."""
        if not os.path.isdir(self.spool_dir):
            return 0
        merged = 0
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans-") and entry.endswith(".json"):
                with open(os.path.join(self.spool_dir, entry)) as handle:
                    self.spans.extend(tuple(span) for span in json.load(handle))
                merged += 1
        return merged

    def write(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as handle:
            for span_id, parent, root, name, start, end, pid in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "root": root,
                    "name": name, "start": start, "end": end, "pid": pid,
                }) + "\n")
        os.replace(path + ".tmp", path)


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer's public entry point."""
    from repro.asm.parser import AsmParser
    from repro.cfg.builder import CfgBuilder
    from repro.core.dgcnn import DgcnnAdaptivePooling
    from repro.core.graph_conv import GraphConvolutionStack
    from repro.features.acfg import ACFG
    from repro.features.scaling import AttributeScaler
    from repro.nn.optim import Adam
    from repro.nn.tape import CompiledModel
    from repro.nn.tensor import Tensor
    from repro.serve import engine as engine_module
    from repro.serve.engine import InferenceEngine
    from repro.serve.fleet import FleetDispatcher
    from repro.similarity.lsh import SimilarityIndex
    from repro.train import trainer as trainer_module
    from repro.train.batching import BatchCollator
    from repro.train.trainer import Trainer

    for owner, attribute, name, kind in (
        (AsmParser, "parse", "asm.parse", "function"),
        (CfgBuilder, "build", "cfg.build", "function"),
        (ACFG, "from_cfg", "features.acfg", "classmethod"),
        (AttributeScaler, "transform", "features.scale", "function"),
        (BatchCollator, "__call__", "collate", "function"),
        (GraphConvolutionStack, "forward_batch", "core.graph_conv", "function"),
        (DgcnnAdaptivePooling, "embed_from_zconcat", "core.pool_head", "function"),
        (DgcnnAdaptivePooling, "classify", "core.classify", "function"),
        (CompiledModel, "infer", "nn.tape", "function"),
        (CompiledModel, "forward", "nn.tape", "function"),
        (CompiledModel, "backward", "nn.backward", "function"),
        (Tensor, "backward", "nn.backward", "function"),
        (Adam, "step", "nn.optim", "function"),
        (engine_module, "fingerprint_acfg", "similarity.fingerprint", "function"),
        (SimilarityIndex, "signature", "similarity.query", "function"),
        (SimilarityIndex, "query", "similarity.query", "function"),
        (InferenceEngine, "classify_texts", "engine.classify", "function"),
        (FleetDispatcher, "submit", "fleet.submit", "function"),
        (Trainer, "train", "train.run", "function"),
        (Trainer, "evaluate_loss", "train.eval", "classmethod"),
        (trainer_module, "iterate_minibatches", "train.step", "generator"),
    ):
        recorder.patch(owner, attribute, name, kind)


def self_times(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self time in seconds and call counts.

    A span's self time is its duration minus the durations of its direct
    children (children of one thread nest inside their parent).
    """
    spans = list(spans)
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for span_id, parent, root, name, start, end, pid in spans:
        if parent:
            child_time[(pid, parent)] += end - start
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for span_id, parent, root, name, start, end, pid in spans:
        totals[name] += (end - start) - child_time[(pid, span_id)]
        counts[name] += 1
    return dict(totals), dict(counts)


def child_coverage(spans: Iterable[Span], name: str) -> float:
    """Share of the root spans called ``name`` covered by their child spans.

    The traced layers below a root account for this share of its wall
    time; the rest is the root's own glue code and untraced calls.
    """
    spans = list(spans)
    roots = {(pid, span_id): end - start
             for span_id, parent, root, span_name, start, end, pid in spans
             if span_name == name and parent == 0}
    covered = sum(end - start
                  for span_id, parent, root, span_name, start, end, pid in spans
                  if (pid, parent) in roots)
    wall = sum(roots.values())
    return covered / wall if wall else 0.0
