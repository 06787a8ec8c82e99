"""Online inference engine: disassembly text -> family, fault-isolated.

The engine runs the full MAGIC prediction path — parse the listing,
build the CFG, extract the ACFG, apply the *training-time* attribute
scaling, and run one batched DGCNN forward over the whole request batch
(the PR-1 ``GraphBatch`` contract, via ``Magic.predict_proba``).

Two production concerns shape it:

* **Per-request fault isolation.**  Every sample goes through the same
  :func:`~repro.features.pipeline.execute_unit` boundary as batch
  extraction, so a malformed listing becomes a structured
  :class:`~repro.features.pipeline.ExtractionFailure` (``parse`` /
  ``oversize`` / ``unexpected``) on *its own* result — it never poisons
  the other requests coalesced into the same micro-batch.
* **A two-tier prediction cache.**  Malware corpora are heavy with
  exact duplicates (repacked submissions, re-scanned files); a
  sha256-of-text key serves repeats without re-running disassembly or
  the model.  Failures are cached too — they are deterministic
  properties of the input, the same philosophy as the extraction
  journal's replay-not-retry rule.  Behind the exact tier, an opt-in
  **similarity tier** (``similar_threshold``) indexes the
  topology-aware fingerprints of :mod:`repro.similarity`: a request
  that misses the exact cache but whose CFG fingerprint is
  near-duplicate to a previously classified sample is served that
  sample's prediction, explicitly flagged ``similar`` with the
  estimated Jaccard.  Only successful predictions enter the similarity
  index — a cached *failure* is an exact property of one input and is
  never generalized to near-duplicates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.magic import Magic
from repro.exceptions import ServeError
from repro.features.acfg import ACFG
from repro.features.pipeline import (
    ExtractionFailure,
    FailureKind,
    WorkerContext,
    execute_unit,
    resolve_worker,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ArchiveInfo, load, load_archive
from repro.similarity import (
    DEFAULT_WL_ITERATIONS,
    SimilarityIndex,
    SimilarityMatch,
    fingerprint_acfg,
)
from repro.testing.faults import FaultPlan
from repro.train.trainer import Trainer

#: Default bound on the content-hash prediction cache.
DEFAULT_CACHE_SIZE = 1024


@dataclasses.dataclass
class ClassificationResult:
    """Outcome of one classification request.

    Exactly one of (``family``, ``failure``) is set: a request either
    produces a prediction or a structured extraction failure.
    """

    name: str
    family: Optional[str] = None
    label: Optional[int] = None
    probabilities: Optional[np.ndarray] = None
    #: Served from the prediction cache instead of a fresh forward.
    cached: bool = False
    #: Served a *near-duplicate*'s prediction (similarity tier); the
    #: flag sticks to exact repeats of the same variant, so a response
    #: assembled from a similar match is never presented as exact.
    similar: bool = False
    #: Estimated Jaccard of the fingerprint match (set when ``similar``).
    similarity: Optional[float] = None
    failure: Optional[ExtractionFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def confidence(self) -> float:
        if self.probabilities is None:
            return 0.0
        return float(self.probabilities.max())

    @property
    def margin(self) -> float:
        """Top-1 minus top-2 probability: the score margin of the call.

        A small margin means the prediction sits near a decision
        boundary — exactly the samples the adversarial attacks
        (:mod:`repro.adv`) flip first, so monitoring margins is the
        cheap online proxy for attack surface.  ``0.0`` when there is no
        prediction or fewer than two classes.
        """
        if self.probabilities is None or self.probabilities.size < 2:
            return 0.0
        top2 = np.sort(self.probabilities)[-2:]
        return float(top2[1] - top2[0])

    def describe(self) -> str:
        if self.failure is not None:
            return (f"{self.name}: FAILED [{self.failure.kind.value}] "
                    f"{self.failure.detail}")
        if self.similar and self.similarity is not None:
            suffix = f" (similar {self.similarity:.3f})"
        elif self.cached:
            suffix = " (cached)"
        else:
            suffix = ""
        return (f"{self.name}: {self.family} "
                f"(confidence {self.confidence:.3f}){suffix}")


#: Cache entry: ("ok", family, label, probabilities) or
#: ("similar", family, label, probabilities, similarity) or
#: ("fail", kind_value, detail).
_CacheEntry = Tuple


class InferenceEngine:
    """Classifies disassembly listings with a loaded :class:`Magic` system.

    Parameters
    ----------
    magic:
        A fitted system (trained in-process or loaded from an archive).
    model_info:
        Archive identity for ``/healthz`` and logs; optional for
        in-process models.
    metrics:
        Shared :class:`ServeMetrics` sink; a private one is created when
        omitted.
    cache_size:
        Bound on the content-hash prediction cache (``0`` disables all
        result caching, the similarity tier included).
    similar_threshold:
        Estimated-Jaccard threshold for the similarity cache tier, in
        ``(0, 1]``; ``None`` (the default) keeps the tier off.  When set, a request
        missing the exact cache is fingerprinted and may be served a
        near-duplicate's prediction, flagged ``similar``.
    fingerprint_iterations:
        WL relabeling rounds for the similarity fingerprints (more
        rounds = stricter topology matching).
    max_vertices:
        Per-request graph-size guard, same semantics as the extraction
        pipeline's (oversize requests fail with ``[oversize]``).
    fault_plan:
        Deterministic fault injection for tests; indices refer to
        positions within one ``classify_texts`` batch.
    """

    def __init__(
        self,
        magic: Magic,
        *,
        model_info: Optional[ArchiveInfo] = None,
        metrics: Optional[ServeMetrics] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        similar_threshold: Optional[float] = None,
        fingerprint_iterations: int = DEFAULT_WL_ITERATIONS,
        max_vertices: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not magic.scaler.is_fitted:
            raise ServeError(
                "cannot serve an unfitted model: train it or load a "
                "published archive first"
            )
        if cache_size < 0:
            raise ServeError(f"cache_size must be >= 0, got {cache_size}")
        if similar_threshold is not None and not 0.0 < similar_threshold <= 1.0:
            raise ServeError(
                "similar_threshold must be in (0, 1], got "
                f"{similar_threshold}"
            )
        if fingerprint_iterations < 0:
            raise ServeError(
                "fingerprint_iterations must be >= 0, got "
                f"{fingerprint_iterations}"
            )
        self.magic = magic
        self.model_info = model_info
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.cache_size = cache_size
        self.max_vertices = max_vertices
        self.fault_plan = fault_plan
        self._spec = resolve_worker("text")
        self._cache: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._cache_lock = threading.Lock()
        # Second cache tier: near-duplicate fingerprint lookup.  Bounded
        # by cache_size like the exact tier, and off entirely when
        # result caching is disabled (cache_size=0): an engine asked not
        # to cache must not serve *any* remembered prediction.
        self._fingerprint_iterations = fingerprint_iterations
        self._similarity: Optional[SimilarityIndex] = None
        if similar_threshold is not None and cache_size > 0:
            self._similarity = SimilarityIndex(
                threshold=similar_threshold,
                iterations=fingerprint_iterations,
                max_entries=cache_size,
            )

    # -- constructors over the registry -------------------------------

    @classmethod
    def from_registry(
        cls,
        root: str,
        name: str,
        version: Optional[str] = None,
        **kwargs,
    ) -> "InferenceEngine":
        """Engine over a registry archive (``version=None`` = latest)."""
        loaded = load(root, name, version)
        return cls(loaded.magic, model_info=loaded.info, **kwargs)

    @classmethod
    def from_archive(cls, path: str, **kwargs) -> "InferenceEngine":
        """Engine over one archive directory (legacy dirs load with a
        warning)."""
        loaded = load_archive(path)
        return cls(loaded.magic, model_info=loaded.info, **kwargs)

    # -- classification ------------------------------------------------

    @property
    def family_names(self) -> List[str]:
        return self.magic.family_names

    def classify_text(self, text: str, name: str = "") -> ClassificationResult:
        """Classify one listing (a batch of one)."""
        return self.classify_texts([(name, text)])[0]

    def classify_texts(
        self, samples: Sequence[Tuple[str, str]]
    ) -> List[ClassificationResult]:
        """Classify ``(name, asm_text)`` samples in one batched forward.

        Results align with the input order.  Extraction runs per sample
        behind the shared fault-isolation boundary; all surviving ACFGs
        then go through a single scaled ``GraphBatch`` forward pass.
        """
        results: List[Optional[ClassificationResult]] = [None] * len(samples)
        pending: List[Tuple[int, str, ACFG]] = []  # (index, cache key, acfg)
        in_flight: set = set()  # keys with an extraction pending this batch
        followers: Dict[str, List[Tuple[int, str]]] = {}
        signatures: Dict[str, np.ndarray] = {}  # key -> minhash signature

        for index, (name, text) in enumerate(samples):
            key = hashlib.sha256(text.encode("utf-8")).hexdigest()
            entry = self._cache_get(key)
            if entry is not None:
                self.metrics.observe_cache_tier("exact")
                results[index] = self._from_cache(name, index, entry)
                self._count(results[index])
                continue
            if key in in_flight:
                # Exact duplicate of an earlier sample in this batch:
                # serve it from that sample's forthcoming prediction
                # instead of extracting and forwarding it again.
                self.metrics.observe_cache_tier("exact")
                followers.setdefault(key, []).append((index, name))
                continue
            started = time.perf_counter()
            outcome = execute_unit(
                self._spec.fn,
                (name, text, None),
                index,
                WorkerContext(
                    max_vertices=self.max_vertices,
                    fault_plan=self.fault_plan,
                ),
            )
            self.metrics.observe_stage(
                "extract", time.perf_counter() - started
            )
            status, *payload = outcome
            if status == "ok" and not self._spec.validate(payload[0]):
                status, payload = "fail", [
                    FailureKind.UNEXPECTED.value,
                    "worker emitted corrupt output "
                    f"({type(payload[0]).__name__})",
                ]
            if status == "ok":
                match, signature = self._similar_lookup(payload[0])
                if match is not None:
                    # Similarity-tier hit: serve the near-duplicate's
                    # prediction, flagged.  The flagged entry also goes
                    # into the exact cache so repeats of this exact
                    # variant keep the flag.
                    _, family, label, probabilities = match.payload
                    entry = (
                        "similar", family, label, probabilities,
                        match.similarity,
                    )
                    self._cache_put(key, entry)
                    self.metrics.observe_cache_tier(
                        "similar", match.similarity
                    )
                    results[index] = self._from_cache(name, index, entry)
                    self._count(results[index])
                    continue
                self.metrics.observe_cache_tier("miss")
                if signature is not None:
                    signatures[key] = signature
                in_flight.add(key)
                pending.append((index, key, payload[0]))
            else:
                self.metrics.observe_cache_tier("miss")
                entry = ("fail", payload[0], payload[1])
                self._cache_put(key, entry)
                results[index] = self._from_cache(
                    name, index, entry, cached=False
                )
                self._count(results[index])

        if pending:
            started = time.perf_counter()
            probabilities = self._predict_proba([acfg for _, _, acfg in pending])
            self.metrics.observe_stage(
                "forward", time.perf_counter() - started
            )
            for (index, key, _), row in zip(pending, probabilities):
                label = int(row.argmax())
                entry = ("ok", self.family_names[label], label, row.copy())
                self._cache_put(key, entry)
                if self._similarity is not None and key in signatures:
                    # Only fresh successful predictions feed the
                    # similarity tier; failures never generalize.
                    self._similarity.insert(key, signatures[key], entry)
                name = samples[index][0]
                results[index] = ClassificationResult(
                    name=name,
                    family=entry[1],
                    label=label,
                    probabilities=row,
                )
                self._count(results[index])
                for dup_index, dup_name in followers.pop(key, ()):
                    results[dup_index] = self._from_cache(
                        dup_name, dup_index, entry
                    )
                    self._count(results[dup_index])

        return results  # type: ignore[return-value] — every slot is filled

    # -- internals -----------------------------------------------------

    def _similar_lookup(
        self, acfg: ACFG
    ) -> Tuple[Optional[SimilarityMatch], Optional[np.ndarray]]:
        """Similarity-tier probe for one freshly extracted ACFG.

        Returns ``(match, signature)``: the best near-duplicate clearing
        the threshold (or ``None``) and the minhash signature to index
        this sample under after its own forward completes.  Both are
        ``None`` when the tier is off or the graph is empty (an empty
        fingerprint cannot be signed — and matching on it would equate
        every degenerate listing).
        """
        if self._similarity is None or acfg.num_vertices == 0:
            return None, None
        started = time.perf_counter()
        fingerprint = fingerprint_acfg(
            acfg, iterations=self._fingerprint_iterations
        )
        signature = self._similarity.signature(fingerprint)
        match = self._similarity.query(signature)
        self.metrics.observe_stage(
            "fingerprint", time.perf_counter() - started
        )
        return match, signature

    def _predict_proba(self, acfgs: Sequence[ACFG]) -> np.ndarray:
        """Per-family probabilities for freshly extracted ACFGs.

        The same scaling and chunked eager forward as
        ``Magic.predict_proba``, so the float64 output is bitwise
        identical to the plain path.
        """
        scaled = self.magic.scaler.transform(acfgs)
        return Trainer.predict_proba(self.magic.model, scaled)

    def compile_stats(self) -> None:
        """Always ``None``: there is no compiled execution path.

        Kept only for the benchmark harness, which still reads it.
        """
        return None

    def collator_stats(self) -> None:
        """Always ``None``: the model collates every forward chunk afresh.

        Kept only for the benchmark harness, which still reads it.
        """
        return None

    def _from_cache(
        self, name: str, index: int, entry: _CacheEntry, cached: bool = True
    ) -> ClassificationResult:
        if entry[0] == "ok":
            _, family, label, probabilities = entry
            return ClassificationResult(
                name=name,
                family=family,
                label=label,
                probabilities=probabilities,
                cached=cached,
            )
        if entry[0] == "similar":
            _, family, label, probabilities, similarity = entry
            return ClassificationResult(
                name=name,
                family=family,
                label=label,
                probabilities=probabilities,
                cached=cached,
                similar=True,
                similarity=similarity,
            )
        _, kind_value, detail = entry
        return ClassificationResult(
            name=name,
            cached=cached,
            failure=ExtractionFailure(
                name=name,
                kind=FailureKind(kind_value),
                detail=detail,
                index=index,
            ),
        )

    def _count(self, result: ClassificationResult) -> None:
        kind = result.failure.kind.value if result.failure else None
        self.metrics.observe_request(result.ok, kind)

    def _cache_get(self, key: str) -> Optional[_CacheEntry]:
        if self.cache_size == 0:
            return None
        with self._cache_lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
            return entry

    def _cache_put(self, key: str, entry: _CacheEntry) -> None:
        if self.cache_size == 0:
            return
        with self._cache_lock:
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def cache_info(self) -> Dict:
        with self._cache_lock:
            info: Dict = {
                "entries": len(self._cache), "bound": self.cache_size,
            }
        if self._similarity is not None:
            info["similarity"] = self._similarity.info()
        return info
