"""serve-replay: open-loop ``POST /classify`` traffic against the fleet server.

``build_fleet_server`` fronts a ``FleetDispatcher`` with ``nproc``
replicas, the similarity tier on at ``DEFAULT_SIMILARITY_THRESHOLD`` and
the default cache size.  A seeded Poisson schedule runs two fixed-rate
phases, ``low`` (well under capacity) and ``high`` (about two thirds of
this mix's capacity, :data:`CAPACITY_RPS`); each starts with a warm-up
that stays out of the metrics.  The traffic mixes Zipf repeats of a hot
set, re-obfuscated variants of hot samples, fresh listings and
malformed listings, so most requests are answered from the two cache
tiers and the time goes to HTTP, dispatch, pipe transit, hashing and
the fingerprint.  The schedule is replayed :data:`REPLAYS` times, each
time against a freshly set-up fleet, so every replay does the same work.

The bounded end-to-end metrics are ``throughput_per_s``, the goodput of
the high phase, and ``cpu_ms_per_item``, the server's CPU time per
request (HTTP process plus replicas), the best of the replays.  Goodput
cannot exceed the offered rate, so it guards against a regression that
pushes capacity down to the high rate; a serving gain shows in the CPU
time per request.  The high phase's latency percentiles, timed from
each request's scheduled send, are the traced run's ``latency_ms_p50``
and ``latency_ms_p90``, without a bound: on a two-CPU shared virtual
machine they moved by half or more between runs of the same seed, as
scheduling delays and stolen CPU time hit this multi-process request
path far harder than the CPU-bound workloads.  Both phases' percentiles
go to the run record.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from perfbench import inputs, layers, loadgen, model, tracing
from perfbench.common import (
    SpeedProbe,
    check,
    cpu_seconds,
    log,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
)

#: Capacity of this mix (requests/s), from a saturating sweep of the
#: same trace on two CPUs with two replicas and two connections: offered
#: 100 and 150 rps were served in full; offered 200 rps completed 168 rps
#: while latency grew without bound; offered 250 rps completed 136 rps.
CAPACITY_RPS = 168.0
#: Fixed arrival rates (requests/s): the high rate is two thirds of the
#: capacity above.
LOW_RPS = 40.0
HIGH_RPS = 112.0
#: The schedule is replayed this many times, each on a fresh fleet.
REPLAYS = 3
#: Share of each phase spent warming up (excluded from the metrics).
WARMUP_SHARE = 0.25
#: A request counts toward goodput only if it is correct and answered
#: within this limit of its scheduled send time.
LATENCY_LIMIT_MS = 1000.0
REQUEST_TIMEOUT_S = 20.0
#: A request sent more than this long after its scheduled time counts
#: as late in ``loadgen.late_share`` (the generator fell behind).
LATE_MS = 10.0
#: Fleet set-ups timed before each replay (the last one serves it).
SETUPS_PER_REPLAY = 3
#: Speed probes timed before each replay, while no fleet is up.
PROBES_PER_REPLAY = 6


def _replicas() -> int:
    return max(1, os.cpu_count() or 1)


class Fleet:
    """One running fleet server; construction is the operator's set-up."""

    def __init__(self, registry: str) -> None:
        from repro.serve import FleetDispatcher, build_fleet_server
        from repro.similarity import DEFAULT_SIMILARITY_THRESHOLD

        started = time.perf_counter()
        self.dispatcher = FleetDispatcher(
            registry, model.MODEL_NAME, model.MODEL_VERSION,
            num_workers=_replicas(),
            similar_threshold=DEFAULT_SIMILARITY_THRESHOLD,
        )
        self.server = build_fleet_server(self.dispatcher, port=0)
        self.server.__enter__()
        self.thread = threading.Thread(target=self.server.serve_forever, name="fleet-http")
        self.thread.start()
        try:
            self._await_health()
        except OSError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_health(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=5.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            finally:
                conn.close()
            time.sleep(0.005)

    def replica_pids(self) -> List[int]:
        return [w["pid"] for w in self.dispatcher.fleet_snapshot()["workers"] if w["pid"]]

    def close(self) -> None:
        self.server.__exit__(None, None, None)
        self.thread.join(timeout=30.0)


def _oracle_families(registry: str, requests: List[inputs.Request]) -> Dict[str, str]:
    """The direct engine's family for every well-formed listing."""
    from repro.serve.engine import InferenceEngine
    from repro.serve.registry import load

    loaded = load(registry, model.MODEL_NAME, model.MODEL_VERSION)
    engine = InferenceEngine(loaded.magic, cache_size=0)
    families: Dict[str, Optional[str]] = {}
    for request in requests:
        if request.kind != "malformed" and request.text not in families:
            result = engine.classify_text(request.text, request.name)
            families[request.text] = result.family if result.ok else None
    return families


def _phases(seconds: float):
    half = seconds / 2.0
    return [("low", LOW_RPS, half, half * WARMUP_SHARE),
            ("high", HIGH_RPS, half, half * WARMUP_SHARE)]


def _replay(fleet: Fleet, seconds: float, requests: List[inputs.Request],
            trace: bool, spool: str) -> Dict:
    """Send the schedule once to ``fleet``; raw outcomes, CPU and memory."""
    samples: List[int] = [0]
    stop_sampling = threading.Event()

    def sample_queue() -> None:
        while not stop_sampling.wait(0.01):
            samples.append(fleet.dispatcher.fleet_snapshot()["queue_depth"])

    os.makedirs(spool, exist_ok=True)
    job_path = os.path.join(spool, "loadgen-job.json")
    result_path = os.path.join(spool, "loadgen-result.json")
    generator = None
    try:
        pids = [os.getpid()] + fleet.replica_pids()
        (_, _, low_length, low_warmup), (_, _, _, high_warmup) = _phases(seconds)
        start_at = time.monotonic() + 1.0

        def cpu_at(offset: float) -> float:
            time.sleep(max(0.0, start_at + offset - time.monotonic()))
            return cpu_seconds(pids)

        with open(job_path, "w") as handle:
            json.dump({
                "host": "127.0.0.1", "port": fleet.server.port, "start_at": start_at,
                "due": [r.due for r in requests],
                "bodies": [json.dumps({"name": r.name, "asm": r.text}) for r in requests],
                "connections": _replicas(), "timeout": REQUEST_TIMEOUT_S,
            }, handle)
        # The generator is its own process so that it does not compete
        # with the server's threads for this interpreter's lock.
        generator = subprocess.Popen(
            [sys.executable, loadgen.__file__, job_path, result_path])
        reset_ok = reset_peak_rss(pids)
        sampler = threading.Thread(target=sample_queue, name="queue-sampler")
        if trace:
            sampler.start()
        # CPU time is taken over the measured windows only: the warm-ups
        # fill each replica's caches, which depends on routing.
        cpu = -cpu_at(low_warmup)
        cpu += cpu_at(low_length)
        low_snapshot = fleet.dispatcher.metrics_snapshot()
        cpu -= cpu_at(low_length + high_warmup)
        exit_code = generator.wait(timeout=seconds + 2 * REQUEST_TIMEOUT_S + 30.0)
        end_snapshot = fleet.dispatcher.metrics_snapshot()
        peak = peak_rss_mb(pids, reset_ok)
        cpu += cpu_seconds(pids)
        stop_sampling.set()
        if trace:
            sampler.join()
        if exit_code != 0:
            raise RuntimeError(f"load generator failed (exit code {exit_code})")
        with open(result_path) as handle:
            outcomes = json.load(handle)
    finally:
        if generator is not None and generator.poll() is None:
            generator.kill()
            generator.wait()
        for path in (job_path, result_path):
            if os.path.exists(path):
                os.remove(path)
    return {"start_at": start_at, "outcomes": outcomes, "cpu_s": cpu, "peak_rss_mb": peak,
            "low_snapshot": low_snapshot, "end_snapshot": end_snapshot,
            "queue_depth_max": max(samples)}


def _score(replay: Dict, seconds: float, families, requests: List[inputs.Request],
           failures: List[str]) -> Dict:
    """Check one replay's answers and split its timings by phase."""
    from repro.datasets.mskcfg import MSKCFG_FAMILIES
    from repro.similarity import DEFAULT_SIMILARITY_THRESHOLD

    start_at = replay["start_at"]
    stats = {}
    offset = 0.0
    for phase, _, length, warmup in _phases(seconds):
        stats[phase] = {"sent": 0, "succeeded": 0, "failed": 0, "latency_ms": [],
                        "late_ms": [], "good": 0, "begin": start_at + offset + warmup,
                        "end": start_at + offset + length}
        offset += length
    failed = labelled = right = 0
    low_with_warmup: List[float] = []
    for request, (sent, finished, reply) in zip(requests, replay["outcomes"]):
        status, family, similar, similarity, kind, cached = reply
        if request.kind == "malformed":
            ok = status == 422 and kind == "parse"
            check(ok, failures, f"{request.name}: malformed listing got {status} {kind}")
        elif status != 200:
            ok = False
            failures.append(f"{request.name}: status {status} {kind}")
        elif similar:
            ok = similarity is not None and similarity >= DEFAULT_SIMILARITY_THRESHOLD
            check(ok, failures, f"{request.name}: similar at {similarity}")
        else:
            ok = family == families[request.text]
            check(ok, failures,
                  f"{request.name}: served {family}, direct engine {families[request.text]}")
        failed += not ok
        latency = 1000.0 * (finished - (start_at + request.due))
        if request.phase == "low":
            low_with_warmup.append(latency)
        if request.warmup:
            continue
        phase = stats[request.phase]
        phase["sent"] += 1
        phase["succeeded"] += ok
        phase["failed"] += not ok
        phase["latency_ms"].append(latency)
        phase["late_ms"].append(1000.0 * (sent - (start_at + request.due)))
        phase["good"] += ok and latency <= LATENCY_LIMIT_MS
        if request.label is not None and status == 200:
            labelled += 1
            right += family == MSKCFG_FAMILIES[request.label]
        phase["end"] = max(phase["end"], finished)
    measured = sum(not request.warmup for request in requests)
    return {"stats": stats, "failed": failed, "low_with_warmup_ms": low_with_warmup,
            "labelled": labelled, "right": right,
            "cpu_ms_per_request": 1000.0 * replay["cpu_s"] / measured}


def _measure(registry: str, seconds: float, families, requests: List[inputs.Request],
             trace: bool, spool: str) -> Dict:
    """Replay the schedule REPLAYS times, each on a freshly set-up fleet.

    The set-ups and speed probes are spread over the run, a few before
    each replay, so that their medians do not hang on one moment's speed.
    Each replay does the same work, so the CPU time per request is the
    best replay's: on a shared machine a neighbour can slow one replay
    down by a quarter, and a change to the program moves every replay.
    Timings are scaled to the nominal machine speed (see SpeedProbe); the
    probe runs while no fleet is up, because the server's threads in this
    process would take the interpreter lock from it.
    """
    probe = SpeedProbe()
    setups: List[float] = []
    failures: List[str] = []
    replays: List[Dict] = []
    for _ in range(REPLAYS):
        for _ in range(PROBES_PER_REPLAY):
            probe.sample()
        fleet: Optional[Fleet] = None
        try:
            for _ in range(SETUPS_PER_REPLAY):
                if fleet is not None:
                    fleet.close()
                    fleet = None
                fleet = Fleet(registry)
                setups.append(fleet.setup_s)
            assert fleet is not None
            replay = _replay(fleet, seconds, requests, trace, spool)
        finally:
            if fleet is not None:
                fleet.close()
        replay.update(_score(replay, seconds, families, requests, failures))
        replays.append(replay)
    seen = set()
    repeats = 0
    for request in requests:
        repeats += request.text in seen
        seen.add(request.text)
    slowdown = probe.slowdown()
    raw = {"setup_s": median(setups),
           "cpu_ms_per_request": min(replay["cpu_ms_per_request"] for replay in replays)}
    return {
        "setup_s": raw["setup_s"] / slowdown,
        "cpu_ms_per_request": raw["cpu_ms_per_request"] / slowdown,
        "raw": raw, "slowdown": slowdown, "probe_runs": probe.samples,
        "setup_runs": setups,
        "peak_rss_mb": median([replay["peak_rss_mb"] for replay in replays]),
        "failures": failures, "attempted": REPLAYS * len(requests),
        "failed": sum(replay["failed"] for replay in replays),
        "replays": replays, "repeat_share": repeats / len(requests),
    }


def _phase_percentile(measured: Dict, phase: str, q: float) -> float:
    """Median over the replays of each replay's latency percentile."""
    return median([percentile(replay["stats"][phase]["latency_ms"], q)
                   for replay in measured["replays"]])


def _latency(measured: Dict) -> Dict:
    return {phase: {"p50_ms": _phase_percentile(measured, phase, 50),
                    "p90_ms": _phase_percentile(measured, phase, 90)}
            for phase in ("low", "high")}


def _goodput(measured: Dict) -> float:
    """Correct answers within the limit per second of the measured high phases.

    Each replay's window runs from its first measured request's scheduled
    send to the later of the phase end and the last measured response.
    """
    highs = [replay["stats"]["high"] for replay in measured["replays"]]
    return sum(high["good"] for high in highs) / sum(high["end"] - high["begin"] for high in highs)


def run(seed: int, seconds: float, trace: bool, recorder_dir: str) -> Dict:
    registry = model.ensure_registry()
    span = (seconds / 2 if trace else seconds) / REPLAYS
    requests, trace_info = inputs.serve_trace(seed, _phases(span))
    log(f"serve-replay: {len(requests)} requests x {REPLAYS} replays, "
        f"{trace_info['unique_listings']} unique")
    families = _oracle_families(registry, requests)
    plain = _measure(registry, span, families, requests, False, recorder_dir)
    record = {
        "spec": {"replicas": _replicas(), "connections": _replicas(), "replays": REPLAYS,
                 "low_rps": LOW_RPS, "high_rps": HIGH_RPS, "capacity_rps": CAPACITY_RPS,
                 "phase_seconds": span / 2, "warmup_share": WARMUP_SHARE,
                 "latency_limit_ms": LATENCY_LIMIT_MS,
                 "setups_per_replay": SETUPS_PER_REPLAY,
                 "model": model.best_model_config(9, model.MODEL_SEED).__dict__},
        "inputs": trace_info,
        "setup_runs": plain["setup_runs"],
        "raw": plain["raw"],
        "slowdown": plain["slowdown"],
        "probe_runs": plain["probe_runs"],
        "replays": [
            {"cpu_ms_per_request": replay["cpu_ms_per_request"],
             "peak_rss_mb": replay["peak_rss_mb"],
             "phases": {p: {k: v for k, v in st.items() if k not in ("latency_ms", "late_ms")}
                        for p, st in replay["stats"].items()}}
            for replay in plain["replays"]
        ],
    }
    result = {"attempted": plain["attempted"], "failed": plain["failed"],
              "failures": plain["failures"], "record": record}
    if not trace:
        result["metrics"] = {
            "setup_s": plain["setup_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
            "ok_share": 1.0 - plain["failed"] / plain["attempted"],
            "throughput_per_s": _goodput(plain),
            "cpu_ms_per_item": plain["cpu_ms_per_request"],
        }
        record["latency"] = _latency(plain)
        return result

    recorder = tracing.SpanRecorder(recorder_dir)
    tracing.install(recorder)
    try:
        traced = _measure(registry, span, families, requests, True, recorder_dir)
    finally:
        recorder.uninstall()
    record["replica_span_files"] = recorder.collect_children()
    result["attempted"] += traced["attempted"]
    result["failed"] += traced["failed"]
    result["failures"].extend(traced["failures"])
    self_s, counts = tracing.self_times(recorder.spans)
    record["span_counts"] = counts
    served = traced["attempted"]
    record["self_ms_per_request"] = {
        name: 1000.0 * total / served for name, total in self_s.items()}
    latency = _latency(plain)
    record["latency"] = latency
    # Ratios come from the last replay's fleet; fault counters add up.
    last = traced["replays"][-1]
    end, low = last["end_snapshot"], last["low_snapshot"]
    cache = end["cache"]
    lookups = cache["exact_hits"] + cache["similar_hits"] + cache["misses"]
    ends = [replay["end_snapshot"] for replay in traced["replays"]]
    workers = [w for snapshot in ends for w in snapshot["fleet"]["workers"]]
    # The server's request-stage ring at the end of the low phase covers
    # the low phase with its warm-up; compare it with the same requests.
    server_ms = low["latency_ms"]["request"]["p50"]
    client_ms = percentile(last["low_with_warmup_ms"], 50)
    record["http"] = {"server_request_ms_p50": server_ms, "client_ms_p50": client_ms}
    # Each miss is classified on its own (batch of one) in a replica.
    largest, typical = layers.adjacency_mb(trace_info["unique_vertices"], 1)
    counters = {
        # Latency percentiles swing with scheduling delays on small shared
        # machines, so they are per-layer figures of the high phase, from
        # the untraced half, with no bound.
        "latency_ms_p50": latency["high"]["p50_ms"],
        "latency_ms_p90": latency["high"]["p90_ms"],
        "accuracy": sum(r["right"] for r in plain["replays"])
        / sum(r["labelled"] for r in plain["replays"]),
        "features.dense_adjacency_mb": largest,
        "features.dense_adjacency_mb_p50": typical,
        "engine.requests": lookups,
        "engine.exact_hit_ratio": cache["exact_hits"] / lookups,
        "engine.similar_hit_ratio": cache["similar_hits"] / lookups,
        "engine.miss_ratio": cache["misses"] / lookups,
        "engine.repeat_share": traced["repeat_share"],
        "fleet.batch_mean_size": end["batches"]["mean_size"],
        "fleet.queue_depth_max": max(replay["queue_depth_max"] for replay in traced["replays"]),
        "fleet.respawns": sum(w["respawns"] for w in workers),
        "fleet.retries": sum(w["retries"] for w in workers),
        "fleet.loop_faults": sum(snapshot["fleet"]["loop_faults"] for snapshot in ends),
        "http.client_overhead_share": (client_ms - server_ms) / client_ms,
        "trace.overhead_share":
            _phase_percentile(traced, "low", 50) / _phase_percentile(plain, "low", 50) - 1.0,
        "datasets.generate_ms_per_sample": trace_info["generate_ms_per_sample"],
    }
    late = []
    for phase in ("low", "high"):
        stats = [replay["stats"][phase] for replay in traced["replays"]]
        for key in ("sent", "succeeded", "failed"):
            counters[f"loadgen.{phase}.{key}"] = sum(st[key] for st in stats)
        late.extend(value for st in stats for value in st["late_ms"])
    counters["loadgen.late_share"] = sum(value > LATE_MS for value in late) / len(late)
    result["metrics"] = layers.per_layer(recorder.spans, served, "engine.classify", counters)
    result["spans"] = recorder
    return result
