"""HTTP front-end tests, including the end-to-end acceptance path:
train tiny model -> publish archive -> start server -> concurrent
/classify requests coalesce (visible in the /metrics batch-size
histogram) and return the same labels as direct prediction, bit for
bit."""

import contextlib
import http.client
import json
import threading
import time

import pytest

from repro.serve import (
    ClassificationServer,
    FleetDispatcher,
    InferenceEngine,
    build_fleet_server,
    build_server,
)

from tests.serve.conftest import MODEL_NAME


@contextlib.contextmanager
def running_server(engine, **kwargs):
    server = build_server(engine, **kwargs)
    with server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            pass
    thread.join(timeout=5)


def request(server, method, path, payload=None, raw_body=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=30
    )
    try:
        if raw_body is not None:
            body = raw_body
        elif payload is not None:
            body = json.dumps(payload).encode("utf-8")
        else:
            body = None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


@pytest.fixture()
def engine(registry_root):
    return InferenceEngine.from_registry(registry_root, MODEL_NAME)


class TestEndToEnd:
    def test_concurrent_classify_coalesces_and_matches_direct_prediction(
        self, registry_root, tiny_magic, listing_samples
    ):
        """The PR acceptance path, end to end over real sockets."""
        samples = listing_samples[:6]
        engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0
        )
        with running_server(
            engine, max_batch_size=6, max_wait_ms=500.0
        ) as server:
            statuses = [None] * len(samples)
            payloads = [None] * len(samples)

            def classify(index, name, text):
                statuses[index], payloads[index] = request(
                    server, "POST", "/classify",
                    payload={"name": name, "asm": text},
                )

            threads = [
                threading.Thread(target=classify, args=(i, name, text))
                for i, (name, text) in enumerate(samples)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            _, metrics = request(server, "GET", "/metrics")

        assert statuses == [200] * len(samples)

        # Coalescing is observable: at least one multi-request batch.
        histogram = metrics["batches"]["size_histogram"]
        assert max(int(size) for size in histogram) >= 2
        assert sum(
            int(size) * count for size, count in histogram.items()
        ) == len(samples)

        # Served labels equal direct prediction through the training-time
        # system, bit for bit (labels are integers; no tolerance needed).
        acfgs = [
            tiny_magic.acfg_from_asm(text, name=name)
            for name, text in samples
        ]
        direct = tiny_magic.predict_proba(acfgs)
        for payload, row, (name, _) in zip(payloads, direct, samples):
            assert payload["name"] == name
            assert payload["label"] == int(row.argmax())
            assert payload["family"] == tiny_magic.family_names[
                int(row.argmax())
            ]

    def test_repeat_request_is_served_from_cache(
        self, engine, listing_samples
    ):
        name, text = listing_samples[0]
        body = {"name": name, "asm": text}
        with running_server(engine, max_wait_ms=0.0) as server:
            _, first = request(server, "POST", "/classify", payload=body)
            _, second = request(server, "POST", "/classify", payload=body)
            _, metrics = request(server, "GET", "/metrics")
        assert not first["cached"]
        assert second["cached"]
        assert second["probabilities"] == first["probabilities"]
        assert metrics["cache"]["exact_hits"] == 1


class TestEndpoints:
    def test_healthz(self, engine):
        with running_server(
            engine, max_batch_size=4, max_wait_ms=2.0
        ) as server:
            status, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model"] == f"{MODEL_NAME}@v1"
        assert payload["families"] == engine.family_names
        assert payload["uptime_seconds"] >= 0
        assert payload["batching"] == {
            "max_batch_size": 4, "max_wait_ms": 2.0,
        }

    def test_metrics_shape(self, engine, listing_samples):
        name, text = listing_samples[0]
        with running_server(engine, max_wait_ms=0.0) as server:
            request(
                server, "POST", "/classify",
                payload={"name": name, "asm": text},
            )
            status, payload = request(server, "GET", "/metrics")
        assert status == 200
        assert payload["requests"]["total"] == 1
        assert payload["requests"]["ok"] == 1
        assert payload["batches"]["size_histogram"] == {"1": 1}
        for stage in ("extract", "forward", "request"):
            assert payload["latency_ms"][stage]["count"] >= 1
            assert payload["latency_ms"][stage]["p50"] >= 0

    def test_malformed_sample_returns_422_with_kind(self, engine):
        with running_server(engine, max_wait_ms=0.0) as server:
            status, payload = request(
                server, "POST", "/classify",
                payload={"name": "junk", "asm": "not a listing at all"},
            )
        assert status == 422
        assert payload["name"] == "junk"
        assert payload["error"]["kind"] == "parse"
        assert payload["error"]["detail"]

    def test_bad_requests_return_400(self, engine):
        with running_server(engine, max_wait_ms=0.0) as server:
            status, payload = request(
                server, "POST", "/classify", raw_body=b"{not json"
            )
            assert status == 400
            assert "JSON" in payload["error"]

            status, payload = request(
                server, "POST", "/classify", payload={"name": "x"}
            )
            assert status == 400
            assert "asm" in payload["error"]

            status, payload = request(
                server, "POST", "/classify",
                payload={"asm": "mov eax, 1", "name": 7},
            )
            assert status == 400
            assert "name" in payload["error"]

            status, _ = request(server, "POST", "/classify", raw_body=b"[]")
            assert status == 400

    def test_unknown_paths_return_404(self, engine):
        with running_server(engine) as server:
            assert request(server, "GET", "/nope")[0] == 404
            assert request(
                server, "POST", "/nope", payload={"asm": "x"}
            )[0] == 404

    def test_rollout_endpoints_refuse_single_process_mode(self, engine):
        with running_server(engine, max_wait_ms=0.0) as server:
            for method, path in (
                ("GET", "/rollout/status"),
                ("POST", "/rollout/start"),
                ("POST", "/rollout/promote"),
                ("POST", "/rollout/rollback"),
            ):
                payload = {"version": "v2"} if path.endswith("start") else {}
                status, body = request(server, method, path, payload=payload)
                assert status == 409
                assert "--workers" in body["error"]


class TestRestartRebind:
    def test_allow_reuse_address_is_pinned_on(self):
        # The restart-rebind contract lives on the class so every server
        # (CLI, tests, fleet mode) gets it — not a per-instance flag.
        assert ClassificationServer.allow_reuse_address is True

    def test_port_rebinds_immediately_after_shutdown(
        self, engine, listing_samples
    ):
        name, text = listing_samples[0]
        with running_server(engine, max_wait_ms=0.0) as server:
            port = server.port
            # Serve one real request so a connection socket actually
            # cycled through this port before the restart.
            status, _ = request(
                server, "POST", "/classify",
                payload={"name": name, "asm": text},
            )
            assert status == 200
        # Rebinding the exact port right after close must not raise
        # EADDRINUSE while the old sockets sit in TIME_WAIT.
        with running_server(engine, port=port, max_wait_ms=0.0) as reborn:
            assert reborn.port == port
            assert request(reborn, "GET", "/healthz")[0] == 200


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_requests(
        self, registry_root, listing_samples
    ):
        """Requests accepted before shutdown still complete with 200."""
        engine = InferenceEngine.from_registry(
            registry_root, MODEL_NAME, cache_size=0
        )
        samples = listing_samples[:6]
        # max_batch_size=1 serializes the forwards, so most requests are
        # still queued inside the batcher when shutdown begins.
        server = build_server(engine, max_batch_size=1, max_wait_ms=0.0)
        statuses = [None] * len(samples)

        def classify(index, name, text):
            statuses[index], _ = request(
                server, "POST", "/classify",
                payload={"name": name, "asm": text},
            )

        clients = [
            threading.Thread(target=classify, args=(i, name, text))
            for i, (name, text) in enumerate(samples)
        ]
        with server:
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            for client in clients:
                client.start()
            # Wait until every request is either answered or sitting in
            # the backend queue — i.e. all were accepted — then shut
            # down while some are genuinely in flight.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                answered = sum(s is not None for s in statuses)
                if answered + server.backend.pending_count >= len(samples):
                    break
                time.sleep(0.01)
        thread.join(timeout=10)
        for client in clients:
            client.join(timeout=30)
        # The ordered drain means nobody saw a torn connection or a 503.
        assert statuses == [200] * len(samples)


@contextlib.contextmanager
def running_fleet_server(registry_root, **kwargs):
    dispatcher = FleetDispatcher(
        registry_root, MODEL_NAME, num_workers=2, cache_size=0,
    )
    server = build_fleet_server(dispatcher, **kwargs)
    with server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
    thread.join(timeout=5)


class TestFleetHTTP:
    def test_fleet_surface_over_http(self, registry_root, listing_samples):
        name, text = listing_samples[0]
        with running_fleet_server(registry_root) as server:
            status, health = request(server, "GET", "/healthz")
            assert status == 200
            assert health["model"] == f"{MODEL_NAME}@v1"
            assert health["workers"] == 2

            status, payload = request(
                server, "POST", "/classify",
                payload={"name": name, "asm": text},
            )
            assert status == 200
            assert payload["family"] in health["families"]

            status, metrics = request(server, "GET", "/metrics")
            assert status == 200
            assert metrics["fleet"]["model"] == f"{MODEL_NAME}@v1"
            assert len(metrics["fleet"]["workers"]) == 2

            # No rollout started yet.
            status, body = request(server, "GET", "/rollout/status")
            assert status == 404

            # Unknown candidate version: refused, fleet unharmed.
            status, body = request(
                server, "POST", "/rollout/start",
                payload={"version": "v99"},
            )
            assert status == 409
            assert "v99" in body["error"]
            assert request(server, "GET", "/healthz")[0] == 200

            # Promote with nothing active: same story.
            status, body = request(server, "POST", "/rollout/promote",
                                   payload={})
            assert status == 409
            assert "no active rollout" in body["error"]
