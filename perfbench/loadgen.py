"""Open-loop HTTP load generator, run as its own process.

    python3 perfbench/loadgen.py JOB.json RESULT.json

Requests go out on a fixed schedule whatever the server does: each of at
most ``nproc`` connection slots takes the next due request, sleeps until
its due time and sends it.  Latency runs from the *scheduled* send time
to the end of the response read, so a stall also charges the requests it
delays.  The generator reports how late it sent each request, and
counts refused, timed-out and failed requests against those attempted.

The server speaks HTTP/1.0 and closes each connection after its reply;
a slot's ``HTTPConnection`` then reconnects on its next request.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

#: (status, family, similar, similarity, error kind, cached)
Reply = Tuple[int, Optional[str], bool, Optional[float], Optional[str], bool]


def _summarize(status: int, body: bytes) -> Reply:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return status, None, False, None, "unparseable response", False
    error = payload.get("error")
    kind = error.get("kind") if isinstance(error, dict) else (str(error) if error else None)
    return (
        status,
        payload.get("family"),
        bool(payload.get("similar", False)),
        payload.get("similarity"),
        kind,
        bool(payload.get("cached", False)),
    )


def drive(
    host: str,
    port: int,
    start_at: float,
    due: Sequence[float],
    bodies: Sequence[bytes],
    connections: int,
    timeout: float,
) -> List[Tuple[float, float, Reply]]:
    """Send ``bodies[i]`` at ``start_at + due[i]`` (``time.monotonic`` clock).

    Returns ``(sent_at, finished_at, reply)`` per request, in schedule
    order; a request that could not complete has status ``-1``.
    """
    results: List[Optional[Tuple[float, float, Reply]]] = [None] * len(due)
    cursor = [0]
    lock = threading.Lock()

    def slot() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(due):
                    return
                delay = start_at + due[index] - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                try:
                    conn.request("POST", "/classify", bodies[index],
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    body = response.read()
                    finished = time.monotonic()
                    reply = _summarize(response.status, body)
                except (OSError, http.client.HTTPException) as exc:
                    finished = time.monotonic()
                    reply = (-1, None, False, None, f"{type(exc).__name__}: {exc}", False)
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
                results[index] = (sent, finished, reply)
        finally:
            conn.close()

    threads = [threading.Thread(target=slot, name=f"loadgen-{i}") for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results  # type: ignore[return-value] — every slot is filled


def serve(job_path: str, result_path: str) -> None:
    """Process entry point: read a schedule file, write a results file."""
    with open(job_path) as handle:
        job = json.load(handle)
    job["bodies"] = [body.encode("utf-8") for body in job["bodies"]]
    outcomes = drive(**job)
    with open(result_path + ".tmp", "w") as handle:
        json.dump(outcomes, handle)
    os.replace(result_path + ".tmp", result_path)


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2])
