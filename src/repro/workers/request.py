"""Long-lived request workers: the serving half of ``repro.workers``.

Where :class:`~repro.workers.pool.ProcessWorkerPool` runs a finite batch
of units and exits, a :class:`RequestWorker` is a persistent replica: it
initializes once (typically loading a model from the registry), tells
the parent it is ready, then answers ``(request_id, payload)`` messages
until stopped.  The fleet dispatcher (:mod:`repro.serve.fleet`) owns a
set of these and multiplexes traffic over their pipes.

Wire protocol (parent's view):

* child → parent, once: ``("__ready__", None)`` after successful init,
  or ``("__init_error__", detail)`` if the factory raised;
* parent → child: ``(request_id, payload)``; ``None`` asks the child to
  exit cleanly;
* child → parent: ``(request_id, "ok", result)`` or
  ``(request_id, "fail", detail)`` — handler exceptions are reported,
  never fatal, so one poisonous request cannot take a replica down.

Worker code is resolved by *name* inside the child: the parent ships a
``"module.path:function"`` entrypoint string plus picklable keyword
arguments, and the child imports and calls the factory itself.  No
callable ever crosses the pipe (the pool-safety invariant), so request
workers behave identically under fork and spawn start methods.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.exceptions import WorkerError, WorkerStartupError
from repro.workers.pool import (
    _TICK_SECONDS,
    pool_context,
    recv_unless_orphaned,
    terminate_process,
)

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

    from repro.workers.pool import PipeConn

#: request_id of the readiness announcement (never a real request id).
READY = "__ready__"

#: request_id of an initialization-failure report.
INIT_ERROR = "__init_error__"

#: Default seconds a worker gets to initialize before start() gives up.
DEFAULT_START_TIMEOUT = 60.0


def resolve_entrypoint(entrypoint: str) -> Callable[..., Any]:
    """Import and return the factory named by ``"module.path:function"``.

    Runs inside the child (and in tests); the returned factory is called
    with the worker's init kwargs and must return the request handler —
    a callable taking one payload and returning a picklable result.
    """
    module_name, _, attr = entrypoint.partition(":")
    if not module_name or not attr:
        raise WorkerError(
            f"entrypoint {entrypoint!r} is not of the form 'module:function'"
        )
    module = importlib.import_module(module_name)
    try:
        factory = getattr(module, attr)
    except AttributeError:
        raise WorkerError(
            f"entrypoint {entrypoint!r}: module {module_name!r} has no "
            f"attribute {attr!r}"
        ) from None
    if not callable(factory):
        raise WorkerError(f"entrypoint {entrypoint!r} is not callable")
    return factory


@dataclass(frozen=True)
class WorkerReply:
    """One parsed child → parent message."""

    request_id: Any
    ok: bool
    value: Any

    @classmethod
    def from_message(cls, message: Tuple[Any, ...]) -> "WorkerReply":
        request_id, status, value = message
        return cls(request_id=request_id, ok=(status == "ok"), value=value)


def _request_worker_main(
    conn: "PipeConn", entrypoint: str, init_kwargs: Dict[str, Any], parent_pid: int
) -> None:
    """Child process body: init once, announce, then serve requests.

    The loop ends on the ``None`` stop message, on EOF, or when the
    parent dies (:func:`~repro.workers.pool.recv_unless_orphaned`).
    """
    try:
        handler = resolve_entrypoint(entrypoint)(**init_kwargs)
    except BaseException as exc:  # repro: allow[broad-except] — init failure must reach the parent
        try:
            conn.send((INIT_ERROR, "fail", f"{type(exc).__name__}: {exc}"))  # repro: allow[fault-contract] — the INIT_ERROR report itself; OSError guarded, anything else is unreportable
        except OSError:
            pass
        return
    try:
        conn.send((READY, "ok", None))  # repro: allow[fault-contract] — constant payload; only OSError can occur and it is caught
    except OSError:  # parent died between spawn and ready; exit quietly
        return
    while True:
        try:
            message = recv_unless_orphaned(conn, parent_pid)  # repro: allow[fault-contract] — non-EOF recv failure means a torn protocol; dying lets the parent classify the crash
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        request_id, payload = message
        try:
            result = handler(payload)
            reply = (request_id, "ok", result)
        except Exception as exc:  # repro: allow[broad-except] — handler faults are per-request data
            reply = (request_id, "fail", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except Exception as exc:  # repro: allow[broad-except] — unpicklable result; report, don't die
            conn.send(  # repro: allow[fault-contract] — last-resort report; a broken pipe here is a crash the parent detects
                (request_id, "fail",
                 f"worker result not transferable: {type(exc).__name__}: {exc}")
            )


class RequestWorker:
    """Parent-side handle on one persistent worker process.

    The handle is deliberately thin: it owns process lifecycle (spawn,
    readiness, SIGKILL, respawn-with-counter) and exposes the raw pipe
    via :attr:`conn` so a dispatcher can multiplex many workers with
    ``multiprocessing.connection.wait``.  Routing policy, deadlines and
    retries live in the dispatcher, not here.
    """

    def __init__(
        self,
        name: str,
        entrypoint: str,
        init_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.entrypoint = entrypoint
        self.init_kwargs = dict(init_kwargs or {})
        self.respawns = 0
        self._mp = pool_context()
        self._process: Optional["BaseProcess"] = None
        self._conn: Optional["PipeConn"] = None
        self._ready = False

    # -- introspection ------------------------------------------------

    @property
    def conn(self) -> Optional["PipeConn"]:
        """The parent end of the pipe (``None`` before :meth:`start`)."""
        return self._conn

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    @property
    def ready(self) -> bool:
        """True once the child announced successful initialization."""
        return self._ready

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    # -- lifecycle ----------------------------------------------------

    def start(self, wait_ready: Optional[float] = DEFAULT_START_TIMEOUT) -> None:
        """Spawn the child; optionally block until it announces ready.

        With ``wait_ready=None`` the call returns immediately and the
        caller collects the readiness message from :attr:`conn` itself
        (how the fleet respawns replicas without stalling the dispatch
        loop).  A child that reports an init error — or misses the
        deadline — raises :class:`WorkerStartupError`.
        """
        if self._process is not None:
            raise WorkerError(f"worker {self.name!r} is already started")
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_request_worker_main,
            args=(child_conn, self.entrypoint, self.init_kwargs, os.getpid()),
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end
        self._process = process
        self._conn = parent_conn
        self._ready = False
        if wait_ready is not None:
            self.wait_ready(wait_ready)

    def wait_ready(self, timeout: float) -> None:
        """Block until the readiness announcement (or fail loudly)."""
        if self._ready:
            return
        conn = self._conn
        if conn is None:
            raise WorkerError(f"worker {self.name!r} is not started")
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop(kill=True)
                raise WorkerStartupError(
                    self.name, f"not ready within {timeout}s"
                )
            if conn.poll(min(remaining, _TICK_SECONDS)):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    exitcode = self.stop(kill=True)
                    raise WorkerStartupError(
                        self.name,
                        f"process died during init (exit code {exitcode})",
                    ) from None
                self.observe_ready(message)
                if self._ready:
                    return

    def observe_ready(self, message: Tuple[Any, ...]) -> None:
        """Apply a readiness/init-error message read off :attr:`conn`.

        Split out from :meth:`wait_ready` so a dispatcher that already
        multiplexes the pipe can feed the message through here instead.
        """
        request_id = message[0]
        if request_id == READY:
            self._ready = True
        elif request_id == INIT_ERROR:
            self.stop(kill=True)
            raise WorkerStartupError(self.name, str(message[2]))
        else:
            raise WorkerError(
                f"worker {self.name!r} sent {request_id!r} before ready"
            )

    def send(self, request_id: Any, payload: Any) -> None:
        """Ship one request down the pipe (raises if the worker is down)."""
        if self._conn is None:
            raise WorkerError(f"worker {self.name!r} is not started")
        self._conn.send((request_id, payload))

    def stop(self, kill: bool = False) -> Optional[int]:
        """Stop the child (politely unless ``kill``); returns exit code."""
        process, conn = self._process, self._conn
        if process is None or conn is None:
            return None
        if not kill and process.is_alive():
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        exitcode = terminate_process(process, conn, kill=kill)
        self._process = None
        self._conn = None
        self._ready = False
        return exitcode

    def respawn(self, kill: bool = True,
                wait_ready: Optional[float] = None) -> None:
        """Replace the child in place, bumping the respawn counter."""
        self.stop(kill=kill)
        self.respawns += 1
        self.start(wait_ready=wait_ready)
