"""A small blocking client for the result service.

:class:`ServeClient` speaks the :mod:`repro.serve.api` schema over a
persistent ``http.client`` connection (keep-alive — one TCP connection
serves an entire closed-loop load run).  Every reply is decoded and
type-checked through :func:`repro.serve.api.decode`; a server-side
:class:`~repro.serve.api.ErrorReply` raises
:class:`~repro.errors.ServeError` with the server's message, so callers
never have to look at HTTP status codes.

The instance is *not* thread-safe (one underlying socket); concurrent
load generators give each worker its own client — see
:func:`client_backend`.
"""

from __future__ import annotations

import http.client
import threading
import time
from typing import Dict, Optional, Sequence
from urllib.parse import urlsplit

from ..errors import ServeError
from . import api

#: The CLI/client default when neither --url nor the env names one.
DEFAULT_URL = "http://127.0.0.1:8023"

#: Environment override consulted by the ``repro query`` CLI.
URL_ENV = "REPRO_SERVE_URL"

#: POST routes that only read, so a request whose reply was lost may be
#: sent again; every GET is too.
_REPEATABLE_POSTS = frozenset({"/v1/query", "/v1/metrics", "/v1/diff"})


class ServeClient:
    """Blocking access to one result service."""

    def __init__(self, url: str = DEFAULT_URL,
                 timeout: float = 30.0) -> None:
        parts = urlsplit(url if "//" in url else f"//{url}",
                         scheme="http")
        if parts.scheme != "http" or not parts.hostname:
            raise ServeError(f"serve: bad service url {url!r} "
                             f"(need http://host:port)")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, method: str, path: str,
              message: Optional[api.Message] = None,
              expect: Optional[type] = None) -> api.Message:
        body = message.to_json().encode() if message is not None else b""
        headers = {"Content-Type": "application/json"}
        attempts = 2 if method == "GET" or path in _REPEATABLE_POSTS else 1
        for attempt in range(1, attempts + 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (ConnectionError, http.client.HTTPException,
                    OSError) as error:
                # A dropped keep-alive socket gets one fresh retry when
                # the request is safe to send twice.  A submit is not:
                # the server may have queued its fleet before the reply
                # was lost.  A dead server surfaces as ServeError.
                self.close()
                if attempt == attempts:
                    raise ServeError(
                        f"serve: cannot reach {self.host}:{self.port} "
                        f"({error})")
        reply = api.decode(data, expect=expect)
        if isinstance(reply, api.ErrorReply):
            raise ServeError(reply.error)
        return reply

    # ------------------------------------------------------------------
    # The API surface (one method per message pair)
    # ------------------------------------------------------------------
    def ping(self) -> api.Pong:
        return self._call("GET", "/v1/ping", expect=api.Pong)

    def stats(self) -> dict:
        reply = self._call("GET", "/v1/stats", expect=api.StatsReply)
        return reply.metrics

    def query(self, family: str, config_hash: str, point, seed: int,
              version: str = "1",
              obs: Optional[dict] = None) -> api.PointReply:
        return self.query_point(api.PointQuery(
            family=family, config_hash=config_hash, point=point,
            seed=seed, version=str(version), obs=obs))

    def query_point(self, query: api.PointQuery) -> api.PointReply:
        return self._call("POST", "/v1/query", query,
                          expect=api.PointReply)

    def archives(self) -> api.ArchiveList:
        return self._call("GET", "/v1/archives", expect=api.ArchiveList)

    def archive(self, run_id: str) -> api.ArchiveReply:
        return self._call("GET", f"/v1/archives/{run_id}",
                          expect=api.ArchiveReply)

    def metrics(self, glob: str) -> api.MetricMatches:
        return self._call("POST", "/v1/metrics",
                          api.MetricQuery(glob=glob),
                          expect=api.MetricMatches)

    def diff(self, run_a: str, run_b: str,
             rules: Sequence[dict] = (), only_violations: bool = False,
             ignore_instrumentation: bool = False) -> api.DiffReply:
        return self._call("POST", "/v1/diff", api.DiffQuery(
            run_a=run_a, run_b=run_b, rules=tuple(rules),
            only_violations=only_violations,
            ignore_instrumentation=ignore_instrumentation),
            expect=api.DiffReply)

    def submit(self, suite: str, **fields) -> api.SubmitReply:
        return self._call("POST", "/v1/submit",
                          api.SweepSubmit(suite=suite, **fields),
                          expect=api.SubmitReply)

    def jobs(self) -> api.JobList:
        return self._call("GET", "/v1/jobs", expect=api.JobList)

    def job(self, job_id: str) -> api.JobReply:
        return self._call("GET", f"/v1/jobs/{job_id}",
                          expect=api.JobReply)

    def wait_job(self, job_id: str, timeout: float = 120.0,
                 poll: float = 0.1) -> api.JobReply:
        """Poll until the job leaves queued/running; returns the final
        reply (the caller inspects ``job["state"]``)."""
        deadline = time.monotonic() + timeout
        while True:
            reply = self.job(job_id)
            if reply.job.get("state") not in ("queued", "running"):
                return reply
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"serve: job {job_id} still "
                    f"{reply.job.get('state')} after {timeout:.0f}s")
            time.sleep(poll)


class ClientBackend:
    """A load-generator backend issuing one warm query per request.

    Each generator worker thread gets its own :class:`ServeClient` (one
    keep-alive socket per worker), so the callable can be shared across
    any number of :func:`repro.cloud.loadgen.closed_loop` workers.  The
    backend owns those clients: :meth:`close` (or leaving a ``with``
    block) closes every socket it opened.
    """

    def __init__(self, url: str, query: api.PointQuery) -> None:
        self.url = url
        self.query = query
        self._clients: Dict[int, ServeClient] = {}   # by thread ident
        self._lock = threading.Lock()

    def __call__(self, index: int):
        ident = threading.get_ident()
        with self._lock:
            client = self._clients.get(ident)
            if client is None:
                client = self._clients[ident] = ServeClient(self.url)
        reply = client.query_point(self.query)
        if not reply.found:
            raise ServeError(f"serve: load backend got a miss for "
                             f"request {index}")
        return reply.value

    def close(self) -> None:
        with self._lock:
            clients, self._clients = self._clients, {}
        for client in clients.values():
            client.close()

    def __enter__(self) -> "ClientBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def client_backend(url: str, query: api.PointQuery) -> ClientBackend:
    """A closable load-generator backend; see :class:`ClientBackend`."""
    return ClientBackend(url, query)
