"""The result service: a stdlib-asyncio HTTP/1.1 front over store + farm.

SMAPPIC's pitch is prototypes *served from the cloud* (PAPER.md §1,
Fig. 12): users submit configurations and get measurements back without
owning hardware.  :class:`ResultService` is that serving plane for the
reproduction — a warm point is a header check and a SHA-256 of its
content-addressed :class:`~repro.store.ResultStore` entry, whose stored
value text is spliced into the reply unparsed; cold submissions become
farm fleets on a background worker, and the ``runs/`` archive tree is
queryable and diffable in place.

The server is deliberately plain: ``asyncio.start_server`` with a
minimal HTTP/1.1 request loop (keep-alive, Content-Length bodies, no
chunked encoding) — no new dependencies.  Handlers are synchronous and
small; the only potentially long operation, a cold sweep, is handed to
the :class:`~repro.serve.jobs.JobManager` thread and answered with a
job id to poll.

Routes (all bodies are :mod:`repro.serve.api` envelopes)::

    GET  /v1/ping                 -> pong
    POST /v1/query                -> point_reply        (store lookup)
    POST /v1/metrics              -> metric_matches     (glob over runs/)
    GET  /v1/archives             -> archive_list
    GET  /v1/archives/<run_id>    -> archive_reply
    POST /v1/diff                 -> diff_reply         (obs.diff rules)
    POST /v1/submit               -> submit_reply       (warm/cold split)
    GET  /v1/jobs                 -> job_list
    GET  /v1/jobs/<job_id>        -> job_reply          (farm.json mirror)
    GET  /v1/stats                -> stats_reply        (obs.serve.* etc.)

Every answered request increments ``obs.serve.requests`` (and
``obs.serve.errors`` when it failed); each routed one lands its handling
time in the ``obs.serve.latency_us`` histogram; query hits/misses and
spawned jobs count under ``obs.serve.hits`` / ``obs.serve.misses`` /
``obs.serve.jobs`` through the shared
:class:`~repro.obs.registry.MetricRegistry`.
"""

from __future__ import annotations

import asyncio
import fnmatch
import json
import os
import threading
import time
from importlib import import_module
from typing import Dict, Optional, Tuple, Union

from ..errors import ReproError, ServeError
from ..farm.spec import FarmSpec, local_farm
from ..obs.archive import RunArchive
from ..obs.registry import MetricRegistry
from ..store import ResultStore, entry_key
from . import api
from .jobs import JobManager

#: Request-parsing guard rails.  A peer past one is answered with an
#: ``ErrorReply`` (400, or 413 for the body) under ``Connection: close``
#: and then disconnected; nothing is buffered without bound.
MAX_HEADER_LINES = 100
MAX_LINE_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 500: "Internal Server Error"}


class _HttpError(Exception):
    """An error reply with a specific status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ResultService:
    """The serving plane over one store root and one ``runs/`` tree."""

    def __init__(self, store_root: str, runs_root: str = "runs",
                 spool_dir: Optional[str] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 farm: Optional[FarmSpec] = None,
                 registry: Optional[MetricRegistry] = None) -> None:
        self.store = ResultStore(store_root)
        self.runs_root = str(runs_root)
        self.host = host
        self.port = port                  # 0 = pick a free port at bind
        self.registry = registry if registry is not None \
            else MetricRegistry()
        if spool_dir is None:
            spool_dir = os.path.join(store_root, "serve-jobs")
        self.jobs = JobManager(self.store, farm or local_farm(slots=2),
                               spool_dir)
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving; resolves ``self.port`` when 0.

        Warm queries need only the store, so the service binds without
        the simulator and then imports the fleet planner
        (:mod:`repro.farm.suites`, and the simulator with it) on an
        executor thread.  The first cold submit finds it loaded, and
        every farm worker forked after that inherits it.
        """
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        preload = asyncio.get_running_loop().run_in_executor(
            None, import_module, "repro.farm.suites")
        # Read the result, so a failed import is logged, not dropped.
        preload.add_done_callback(asyncio.Future.result)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def close(self) -> None:
        self.jobs.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    # Past a guard rail the stream is no longer parsed,
                    # so answer and hang up instead of resynchronising.
                    await self._reply(writer, error.status,
                                      api.ErrorReply(error=str(error)),
                                      keep=False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                started = time.perf_counter()
                status, message = self._dispatch(method, path, body)
                keep = headers.get("connection", "").lower() != "close"
                await self._reply(writer, status, message, keep)
                self.registry.histogram("obs.serve.latency_us").add(
                    int((time.perf_counter() - started) * 1e6))
                if not keep:
                    break
        except asyncio.CancelledError:
            pass   # server shutdown cancelled this connection task
        except (ConnectionError, asyncio.IncompleteReadError):
            pass   # peer went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _reply(self, writer: asyncio.StreamWriter, status: int,
                     message: Union[api.Message, str], keep: bool) -> None:
        """Send ``message``, or a reply already encoded as JSON text."""
        self.registry.inc("obs.serve.requests")
        if status >= 400:
            self.registry.inc("obs.serve.errors")
        text = message if isinstance(message, str) else message.to_json()
        payload = text.encode()
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n")
        writer.write(head.encode() + payload)
        await writer.drain()

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
        try:
            line = await reader.readline()
        except ValueError:
            # The line outgrew the StreamReader's own buffer limit
            # (64 KiB) before its newline arrived.
            line = None
        if line is None or len(line) > MAX_LINE_BYTES:
            raise _HttpError(400, f"{what} over {MAX_LINE_BYTES} bytes")
        return line

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, Dict[str, str],
                                                bytes]]:
        """One parsed request, or ``None`` at a clean EOF between
        keep-alive requests; a peer past a guard rail raises
        :class:`_HttpError`."""
        line = await self._read_line(reader, "request line")
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            raw = await self._read_line(reader, "header line")
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, f"more than {MAX_HEADER_LINES} "
                                  f"header lines")
        body = b""
        length = headers.get("content-length")
        if length is not None:
            if not length.isdecimal():      # 1*DIGIT: no sign, no "_"
                raise _HttpError(400, f"bad Content-Length {length!r}")
            size = int(length)
            if size > MAX_BODY_BYTES:
                raise _HttpError(413, f"body of {size} bytes exceeds "
                                      f"{MAX_BODY_BYTES}")
            if size:
                body = await reader.readexactly(size)
        return method.upper(), target.split("?", 1)[0], headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _dispatch(self, method: str, path: str,
                  body: bytes) -> Tuple[int, Union[api.Message, str]]:
        try:
            return 200, self._route(method, path, body)
        except _HttpError as error:
            return error.status, api.ErrorReply(error=str(error))
        except ServeError as error:
            return 400, api.ErrorReply(error=str(error))
        except ReproError as error:
            # A well-formed request the library refused (cross-plane
            # diff, unknown suite, bad config label): a conflict, not a
            # parse failure.
            return 409, api.ErrorReply(error=str(error))
        except Exception as error:   # the service must outlive any bug
            return 500, api.ErrorReply(
                error=f"{type(error).__name__}: {error}")

    def _route(self, method: str, path: str,
               body: bytes) -> Union[api.Message, str]:
        route = {
            ("GET", "/v1/ping"): lambda: api.Pong(),
            ("GET", "/v1/stats"): self._handle_stats,
            ("GET", "/v1/archives"): self._handle_archives,
            ("GET", "/v1/jobs"): self._handle_jobs,
            ("POST", "/v1/query"): lambda: self._handle_query(
                self._decode(body, api.PointQuery)),
            ("POST", "/v1/metrics"): lambda: self._handle_metrics(
                self._decode(body, api.MetricQuery)),
            ("POST", "/v1/diff"): lambda: self._handle_diff(
                self._decode(body, api.DiffQuery)),
            ("POST", "/v1/submit"): lambda: self._handle_submit(
                self._decode(body, api.SweepSubmit)),
        }.get((method, path))
        if route is not None:
            return route()
        if path.startswith("/v1/archives/"):
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed here")
            return self._handle_archive(path[len("/v1/archives/"):])
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed here")
            return self._handle_job(path[len("/v1/jobs/"):])
        known_paths = {"/v1/ping", "/v1/stats", "/v1/archives",
                       "/v1/jobs", "/v1/query", "/v1/metrics",
                       "/v1/diff", "/v1/submit"}
        if path in known_paths:
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {path}")

    @staticmethod
    def _decode(body: bytes, expect: type) -> api.Message:
        message = api.decode(body, expect=expect)
        if isinstance(message, api.ErrorReply):
            raise ServeError(
                f"serve: {expect.KIND} expected, got an error message")
        return message

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_query(self, query: api.PointQuery
                      ) -> Union[api.PointReply, str]:
        """A miss as a reply, a hit as its JSON text: the stored value
        text, checked by the load, spliced in without a parse."""
        key = entry_key(query.key_payload())
        text = self.store.load_text(key)
        if text is None:
            self.registry.inc("obs.serve.misses")
            return api.PointReply(found=False, key=key)
        self.registry.inc("obs.serve.hits")
        return api.point_hit_json(key, text)

    def _archives(self):
        """The readable archives under the runs root; one that does not
        load (a damaged file, another schema) is skipped, not fatal."""
        for path in RunArchive.scan(self.runs_root):
            try:
                yield RunArchive.load(path)
            except ReproError:
                continue

    def _handle_archives(self) -> api.ArchiveList:
        archives = []
        for archive in self._archives():
            manifest = archive.manifest
            archives.append({
                "run_id": archive.run_id,
                "dir": os.path.basename(archive.path),
                "config": manifest.get("config"),
                "config_hash": manifest.get("config_hash"),
                "seed": manifest.get("seed"),
                "instrumentation_hash":
                    manifest.get("instrumentation_hash"),
                "metrics": len(archive.metrics)})
        return api.ArchiveList(archives=archives)

    def _resolve_run(self, run_id: str) -> str:
        name = str(run_id)
        if not name or "/" in name or os.sep in name or ".." in name:
            raise ServeError(f"serve: bad run id {run_id!r}")
        path = os.path.join(self.runs_root, name)
        if not RunArchive.is_archive(path):
            raise _HttpError(404, f"no archive {run_id!r} under "
                                  f"{self.runs_root}")
        return path

    def _handle_archive(self, run_id: str) -> api.ArchiveReply:
        archive = RunArchive.load(self._resolve_run(run_id))
        return api.ArchiveReply(run_id=archive.run_id,
                                manifest=archive.manifest,
                                metrics=archive.metrics)

    def _handle_metrics(self, query: api.MetricQuery) -> api.MetricMatches:
        matches = []
        for archive in self._archives():
            for metric in sorted(archive.metrics):
                if fnmatch.fnmatchcase(metric, query.glob):
                    matches.append({"run_id": archive.run_id,
                                    "metric": metric,
                                    "value": archive.metrics[metric]})
        return api.MetricMatches(glob=query.glob, matches=matches)

    def _handle_diff(self, query: api.DiffQuery) -> api.DiffReply:
        from ..obs import diff as diff_mod
        deltas = diff_mod.compare_runs(
            self._resolve_run(query.run_a), self._resolve_run(query.run_b),
            query.rule_objects(),
            ignore_instrumentation=query.ignore_instrumentation)
        bad = diff_mod.violations(deltas)
        shown = bad if query.only_violations else deltas
        return api.DiffReply(run_a=query.run_a, run_b=query.run_b,
                             ok=not bad, violations=len(bad),
                             deltas=[delta.as_dict() for delta in shown])

    def _handle_submit(self, submit: api.SweepSubmit) -> api.SubmitReply:
        from ..farm.suites import build_suite_plan
        plan = build_suite_plan(submit.entry(),
                                store_root=self.store.root)
        record = self.jobs.submit(plan)
        self.registry.inc("obs.serve.hits", record.warm)
        self.registry.inc("obs.serve.misses", record.cold)
        if record.cold:
            self.registry.inc("obs.serve.jobs")
        return api.SubmitReply(job_id=record.job_id, state=record.state,
                               points=record.points, warm=record.warm,
                               cold=record.cold)

    def _handle_jobs(self) -> api.JobList:
        return api.JobList(jobs=[record.describe()
                                 for record in self.jobs.list()])

    def _handle_job(self, job_id: str) -> api.JobReply:
        try:
            record = self.jobs.get(job_id)
        except ServeError as error:
            raise _HttpError(404, str(error))
        return api.JobReply(job=record.describe(),
                            farm=self.jobs.farm_manifest(job_id))

    def _handle_stats(self) -> api.StatsReply:
        metrics = self.registry.to_dict()
        metrics.update(self.store.export_metrics())
        return api.StatsReply(metrics=json.loads(api.canonical_json(
            metrics)))


class ServiceThread:
    """Run a :class:`ResultService` on a background thread.

    The canonical harness for tests and load generators: ``start()``
    returns once the socket is bound (resolving ``--port 0``), and
    ``stop()`` shuts the loop and the job worker down cleanly.  Usable
    as a context manager.
    """

    def __init__(self, service: ResultService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> str:
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise ServeError("serve: service thread failed to start")
        if self._error is not None:
            raise ServeError(f"serve: service failed to bind "
                             f"({self._error})")
        return self.service.url

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:   # surfaced by start()/stop()
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._ready.set()
        async with self.service._server:
            await self._stop.wait()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop is not None \
                and self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=timeout)
        self.service.close()

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
