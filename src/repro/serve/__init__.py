"""The serving plane: an async result service over store + farm.

One schema (:mod:`repro.serve.api`) is spoken by the HTTP server
(:class:`ResultService`), the blocking client (:class:`ServeClient`),
and the ``repro serve`` / ``repro query`` CLI.  Warm sweep points are
answered straight from the :class:`~repro.store.ResultStore`; cold
submissions run as :mod:`repro.farm` fleets in a background worker and
become warm hits for every later client.
"""

from .._lazy import lazy_exports

__all__ = [
    "SERVE_API_VERSION",
    "ArchiveList",
    "ArchiveReply",
    "DEFAULT_URL",
    "DiffQuery",
    "DiffReply",
    "ErrorReply",
    "JobList",
    "JobManager",
    "JobRecord",
    "JobReply",
    "MetricMatches",
    "MetricQuery",
    "PointQuery",
    "PointReply",
    "Pong",
    "ResultService",
    "ServeClient",
    "ServiceThread",
    "StatsReply",
    "SubmitReply",
    "SweepSubmit",
    "URL_ENV",
    "client_backend",
    "config_hash_of",
    "decode",
    "derived_seed",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".api": ("SERVE_API_VERSION", "ArchiveList", "ArchiveReply",
             "DiffQuery", "DiffReply", "ErrorReply", "JobList", "JobReply",
             "MetricMatches", "MetricQuery", "PointQuery", "PointReply",
             "Pong", "StatsReply", "SubmitReply", "SweepSubmit",
             "config_hash_of", "decode", "derived_seed"),
    ".client": ("DEFAULT_URL", "URL_ENV", "ServeClient", "client_backend"),
    ".jobs": ("JobManager", "JobRecord"),
    ".service": ("ResultService", "ServiceThread"),
})
