"""WCET analysis as a service: ``repro serve`` and its client.

The paper presents aiT/StackAnalyzer as tools developers iterate
against — edit a function, re-check the bound.  This package is that
loop as a long-running HTTP daemon: one shared content-addressed
artifact cache with function-grained incremental keys, so re-analyzing
an edited program recomputes only the phases whose inputs changed.

The HTTP server (:mod:`repro.serve.http`) and client
(:mod:`repro.serve.client`) load on first use of one of their names, so
a process that only embeds the in-process :class:`AnalysisService`
never imports ``http.server``, ``urllib.request`` or ``ssl``.
"""

import importlib

from .journal import TERMINAL_STATUSES, JobJournal
from .service import (AnalysisRequest, AnalysisService, JobCancelled,
                      JobTimeout, ValidationError)

#: Name -> submodule of the exports that load on first use (PEP 562).
_LAZY = {
    "AnalysisRequestHandler": "http",
    "AnalysisServer": "http",
    "ServeClientError": "client",
    "analyze": "client",
    "cancel": "client",
    "poll": "client",
    "server_stats": "client",
    "submit": "client",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AnalysisRequest",
    "AnalysisRequestHandler",
    "AnalysisServer",
    "AnalysisService",
    "JobCancelled",
    "JobJournal",
    "JobTimeout",
    "ServeClientError",
    "TERMINAL_STATUSES",
    "ValidationError",
    "analyze",
    "cancel",
    "poll",
    "server_stats",
    "submit",
]
