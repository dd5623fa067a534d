"""WCET analysis as a service: ``repro serve`` and its client.

The paper presents aiT/StackAnalyzer as tools developers iterate
against — edit a function, re-check the bound.  This package is that
loop as a long-running HTTP daemon: one shared content-addressed
artifact cache with function-grained incremental keys, so re-analyzing
an edited program recomputes only the phases whose inputs changed.
"""

from .client import (ServeClientError, analyze, cancel, poll,
                     server_stats, submit)
from .http import AnalysisRequestHandler, AnalysisServer
from .journal import TERMINAL_STATUSES, JobJournal
from .service import (AnalysisRequest, AnalysisService, JobCancelled,
                      JobTimeout, ValidationError)

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
