"""Stdlib HTTP front-end for :class:`~repro.serve.service.AnalysisService`.

Endpoints::

    POST   /analyze     submit a request  -> 202 {"id": ..., "job": ...}
    GET    /jobs/<id>   poll a job        -> 200 record | 404
    DELETE /jobs/<id>   cancel a job      -> 200 record | 404
    GET    /stats       service counters  -> 200

A :class:`ThreadingHTTPServer` with daemon request threads fronts the
service: request handling is I/O-thin (JSON in, JSON out) and all real
work runs on the service's own bounded pool, so a slow analysis never
blocks polling clients.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from .service import AnalysisService, ValidationError

#: Cap on accepted request bodies (sources are small; a runaway body is
#: a client bug, not a workload).
MAX_BODY_BYTES = 4 * 1024 * 1024


class AnalysisRequestHandler(BaseHTTPRequestHandler):
    """JSON request handler; the owning server carries the service."""

    server: "AnalysisServer"
    protocol_version = "HTTP/1.1"

    # -- Plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass        # keep the server quiet; clients see the JSON

    def _respond(self, status: int, payload: dict,
                 body_read: bool = False) -> None:
        """Send one JSON reply.  A reply that leaves a declared request
        body unread also closes the connection: the body's bytes would
        otherwise be parsed as the next request."""
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if not body_read and (
                self.headers.get("Content-Length", "0").strip() != "0"
                or "Transfer-Encoding" in self.headers):
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str,
               body_read: bool = False) -> None:
        self._respond(status, {"error": message}, body_read)

    # -- Routes -------------------------------------------------------------

    def do_POST(self) -> None:
        if self.path.rstrip("/") != "/analyze":
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        if length <= 0:
            self._error(400, "request body required")
            return
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body exceeds {MAX_BODY_BYTES} "
                             f"bytes")
            return
        try:
            payload = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}",
                        body_read=True)
            return
        try:
            job_id = self.server.service.submit(payload)
        except ValidationError as exc:
            self._error(400, str(exc), body_read=True)
            return
        self._respond(202, {"id": job_id, "job": f"/jobs/{job_id}"},
                      body_read=True)

    def do_GET(self) -> None:
        path = self.path.rstrip("/")
        if path == "/stats":
            self._respond(200, self.server.service.stats())
            return
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            record = self.server.service.job(job_id)
            if record is None:
                self._error(404, f"no such job: {job_id!r}")
                return
            self._respond(200, record)
            return
        self._error(404, f"no such endpoint: GET {self.path}")

    def do_DELETE(self) -> None:
        path = self.path.rstrip("/")
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            record = self.server.service.cancel(job_id)
            if record is None:
                self._error(404, f"no such job: {job_id!r}")
                return
            self._respond(200, record)
            return
        self._error(404, f"no such endpoint: DELETE {self.path}")

    def do_PUT(self) -> None:
        self._error(405, "method not allowed")

    do_PATCH = do_PUT


class AnalysisServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns one :class:`AnalysisService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: AnalysisService):
        super().__init__(address, AnalysisRequestHandler)
        self.service = service

    def close(self) -> None:
        """Stop a ``serve_forever`` loop running in another thread, then
        release the socket and the service."""
        self.shutdown()
        self.server_close()
        self.service.close()
