"""Both wire formats of the service, pinned byte for byte.

One fixed scenario drives a fresh service (fresh store, one local
engine, ``job_ttl=3600``) through its TCP frontend and its HTTP
gateway, and every TCP reply line and HTTP response (status, the
headers below, body) is compared against ``wire_golden.txt``.  The
only masked values are the GC countdowns, which tick with the clock:
``expires_in`` in bodies and the ``X-Expires-In`` header read "set" or
"unset".

To re-capture after an intended wire change::

    PYTHONPATH=src:. python tests/service/test_wire_golden.py \\
        > tests/service/wire_golden.txt
"""

import http.client
import json
import os
import re
import socket
import tempfile
import time

from repro.engine import DesignPoint
from repro.io.serialize import design_point_to_dict

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "wire_golden.txt")

POINTS = [design_point_to_dict(point) for point in (
    DesignPoint(app="straight", area=3000.0, quanta=80),
    DesignPoint(app="straight", area=5000.0, quanta=80),
    DesignPoint(app="nope", quanta=80))]

#: Response headers the capture keeps (Date and Server vary or say
#: nothing about the API).
HEADERS = ("ETag", "Cache-Control", "Allow", "Content-Type", "Connection",
           "Retry-After")

_EXPIRES = re.compile(rb'"expires_in":(null|[-+0-9.eE]+)')


def mask(body):
    """``body`` with every ``expires_in`` value replaced by set/unset."""
    return _EXPIRES.sub(
        lambda match: b'"expires_in":"%s"'
        % (b"unset" if match.group(1) == b"null" else b"set"), body)


class _Lines:
    """One TCP connection: send raw lines, read raw reply lines."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=60)
        self.stream = self.sock.makefile("rwb")

    def ask(self, raw, replies=1):
        self.stream.write(raw + b"\n")
        self.stream.flush()
        return [self.stream.readline() for _ in range(replies)]

    def stream_results(self, job):
        """A ``results`` stream: header, entries, closing line."""
        self.stream.write(json.dumps({"op": "results", "job": job})
                          .encode("utf-8") + b"\n")
        self.stream.flush()
        lines = [self.stream.readline()]
        while True:
            line = self.stream.readline()
            lines.append(line)
            message = json.loads(line)
            if message.get("done") or not message["ok"]:
                return lines

    def close(self):
        self.stream.close()
        self.sock.close()


def _http(port, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=60)
    try:
        connection.request(method, path, body=body,
                           headers=headers or {})
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


def capture(harness):
    """Drive the fixed scenario; returns the capture's lines."""
    lines = []

    def tcp(label, replies):
        for reply in replies:
            lines.append("tcp %s %s" % (label, mask(reply.rstrip(b"\n"))
                                        .decode("utf-8")))

    link = _Lines(harness.port)
    try:
        submit = json.dumps({"op": "submit", "points": POINTS})
        (reply,) = link.ask(submit.encode("utf-8"))
        tcp("submit", [reply])
        job = json.loads(reply)["job"]
        tcp("results", link.stream_results(job))
        for op in ("status", "cancel"):
            tcp(op, link.ask(json.dumps({"op": op, "job": job})
                             .encode("utf-8")))
        tcp("jobs", link.ask(b'{"op": "jobs"}'))
        tcp("ping", link.ask(b'{"op": "ping"}'))
        for label, raw in (
                ("unknown-job", b'{"op": "status", "job": "job-999"}'),
                ("missing-job", b'{"op": "status"}'),
                ("malformed", b"not json"),
                ("unknown-op", b'{"op": "launch"}'),
                ("empty-points", b'{"op": "submit", "points": []}'),
                ("bad-objective", json.dumps(
                    {"op": "submit", "points": POINTS[:1],
                     "objective": "fastest"}).encode("utf-8"))):
            tcp(label, link.ask(raw))
    finally:
        link.close()

    port = harness.http_gateway().address[1]

    def web(method, path, body=None, headers=None):
        status, response_headers, payload = _http(
            port, method, path, body=body, headers=headers)
        kept = {name: response_headers[name] for name in HEADERS
                if response_headers.get(name) is not None}
        kept["X-Expires-In"] = ("unset" if response_headers.get(
            "X-Expires-In") is None else "set")
        lines.append("http %s %s %d %s %s" % (
            method, path, status, json.dumps(kept, sort_keys=True),
            mask(payload).decode("utf-8")))
        return response_headers, payload

    _, payload = web("POST", "/v1/jobs",
                     body=json.dumps({"points": POINTS}))
    job = json.loads(payload)["job"]
    queued = harness.service.queue.jobs[job]
    deadline = time.monotonic() + 60
    while not queued.finished and time.monotonic() < deadline:
        time.sleep(0.02)
    for after in (0, 2):
        web("GET", "/v1/jobs/%s/results?after=%d&wait=1" % (job, after))
    headers, _ = web("GET", "/v1/jobs/%s" % job)
    web("GET", "/v1/jobs/%s" % job,
        headers={"If-None-Match": headers["ETag"]})
    web("GET", "/v1/jobs/%s/results" % job)
    web("DELETE", "/v1/jobs/%s" % job)
    web("GET", "/v1/jobs")
    web("GET", "/v1/jobs/job-999")
    web("GET", "/v2/ping")
    web("DELETE", "/v1/ping")
    web("POST", "/v1/jobs", body="[]")
    web("POST", "/v1/jobs", body='{"points": []}')
    web("GET", "/v1/jobs/%s/results?after=-1" % job)
    web("GET", "/v1/ping")
    return lines


def test_both_wire_formats_match_the_golden_capture(make_harness):
    harness = make_harness(job_ttl=3600)
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert capture(harness) == expected


if __name__ == "__main__":
    from tests.service.conftest import ServiceHarness

    with tempfile.TemporaryDirectory() as scratch:
        live = ServiceHarness(cache_dir=os.path.join(scratch, "store"),
                              job_ttl=3600)
        try:
            print("\n".join(capture(live)))
        finally:
            live.stop()
