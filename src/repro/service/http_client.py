"""The REST framing of the job API: the HTTP gateway's client.

:class:`HttpServiceClient` is :class:`~repro.service.client.JobClient`
over the endpoints of :mod:`~repro.service.http`.  It supplies only
the framing — ``_call`` maps each job-API request to its route and
``_pages`` walks a job's results pages — so every job operation, the
retry/backoff contract (queue-full and quota 429s carry
``Retry-After``, retried and counted like the TCP client's) and the
results decoder are the TCP client's own.

What HTTP adds over the TCP stream is conditional polling: the client
remembers the strong ETag of every status / results document it has
seen and sends ``If-None-Match`` on the next fetch, so an unchanged
document costs a 304 with no body.  :attr:`conditional_hits` /
:attr:`conditional_misses` count how often polling paid the small
price — a patient poll loop against a slow job should be almost all
hits.  ``results`` streams through long-poll pages (``?after=N&wait=
S``) instead of holding one connection per client open, which is the
point of the gateway: wide fan-in with no per-client server state.

One TCP connection per request (``Connection: close``), like the line
client — there is no session state to multiplex, and it keeps the
threaded gateway's handler threads from idling on keep-alives.
"""

import http.client
import json
import urllib.parse

from repro.errors import ReproError
# Unused here, but perfbench's tracer wraps this module's name.
from repro.io.serialize import point_result_from_dict  # noqa: F401
from repro.service.client import JobClient, ServiceError

DEFAULT_URL = "http://127.0.0.1:8421"

#: Each job-API op's method and path; ``%s`` takes the request's job.
ROUTES = {
    "ping": ("GET", "/v1/ping"),
    "submit": ("POST", "/v1/jobs"),
    "jobs": ("GET", "/v1/jobs"),
    "status": ("GET", "/v1/jobs/%s"),
    "cancel": ("DELETE", "/v1/jobs/%s"),
}


class HttpServiceClient(JobClient):
    """Client for one HTTP gateway.

    Attributes:
        url: The gateway base URL (``http://host:port``; an optional
            path prefix is honoured).
        api_key: Presented as ``Authorization: Bearer`` on every
            request; ``None`` for an open (key-less) gateway.  The
            scheduling identity (the TCP client's ``client_id``) is
            the *key's* client label, assigned server-side.
        timeout: Per-request socket timeout in seconds.
        poll_wait: Long-poll budget of one ``results`` page; the
            stream loops, so this only tunes server round-trips.
        conditional_hits / conditional_misses: How many conditional
            document fetches came back 304 (cached copy still good)
            versus paying a full body.

    The retry attributes are :class:`~repro.service.client.JobClient`'s;
    429 rejections (queue cap or per-key quota) are retried and counted
    like the TCP client's queue-full rejections.
    """

    def __init__(self, url=DEFAULT_URL, api_key=None, timeout=120.0,
                 poll_wait=10.0, retry_budget=60.0, retry_cap=2.0,
                 retry_jitter=0.5, retry_seed=None):
        split = urllib.parse.urlsplit(url if "//" in url
                                      else "http://" + url)
        if split.scheme not in ("", "http"):
            raise ReproError("HttpServiceClient only speaks plain "
                             "http, got %r" % url)
        if not split.hostname:
            raise ReproError("gateway URL %r has no host" % url)
        super().__init__(timeout, None, retry_budget, retry_cap,
                         retry_jitter, retry_seed)
        self.url = url
        self.host = split.hostname
        self.port = split.port if split.port else 80
        self._prefix = split.path.rstrip("/")
        self.api_key = api_key
        self.poll_wait = float(poll_wait)
        self._etags = {}           # path -> (etag, body bytes)
        self.conditional_hits = 0
        self.conditional_misses = 0

    # Own attributes, not inherited ones: perfbench traces each
    # framing's submit and collect as a layer of its own.
    submit = JobClient.submit
    collect = JobClient.collect

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _round_trip(self, method, path, headers, body=None):
        """One request on its own connection; ``(response, payload)``.

        ``headers`` add to (or override) the defaults: JSON ``Accept``,
        ``Connection: close`` and the API key.
        """
        sent = {"Connection": "close", "Accept": "application/json"}
        if self.api_key is not None:
            sent["Authorization"] = "Bearer %s" % self.api_key
        sent.update(headers)
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            connection.request(method, self._prefix + path, body=body,
                               headers=sent)
            response = connection.getresponse()
            return response, response.read()
        except http.client.HTTPException as exc:
            raise ServiceError("unreadable gateway response (%s: %s)"
                               % (type(exc).__name__, exc)) from exc
        finally:
            connection.close()

    def _request(self, method, path, document=None, conditional=False):
        """One round trip; returns the parsed JSON document.

        With ``conditional=True`` the path's remembered ETag rides as
        ``If-None-Match`` and a 304 answers from the local copy.  The
        copy is the body's bytes, parsed afresh for every answer, so a
        caller's edit to one answer never reaches the next.
        Rejections raise :class:`ServiceError` carrying the server's
        structured error document (``retry_after`` included on a 429),
        exactly like the TCP client's typed errors.
        """
        headers = {}
        body = None
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        cached = self._etags.get(path) if conditional else None
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        response, payload = self._round_trip(method, path, headers, body)
        if response.status == 304:
            self.conditional_hits += 1
            payload = cached[1]
        parsed = self._parse(response, payload)
        if not conditional:
            return parsed
        if response.status != 304:
            self.conditional_misses += 1
            etag = response.headers.get("ETag")
            if etag:
                self._etags[path] = (etag, payload)
        return self._refresh_expiry(response, parsed)

    @staticmethod
    def _refresh_expiry(response, document):
        """Fold the 304-refreshable header into a conditional answer.

        ``expires_in`` is deliberately not part of an ETag'd body (it
        is a GC countdown, not content); the gateway sends it as
        ``X-Expires-In`` on every such response *including* 304s, so
        the status documents this client returns stay as fresh as the
        TCP client's.
        """
        expires = response.headers.get("X-Expires-In")
        if "status" in document or "state" in document:
            target = document if "state" in document \
                else document["status"]
            if isinstance(target, dict):
                target["expires_in"] = (None if expires is None
                                        else float(expires))
        return document

    def _parse(self, response, payload):
        try:
            parsed = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError("unreadable gateway response: %r"
                               % payload[:80]) from None
        if not isinstance(parsed, dict):
            raise ServiceError("gateway response must be a JSON "
                               "object")
        if response.status >= 400 or not parsed.get("ok", True):
            if response.status == 429 \
                    and "retry_after" not in parsed:
                # Belt and braces: the header is authoritative when
                # the body (some intermediary's, say) lacks the hint.
                retry_after = response.headers.get("Retry-After")
                try:
                    parsed["retry_after"] = float(retry_after)
                except (TypeError, ValueError):
                    pass
            raise ServiceError(
                parsed.get("error",
                           "gateway rejected the request (HTTP %d)"
                           % response.status), response=parsed)
        return parsed

    # ------------------------------------------------------------------
    # The framing
    # ------------------------------------------------------------------
    def _call(self, request):
        body = dict(request)
        method, path = ROUTES[body.pop("op")]
        if "job" in body:
            path %= body.pop("job")
        if request["op"] == "status":
            # The gateway's status is the bare, ETag'd document: fetch
            # it conditionally and answer in the line protocol's shape.
            return {"status": self._request(method, path,
                                            conditional=True)}
        return self._request(method, path, document=body or None)

    def _pages(self, job_id):
        """Long-poll pages: completions past ``after``, then on."""
        after = 0
        while True:
            page = self._request(
                "GET", "/v1/jobs/%s/results?after=%d&wait=%s"
                % (job_id, after, self.poll_wait))
            yield page
            after = page.get("next", after)

    def results_document(self, job_id, library=None):
        """The full results document, conditionally fetched.

        The polling counterpart of ``collect``: re-fetching an
        unchanged (e.g. terminal) job costs a 304.  Returns the raw
        document; the per-point results inside are wire dicts.
        """
        return self._request("GET", "/v1/jobs/%s/results" % job_id,
                             conditional=True)

    # ------------------------------------------------------------------
    # HTML documents (reports + dashboard)
    # ------------------------------------------------------------------
    def _request_html(self, path):
        """One round trip for an HTML document; returns the text.

        The payload is not JSON, but errors still are: any non-200
        answer is parsed as the gateway's structured error document
        and raised as :class:`ServiceError`, so auth and 404s behave
        identically to the JSON endpoints.
        """
        response, payload = self._round_trip("GET", path,
                                             {"Accept": "text/html"})
        if response.status != 200:
            self._parse(response, payload)  # raises ServiceError
            raise ServiceError("gateway rejected the request (HTTP %d)"
                               % response.status)
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError:
            raise ServiceError("gateway sent an undecodable HTML "
                               "document") from None

    def report(self, job_id):
        """The job's self-contained HTML report, as text."""
        return self._request_html("/v1/jobs/%s/report" % job_id)

    def dashboard(self):
        """The live service dashboard page, as text."""
        return self._request_html("/v1/dashboard")
