"""HTTP gateway tests (ISSUE 9): conditional caching, auth, quotas.

Every test drives a real gateway (ephemeral port, daemon threads)
mounted over the live harness service — the same stack ``serve --http``
runs.  Raw ``http.client`` requests are used wherever the *wire*
matters (status codes, ETag / Cache-Control / Retry-After headers);
:class:`HttpServiceClient` is used wherever the client contract
matters (conditional polling, retry-to-success, byte-identity with
the TCP client).
"""

import http.client
import json
import time

import pytest

from repro.engine import DesignPoint
from repro.errors import ReproError
from repro.io.serialize import design_point_to_dict, point_result_to_dict
from repro.service.client import ServiceError
from repro.service.http import ApiKey, load_api_keys
from repro.service.server import ExplorationService

GRID = (DesignPoint(app="straight", area=3000.0, quanta=80),
        DesignPoint(app="straight", area=5000.0, quanta=80),
        DesignPoint(app="straight", area=7500.0, quanta=80))


class SlowService(ExplorationService):
    """Real evaluations with a visible per-point latency."""

    point_delay = 0.08

    def _evaluate_local(self, point):
        time.sleep(self.point_delay)
        return super()._evaluate_local(point)


def raw(gateway, method, path, headers=None, body=None):
    """One raw HTTP round trip: ``(status, headers, payload)``."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", gateway.address[1], timeout=30)
    try:
        connection.request(method, path, body=body,
                           headers=headers or {})
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


def submit_body(points=GRID, **extra):
    document = {"points": [design_point_to_dict(point)
                           for point in points]}
    document.update(extra)
    return json.dumps(document)


class TestByteIdentity:
    def test_http_collect_matches_tcp_collect_byte_for_byte(
            self, harness):
        tcp = harness.client()
        web = harness.http_client()
        job_tcp = tcp.submit(GRID)
        job_web = web.submit(GRID)
        lines_tcp = [json.dumps(point_result_to_dict(result),
                                sort_keys=True)
                     for result in tcp.collect(job_tcp)]
        lines_web = [json.dumps(point_result_to_dict(result),
                                sort_keys=True)
                     for result in web.collect(job_web)]
        assert lines_tcp == lines_web

    def test_tcp_and_http_ping_agree_on_shared_fields(self, harness):
        tcp = harness.client()
        web = harness.http_client()
        tcp.collect(tcp.submit(GRID))
        over_tcp = tcp.ping()
        over_http = web.ping()
        assert set(over_http) - set(over_tcp) == {
            "transport", "http_requests", "http_not_modified"}
        assert set(over_tcp) <= set(over_http)
        assert {"jobs", "engines", "program_compiles"} <= set(over_tcp)
        for field in over_tcp:
            assert over_http[field] == over_tcp[field], field

    def test_http_results_stream_is_completion_ordered_and_total(
            self, harness):
        web = harness.http_client(poll_wait=0.2)
        job = web.submit(GRID)
        seen = dict(web.results(job))
        assert sorted(seen) == [0, 1, 2]
        assert all(result.error is None for result in seen.values())
        assert web.last_status["state"] == "done"
        assert web.last_status["done"] == len(GRID)


class TestConditionalGet:
    def test_status_lifecycle_etag_304_and_immutability(
            self, make_harness):
        harness = make_harness(service_class=SlowService)
        gateway = harness.http_gateway()
        tcp = harness.client()
        job = tcp.submit(GRID)
        path = "/v1/jobs/%s" % job

        status, headers, body = raw(gateway, "GET", path)
        assert status == 200
        etag_running = headers["ETag"]
        assert etag_running.startswith('"')
        assert headers["Cache-Control"] == "no-cache"
        assert b"expires_in" not in body  # volatile field stays out

        tcp.collect(job)
        status, headers, body = raw(gateway, "GET", path)
        assert status == 200
        etag_done = headers["ETag"]
        assert etag_done != etag_running  # progress changed the bytes
        assert "immutable" in headers["Cache-Control"]
        assert json.loads(body.decode("utf-8"))["state"] == "done"

        # A fresh validator revalidates for free...
        status, headers, body = raw(
            gateway, "GET", path, headers={"If-None-Match": etag_done})
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag_done
        # ...a stale one pays a full 200 again.
        status, _, body = raw(
            gateway, "GET", path,
            headers={"If-None-Match": etag_running})
        assert status == 200
        assert body

    def test_results_document_304_and_counters(self, harness):
        gateway = harness.http_gateway()
        web = harness.http_client()
        job = web.submit(GRID)
        web.collect(job)
        first = web.results_document(job)
        again = web.results_document(job)
        assert again == first
        assert web.conditional_hits >= 1
        assert web.conditional_misses >= 1
        info = web.ping()
        assert info["transport"] == "http"
        assert info["http_not_modified"] >= 1
        assert info["http_requests"] > info["http_not_modified"]

    def test_client_folds_expires_header_back_into_status(
            self, make_harness):
        harness = make_harness(job_ttl=120.0)
        web = harness.http_client()
        job = web.submit(GRID[:1])
        web.collect(job)
        first = web.status(job)
        assert first["expires_in"] is not None
        again = web.status(job)  # a 304 — yet the countdown is fresh
        assert web.conditional_hits >= 1
        assert again["expires_in"] is not None


class TestAuth:
    def test_keyed_gateway_401s_missing_and_unknown_keys(
            self, harness):
        gateway = harness.http_gateway(api_keys={
            "k-alice": ApiKey("k-alice", client="alice")})
        status, headers, body = raw(gateway, "GET", "/v1/ping")
        assert status == 401
        assert headers["WWW-Authenticate"] == "Bearer"
        assert not json.loads(body.decode("utf-8"))["ok"]
        status, headers, _ = raw(
            gateway, "GET", "/v1/ping",
            headers={"Authorization": "Bearer nope"})
        assert status == 401
        status, _, _ = raw(
            gateway, "GET", "/v1/ping",
            headers={"Authorization": "Bearer k-alice"})
        assert status == 200
        status, _, _ = raw(gateway, "GET", "/v1/ping",
                           headers={"X-Api-Key": "k-alice"})
        assert status == 200

    def test_keyed_submit_uses_the_keys_identity(self, harness):
        harness.http_gateway(api_keys={
            "k-alice": ApiKey("k-alice", client="alice", weight=2)})
        web = harness.http_client(api_key="k-alice")
        job = web.submit(GRID[:1])
        web.collect(job)
        assert harness.service.queue.get(job).client == "alice"

    def test_client_error_type_on_rejection(self, harness):
        harness.http_gateway(api_keys={
            "k-alice": ApiKey("k-alice", client="alice")})
        web = harness.http_client(api_key="wrong")
        with pytest.raises(ServiceError, match="unknown API key"):
            web.ping()


class TestQuota:
    def test_batch_larger_than_quota_is_rejected_unretryably(
            self, harness):
        harness.http_gateway(api_keys={
            "k-small": ApiKey("k-small", client="small", quota=2)})
        web = harness.http_client(api_key="k-small")
        with pytest.raises(ServiceError, match="split the batch"):
            web.submit(GRID)  # 3 points can never fit a 2-point quota
        assert web.last_submit_rejections == 0  # not backpressure

    def test_quota_breach_is_429_with_retry_after(self, make_harness):
        harness = make_harness(service_class=SlowService)
        gateway = harness.http_gateway(api_keys={
            "k-alice": ApiKey("k-alice", client="alice", quota=3)})
        web = harness.http_client(api_key="k-alice")
        web.submit(GRID)  # fills the quota while the points evaluate
        status, headers, body = raw(
            gateway, "POST", "/v1/jobs",
            headers={"Authorization": "Bearer k-alice",
                     "Content-Type": "application/json"},
            body=submit_body(GRID[:1]))
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        document = json.loads(body.decode("utf-8"))
        assert document["retry_after"] > 0
        assert "quota" in document["error"]

    def test_client_retries_quota_breach_to_success(self,
                                                    make_harness):
        harness = make_harness(service_class=SlowService)
        harness.http_gateway(api_keys={
            "k-alice": ApiKey("k-alice", client="alice", quota=3)})
        web = harness.http_client(api_key="k-alice",
                                  retry_budget=30.0, retry_seed=7)
        first = web.submit(GRID)
        second = web.submit(GRID[:1])  # over quota until first drains
        assert web.last_submit_rejections >= 1
        results = web.collect(second)
        assert len(results) == 1 and results[0].error is None
        web.collect(first)


class TestRoutesAndErrors:
    def test_unknown_job_404_and_unknown_path_404(self, harness):
        gateway = harness.http_gateway()
        assert raw(gateway, "GET", "/v1/jobs/job-999")[0] == 404
        assert raw(gateway, "GET", "/v2/ping")[0] == 404
        assert raw(gateway, "GET", "/v1/nope")[0] == 404

    def test_expired_job_is_410_not_404(self, make_harness):
        harness = make_harness(job_ttl=0.05)
        web = harness.http_client()
        gateway = harness.http_gateway()
        job = web.submit(GRID[:1])
        web.collect(job)
        time.sleep(0.15)
        status, _, body = raw(gateway, "GET", "/v1/jobs/%s" % job)
        assert status == 410
        assert "expired" in json.loads(body.decode("utf-8"))["error"]

    def test_method_mismatches_are_405_with_allow(self, harness):
        gateway = harness.http_gateway()
        web = harness.http_client()
        job = web.submit(GRID[:1])
        status, headers, _ = raw(gateway, "DELETE", "/v1/ping")
        assert (status, headers["Allow"]) == (405, "GET")
        status, headers, _ = raw(gateway, "DELETE", "/v1/jobs")
        assert (status, headers["Allow"]) == (405, "GET, POST")
        status, headers, _ = raw(gateway, "POST",
                                 "/v1/jobs/%s" % job, body="{}",
                                 headers={"Content-Length": "2"})
        assert (status, headers["Allow"]) == (405, "GET, DELETE")

    def test_body_plumbing_411_413_400(self, harness):
        gateway = harness.http_gateway()
        from repro.service import protocol
        status, _, _ = raw(gateway, "POST", "/v1/jobs",
                           headers={"Content-Length": "oops"})
        assert status == 411
        status, _, _ = raw(
            gateway, "POST", "/v1/jobs",
            headers={"Content-Length":
                     str(protocol.MAX_LINE_BYTES + 1)})
        assert status == 413
        status, _, _ = raw(gateway, "POST", "/v1/jobs",
                           body="not json",
                           headers={"Content-Length": "8"})
        assert status == 400
        status, _, _ = raw(gateway, "POST", "/v1/jobs", body="[]",
                           headers={"Content-Length": "2"})
        assert status == 400

    def test_jobs_listing_and_cancel(self, make_harness):
        harness = make_harness(service_class=SlowService)
        web = harness.http_client()
        job = web.submit(GRID)
        assert any(entry["job"] == job for entry in web.jobs())
        final = web.cancel(job)
        assert final["state"] in ("cancelled", "done")


class TestApiKeyFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "keys.json"
        path.write_text(json.dumps({
            "k-a": "alice",
            "k-b": {"client": "bob", "weight": 3, "quota": 8}}))
        keys = load_api_keys(str(path))
        assert keys["k-a"].client == "alice"
        assert keys["k-a"].weight == 1 and keys["k-a"].quota is None
        assert (keys["k-b"].client, keys["k-b"].weight,
                keys["k-b"].quota) == ("bob", 3, 8)

    @pytest.mark.parametrize("payload, message", [
        ("[]", "non-empty JSON object"),
        ("{}", "non-empty JSON object"),
        ("not json", "not valid JSON"),
        (json.dumps({"k": 7}), "client label or an object"),
        (json.dumps({"k": {"client": "c", "color": "red"}}),
         "unknown field"),
        (json.dumps({"k": {"client": "c", "weight": 0}}),
         "weight must be"),
        (json.dumps({"k": {"client": "c", "quota": 0}}),
         "quota must be"),
        (json.dumps({"k": {}}), "client label"),
    ])
    def test_malformed_files_are_loud(self, tmp_path, payload,
                                      message):
        path = tmp_path / "keys.json"
        path.write_text(payload)
        with pytest.raises(ReproError, match=message):
            load_api_keys(str(path))

    def test_missing_file_is_loud(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_api_keys(str(tmp_path / "absent.json"))
