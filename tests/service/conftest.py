"""Shared live-service harness for the service test modules.

One real :class:`ExplorationService` (real sockets on an ephemeral
loopback port, real session, tmp-path store) on a background thread,
driven by real :class:`ServiceClient` instances — the same path the
CLI takes.  ``make_harness`` accepts every service knob (token,
scheduler, queue_cap, job_ttl, max_jobs, local_engines, a service
subclass), so the auth / backpressure / fairness / GC / fabric suites
all drive the genuine article.  Points evaluate in process on the
service's local engines, or on engines joined to it.
"""

import asyncio
import threading

import pytest

from repro.engine import Session
from repro.service.client import ServiceClient
from repro.service.server import ExplorationService


class ServiceHarness:
    """One live service on a background thread."""

    def __init__(self, cache_dir, flush_interval=0.2,
                 service_class=ExplorationService, token=None,
                 **service_kwargs):
        self.session = Session(cache_dir=cache_dir)
        self.service = None
        self.port = None
        self.token = token
        self._gateway = None
        self._ready = threading.Event()
        self._flush_interval = flush_interval
        self._service_class = service_class
        self._service_kwargs = service_kwargs
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(30), "service never came up"

    def _run(self):
        async def main():
            service = self._service_class(
                self.session, flush_interval=self._flush_interval,
                token=self.token, **self._service_kwargs)
            self.service = service
            await service.start(port=0)
            self.port = service.address[1]
            self._ready.set()
            await service.run_until_shutdown()

        asyncio.run(main())

    def client(self, timeout=60.0, **kwargs):
        kwargs.setdefault("token", self.token)
        return ServiceClient(port=self.port, timeout=timeout, **kwargs)

    def http_gateway(self, api_keys=None):
        """Mount (once) and return the HTTP gateway over this service."""
        if self._gateway is None:
            from repro.service.http import HttpGateway

            self._gateway = HttpGateway(self.service, api_keys=api_keys)
            self._gateway.start(port=0)
        return self._gateway

    def http_client(self, api_key=None, **kwargs):
        from repro.service.http_client import HttpServiceClient

        gateway = self.http_gateway()
        kwargs.setdefault("retry_budget", 10.0)
        return HttpServiceClient(
            url="http://127.0.0.1:%d" % gateway.address[1],
            api_key=api_key, **kwargs)

    def stop(self):
        if self._gateway is not None:
            self._gateway.stop()
            self._gateway = None
        if self._thread.is_alive():
            try:
                self.client(timeout=5.0).shutdown()
            except Exception:
                pass
            self._thread.join(30)


@pytest.fixture
def make_harness(tmp_path):
    created = []

    def factory(**kwargs):
        kwargs.setdefault("cache_dir",
                          str(tmp_path / ("store-%d" % len(created))))
        harness = ServiceHarness(**kwargs)
        created.append(harness)
        return harness

    yield factory
    for harness in created:
        harness.stop()


@pytest.fixture
def harness(make_harness):
    return make_harness()
