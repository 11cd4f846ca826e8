"""Spans recorded from outside the program, at the layer boundaries.

A :class:`Tracer` replaces public functions at the module (or class)
attributes their callers look them up through, so nothing under
``src/`` changes.  Each wrapped call is a span; a layer's self time is
the span's duration minus the time its child spans cover.  Spans stay
in memory, aggregated per thread, and are merged when the pass ends.
"""

import functools
import importlib
import threading
import time

# Layer name -> the (module, attribute) lookups its callers go through.
# An attribute "Class.method" wraps the method on the class.
LAYERS = {
    "frontend.compile": [("repro.engine.session", "load_application")],
    "core.allocate": [("repro.engine.session", "allocate"),
                      ("repro.engine.session", "allocate_with_selection")],
    "core.iterate": [("repro.core.iteration", "design_iteration")],
    "core.exhaustive": [("repro.core.exhaustive",
                         "exhaustive_best_allocation")],
    "core.bounds": [("repro.core.bounds", "BoundEngine.speedup_bound")],
    "partition.evaluate": [
        ("repro.engine.session", "evaluate_allocation"),
        ("repro.core.iteration", "evaluate_allocation"),
        ("repro.core.exhaustive", "evaluate_allocation"),
        ("repro.partition.evaluate", "EvaluationScan.evaluate")],
    "partition.costs": [("repro.partition.evaluate", "bsb_costs")],
    "partition.pace": [("repro.partition.evaluate", "pace_partition")],
    "sched.list_schedule": [("repro.partition.model", "list_schedule"),
                            ("repro.sched.list_scheduler",
                             "list_schedule")],
    "engine.store.hydrate": [("repro.engine.store", "CacheStore.hydrate")],
    "engine.store.flush": [("repro.engine.store", "CacheStore.flush"),
                           ("repro.engine.store",
                            "CacheStore.maybe_flush")],
    "engine.store.register": [("repro.engine.store", "CacheStore.register"),
                              ("repro.engine.store",
                               "CacheStore.load_program")],
    "io.serialize.encode": [("repro.service.server", "point_result_to_dict"),
                            ("repro.service.http", "point_result_to_dict"),
                            ("repro.service.worker",
                             "point_result_to_dict")],
    # The coordinator imports the decoder lazily from io.serialize when
    # it absorbs a joined worker's results; the clients bind it at import.
    "io.serialize.decode": [("repro.service.client",
                             "point_result_from_dict"),
                            ("repro.service.http_client",
                             "point_result_from_dict"),
                            ("repro.io.serialize", "point_result_from_dict")],
    "service.protocol.encode": [("repro.service.protocol", "encode")],
    "service.protocol.decode": [("repro.service.protocol",
                                 "decode_request")],
    "service.delta.encode": [("repro.service.protocol",
                              "encode_store_delta")],
    "service.delta.decode": [("repro.service.protocol",
                              "decode_store_delta_sized")],
    "service.evaluate": [("repro.engine.session",
                          "Session.evaluate_point_safe")],
    "client.tcp.submit": [("repro.service.client", "ServiceClient.submit")],
    "client.tcp.collect": [("repro.service.client",
                            "ServiceClient.collect")],
    "client.http.submit": [("repro.service.http_client",
                            "HttpServiceClient.submit")],
    "client.http.collect": [("repro.service.http_client",
                             "HttpServiceClient.collect")],
}

#: The layer whose first span in a client job marks its first result.
FIRST_RESULT_LAYER = "io.serialize.decode"


class Tracer:
    """Per-layer calls, self time and total time, plus top-level spans."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._threads_lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "layers": {}, "top": [], "first": None,
                     "watch": False}
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def wrap(self, name, function):
        """``function`` recording one ``name`` span per call."""
        clock = time.perf_counter
        first = name == FIRST_RESULT_LAYER

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state["stack"]
            start = clock()
            if first and state["watch"] and state["first"] is None:
                state["first"] = start
            stack.append(0.0)
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                covered = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                else:
                    state["top"].append((start, end))
                entry = state["layers"].get(name)
                if entry is None:
                    entry = state["layers"][name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - covered
                entry[2] += duration

        return traced

    def install(self, layers=None):
        """Wrap every lookup of the named layers (default: all)."""
        for name in (LAYERS if layers is None else layers):
            for module_name, attribute in LAYERS[name]:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
                setattr(owner, leaf, self.wrap(name, original))

    # ------------------------------------------------------------------
    # First-result marks (client threads)
    # ------------------------------------------------------------------
    def watch_first(self):
        """Arm this thread: the next decode span marks a first result."""
        state = self._state()
        state["watch"] = True
        state["first"] = None

    def first_mark(self):
        """perf_counter of this thread's first decode since watch_first."""
        return self._state()["first"]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self, with_top=False):
        """Merged ``{"layers": {name: [calls, self_s, total_s]}}``.

        With ``with_top`` also the top-level span intervals, for the
        coverage computation of the process that owns the pass.
        """
        with self._threads_lock:
            states = list(self._threads)
        document = {"layers": merge_layers(
            {"layers": dict(state["layers"])} for state in states)}
        if with_top:
            document["top"] = sorted(span for state in states
                                     for span in state["top"])
        return document


def merge_layers(documents):
    """Sum the per-layer entries of several snapshots (threads or
    processes)."""
    layers = {}
    for document in documents:
        for name, (calls, self_s, total_s) in document["layers"].items():
            entry = layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
    return layers


def coverage(top, start, end):
    """Share of ``[start, end]`` inside the union of top-level spans."""
    covered = 0.0
    reach = start
    for span_start, span_end in top:
        span_start = max(span_start, reach)
        span_end = min(span_end, end)
        if span_end > span_start:
            covered += span_end - span_start
            reach = span_end
    return covered / (end - start) if end > start else 0.0
