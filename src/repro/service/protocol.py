"""Wire protocol of the exploration service: JSON lines over a socket.

One request per line, one (or, for ``results``, a stream of) response
line(s) back.  Every message is a JSON object; requests carry an
``op`` discriminator, responses carry ``ok``.  The format is designed
to be driven by hand (``nc localhost 7421``) as much as by the
:mod:`~repro.service.client`:

    {"op": "auth", "token": "..."}
    {"op": "ping"}
    {"op": "submit", "points": [{"kind": "design-point", ...}, ...]}
    {"op": "status", "job": "job-1"}
    {"op": "results", "job": "job-1"}
    {"op": "cancel", "job": "job-1"}
    {"op": "jobs"}
    {"op": "shutdown"}

Design points and point results travel in their
:mod:`repro.io.serialize` layouts, so a submission file and a service
submission are the same document.  Malformed requests are *rejected*
(``{"ok": false, "error": ...}``) without disturbing the connection or
any running job; only framing violations (a line past
:data:`MAX_LINE_BYTES`) drop the connection.

Auth: a server started with a shared token requires each connection's
*first* request to be ``{"op": "auth", "token": ...}`` (compared in
constant time); any other request on an unauthenticated connection is
rejected with ``auth_required`` set and the connection is dropped
before any job state exists.  Without a token (the loopback default)
the handshake is a no-op and a token-carrying client still works.

Backpressure: when the server's pending-point cap is reached, a submit
is rejected with ``retry_after`` (seconds) in the error document; the
:class:`~repro.service.client.ServiceClient` retries such rejections
with capped exponential backoff.  Submissions may carry an optional
``client`` label and ``weight`` (see :func:`submission_meta`) that the
``fair`` scheduler uses for per-client weighted round-robin.

The fabric ops (ISSUE 7) ride the same line-JSON conversation, on the
worker's one persistent connection:

    {"op": "join", "engine": "builder-7", "slots": 2}
    {"op": "lease", "engine": "remote-1", "max": 2, "wait": 2.0}
    {"op": "delta", "engine": "remote-1", "results": [...], "store": "..."}
    {"op": "engine-heartbeat", "engine": "remote-1"}

``join`` registers a remote engine (auth first, like every op);
``lease`` long-polls for placed units; ``delta`` delivers evaluated
results plus an optional cache-store delta.  Store deltas are the
content-keyed entry mappings of
:meth:`~repro.engine.store.CacheStore.export_delta` — the exact
structures the store pickles into its rows — so the wire form is a
zlib-compressed pickle in base64 (:func:`encode_store_delta`), split
into line-budget frames by :func:`store_delta_frames`.  The same
trust boundary as the store file applies: deltas are only ever decoded
from *joined* (hence authenticated) engines, and a malformed blob is
rejected as a whole frame before any of it touches coordinator state.
"""

import base64
import json
import pickle
import zlib

from repro.errors import ReproError
from repro.io.serialize import design_point_from_dict

PROTOCOL_VERSION = 1

#: Hard cap on one framed line (requests and responses).  A submission
#: of MAX_BATCH_POINTS points stays far below this.
MAX_LINE_BYTES = 1 << 20

#: Hard cap on the points of one submission; keeps a single request
#: from swallowing the queue (real backpressure is a follow-on).
MAX_BATCH_POINTS = 4096

#: Every operation the server understands.
OPS = ("auth", "ping", "submit", "status", "results", "cancel", "jobs",
       "shutdown", "join", "lease", "delta", "engine-heartbeat")

#: Cap on the optional per-submission client label.
MAX_CLIENT_CHARS = 200

#: Cap on the optional per-submission fair-scheduler weight.
MAX_WEIGHT = 100

#: Cap on a joining engine's label.
MAX_ENGINE_CHARS = 100

#: Cap on a remote engine's advertised evaluation slots (also the cap
#: on one lease's ``max``): a worker process is one machine, not a
#: cluster, and a huge lease would defeat re-balancing.
MAX_ENGINE_SLOTS = 64

#: Cap on one lease's long-poll budget in seconds; the worker re-leases
#: in a loop, so a longer wait buys nothing but teardown latency.
MAX_LEASE_WAIT = 30.0

#: Budget for one encoded store-delta frame, comfortably under the
#: line cap once the JSON envelope is added.
DELTA_FRAME_BYTES = MAX_LINE_BYTES - (64 << 10)


class ProtocolError(ReproError):
    """A malformed request (bad JSON, unknown op, bad payload)."""


def encode(message):
    """One response/request line: compact JSON plus the newline."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_request(line):
    """Parse one request line; :class:`ProtocolError` when malformed."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line exceeds %d bytes"
                            % MAX_LINE_BYTES)
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError("request is not valid JSON") from None
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object, got %s"
                            % type(message).__name__)
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError("unknown op %r (expected one of %s)"
                            % (op, ", ".join(OPS)))
    return message


def submission_points(request):
    """The validated :class:`DesignPoint` list of a submit request.

    Structural validation only — an unknown *app name* is accepted here
    and surfaces later as that point's ``error`` (the per-point
    contract), whereas a structurally bad point rejects the whole
    submission before anything is queued.
    """
    points = request.get("points")
    if not isinstance(points, list) or not points:
        raise ProtocolError("submit needs a non-empty 'points' list")
    if len(points) > MAX_BATCH_POINTS:
        raise ProtocolError("submission of %d points exceeds the %d "
                            "point batch cap" % (len(points),
                                                 MAX_BATCH_POINTS))
    decoded = []
    for position, data in enumerate(points):
        try:
            decoded.append(design_point_from_dict(data))
        except ReproError as exc:
            raise ProtocolError("points[%d]: %s"
                                % (position, exc)) from None
    return decoded


def submission_objective(request):
    """The validated objective name of a submit request.

    Optional: defaults to ``"speedup"`` (the historical contract).
    Anything else must be one of
    :data:`~repro.core.objective.OBJECTIVE_NAMES` — a submission
    naming a made-up objective is rejected whole, like any other
    malformed field, before anything is queued.
    """
    from repro.core.objective import OBJECTIVE_NAMES

    objective = request.get("objective", "speedup")
    if objective is None:
        objective = "speedup"
    if not isinstance(objective, str) \
            or objective not in OBJECTIVE_NAMES:
        raise ProtocolError("'objective' must be one of %s"
                            % ", ".join(OBJECTIVE_NAMES))
    return objective


def submission_meta(request):
    """The validated ``(client, weight)`` of a submit request.

    Both are optional — ``client`` (a label the ``fair`` scheduler
    buckets by) defaults to the anonymous lane, ``weight`` to 1 — but
    when present they must be well-formed, like any other field.
    """
    client = request.get("client", "")
    if client is None:
        client = ""
    if not isinstance(client, str) or len(client) > MAX_CLIENT_CHARS:
        raise ProtocolError("'client' must be a string of at most %d "
                            "characters" % MAX_CLIENT_CHARS)
    weight = request.get("weight", 1)
    if isinstance(weight, bool) or not isinstance(weight, int) \
            or not 1 <= weight <= MAX_WEIGHT:
        raise ProtocolError("'weight' must be an integer in [1, %d]"
                            % MAX_WEIGHT)
    return client, weight


def auth_token(request):
    """The token string of an auth request; loud when malformed."""
    token = request.get("token")
    if not isinstance(token, str) or not token:
        raise ProtocolError("auth needs a non-empty 'token' string")
    return token


def job_name(request):
    """The job id a status/results/cancel request names."""
    job = request.get("job")
    if not isinstance(job, str) or not job:
        raise ProtocolError("request needs a 'job' id string")
    return job


# ----------------------------------------------------------------------
# Fabric ops: join / lease / delta / engine-heartbeat
# ----------------------------------------------------------------------
def engine_name(request):
    """The engine id a lease/delta/heartbeat request names."""
    engine = request.get("engine")
    if not isinstance(engine, str) or not engine \
            or len(engine) > MAX_ENGINE_CHARS:
        raise ProtocolError("request needs an 'engine' id string of at "
                            "most %d characters" % MAX_ENGINE_CHARS)
    return engine


def join_fields(request):
    """The validated ``(label, slots)`` of a join request.

    ``engine`` is the worker's *suggested* label (the coordinator
    uniquifies it); ``slots`` is how many units the worker wants
    leased to it at once.
    """
    label = request.get("engine", "")
    if label is None:
        label = ""
    if not isinstance(label, str) or len(label) > MAX_ENGINE_CHARS:
        raise ProtocolError("'engine' must be a string of at most %d "
                            "characters" % MAX_ENGINE_CHARS)
    slots = request.get("slots", 1)
    if isinstance(slots, bool) or not isinstance(slots, int) \
            or not 1 <= slots <= MAX_ENGINE_SLOTS:
        raise ProtocolError("'slots' must be an integer in [1, %d]"
                            % MAX_ENGINE_SLOTS)
    return label, slots


def lease_fields(request):
    """The validated ``(max_units, wait)`` of a lease request."""
    max_units = request.get("max", 1)
    if isinstance(max_units, bool) or not isinstance(max_units, int) \
            or not 1 <= max_units <= MAX_ENGINE_SLOTS:
        raise ProtocolError("'max' must be an integer in [1, %d]"
                            % MAX_ENGINE_SLOTS)
    wait = request.get("wait", 0.0)
    if isinstance(wait, bool) or not isinstance(wait, (int, float)) \
            or not 0 <= wait <= MAX_LEASE_WAIT:
        raise ProtocolError("'wait' must be a number of seconds in "
                            "[0, %s]" % MAX_LEASE_WAIT)
    return max_units, float(wait)


def _stats_delta(data):
    """Validate one wire stats delta: stage -> [hits, misses]."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ProtocolError("'stats' must be a mapping")
    delta = {}
    for stage, pair in data.items():
        if not isinstance(stage, str) \
                or not isinstance(pair, (list, tuple)) \
                or len(pair) != 2 \
                or not all(isinstance(count, int)
                           and not isinstance(count, bool)
                           and count >= 0 for count in pair):
            raise ProtocolError("'stats' entries must map a stage name "
                                "to [hits, misses]")
        delta[stage] = (pair[0], pair[1])
    return delta


def delta_fields(request):
    """The validated ``(results, store_blob)`` of a delta request.

    ``results`` is a list of ``(job id, index, result document, stats
    delta)`` tuples — structurally validated here, while the result
    documents themselves are decoded by the server against its library
    (so the whole frame is rejected before any of it is applied).
    ``store_blob`` is the still-encoded store delta (or ``None``); the
    caller decodes it with :func:`decode_store_delta` only after the
    engine's identity checks pass.
    """
    entries = request.get("results", [])
    if not isinstance(entries, list):
        raise ProtocolError("'results' must be a list")
    if len(entries) > MAX_BATCH_POINTS:
        raise ProtocolError("delta of %d results exceeds the %d cap"
                            % (len(entries), MAX_BATCH_POINTS))
    results = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ProtocolError("results[%d] must be an object"
                                % position)
        job = entry.get("job")
        if not isinstance(job, str) or not job:
            raise ProtocolError("results[%d] needs a 'job' id string"
                                % position)
        index = entry.get("index")
        if isinstance(index, bool) or not isinstance(index, int) \
                or index < 0:
            raise ProtocolError("results[%d] needs a non-negative "
                                "integer 'index'" % position)
        document = entry.get("result")
        if not isinstance(document, dict):
            raise ProtocolError("results[%d] needs a 'result' document"
                                % position)
        results.append((job, index, document,
                        _stats_delta(entry.get("stats"))))
    blob = request.get("store")
    if blob is not None and not isinstance(blob, str):
        raise ProtocolError("'store' must be an encoded delta string "
                            "or null")
    return results, blob


def encode_store_delta(delta):
    """One store delta as a line-safe string (pickle -> zlib -> b64)."""
    packed = pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(zlib.compress(packed)).decode("ascii")


def decode_store_delta(blob):
    """Decode one wire store delta; :class:`ProtocolError` when bad.

    Anything short of a well-shaped ``{stage: {key: value}}``
    mapping — bad base64, bad zlib, a truncated pickle, the wrong
    structure — rejects the frame.  Only call this for blobs received
    from a *joined* engine: decoding is unpickling, and the join
    handshake (behind auth) is the trust boundary, exactly as it is
    for the store's own file.
    """
    delta, _, _ = decode_store_delta_sized(blob)
    return delta


def decode_store_delta_sized(blob):
    """:func:`decode_store_delta` plus the frame's transport sizes.

    Returns ``(delta, raw_bytes, compressed_bytes)`` where
    ``compressed_bytes`` is what actually crossed the wire (the
    base64-decoded zlib stream) and ``raw_bytes`` is the decompressed
    pickle it stands for — the pair the coordinator's compression
    accounting reports per engine.
    """
    try:
        compressed = base64.b64decode(blob.encode("ascii"),
                                      validate=True)
        packed = zlib.decompress(compressed)
        delta = pickle.loads(packed)
    except Exception:
        raise ProtocolError("undecodable store delta") from None
    if not isinstance(delta, dict) or not all(
            isinstance(stage, str) and isinstance(entries, dict)
            for stage, entries in delta.items()):
        raise ProtocolError("store delta must map stage names to "
                            "entry mappings")
    return delta, len(packed), len(compressed)


def store_delta_frames(delta, budget=DELTA_FRAME_BYTES):
    """Split a store delta into encoded blobs within the line budget.

    Entries are greedily packed per frame; a single entry whose lone
    encoding still exceeds the budget is *dropped* — losing a cache
    delta only costs warmth (the entry is recomputed cold elsewhere),
    never correctness, and an oversized frame would cost the whole
    connection.  Returns a list of encoded blobs (empty for an empty
    delta); the dropped-entry count is available as the second element
    of the returned tuple.
    """
    flat = [(stage, key, value)
            for stage, entries in (delta or {}).items()
            for key, value in entries.items()]
    if not flat:
        return [], 0
    whole = encode_store_delta(delta)
    if len(whole) <= budget:
        return [whole], 0
    frames = []
    dropped = 0
    pending = {}
    pending_cost = 0

    def close_frame():
        nonlocal pending, pending_cost
        if pending:
            frames.append(encode_store_delta(pending))
            pending = {}
            pending_cost = 0

    for stage, key, value in flat:
        alone = encode_store_delta({stage: {key: value}})
        if len(alone) > budget:
            dropped += 1
            continue
        if pending_cost + len(alone) > budget:
            close_frame()
        pending.setdefault(stage, {})[key] = value
        pending_cost += len(alone)
    close_frame()
    return frames, dropped


def ok(**fields):
    """A success response."""
    response = {"ok": True}
    response.update(fields)
    return response


def error(message, **fields):
    """A rejection response; ``fields`` carry structured detail
    (``retry_after`` on a backpressure rejection, ``auth_required`` on
    an unauthenticated request)."""
    response = {"ok": False, "error": str(message)}
    response.update(fields)
    return response
