"""Wire protocol of the scheduling daemon: length-prefixed JSON frames.

One frame is a 4-byte little-endian unsigned length followed by that
many bytes of UTF-8 JSON.  Both directions use the same framing; a
connection may pipeline any number of requests, and responses carry the
request's ``id`` so they can return out of order (the batcher holds
compatible requests open across the coalescing window while later
requests on the same connection are answered immediately).

Request frame::

    {"v": 1, "id": 7, "kind": "schedule", ...kind-specific fields}

Response frame (one per request, matched by ``id``)::

    {"id": 7, "ok": true,  "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "...", "message": "...",
                                     "retry_after": 0.5}}

Request kinds
-------------
``schedule``
    One grid cell: ``instance`` (see below), ``algorithm`` (a registered
    name), ``m`` and ``block_size`` (both >= 1), ``seed`` (a
    non-negative int), plus optional ``engine`` (one of
    :data:`repro.core.list_scheduler.ENGINES`, default ``"auto"``),
    ``with_comm`` (default true) and ``deadline_s`` — a
    per-request deadline in seconds; an expired request is answered
    with :data:`E_DEADLINE_EXCEEDED` instead of a stale result.
``publish``
    Pre-publish an instance into shared memory: ``instance`` plus
    optional ``block_sizes`` (labellings the daemon computes and keeps
    ready; they travel with each chunk, not in the segment),
    ``algorithms`` (a list of registered names) and ``engine`` — the
    two select which memo caches a cold build warms.  The result
    carries the instance key, the segment's ``bytes`` and the
    ``block_sizes`` whose labellings the daemon holds.
``status``
    Daemon liveness/occupancy snapshot (resident instances, pending
    requests, drain state).
``metrics``
    Registry gauges plus the obs metrics snapshot.

The ``instance`` object names a mesh-derived sweep instance exactly like
an experiment config: ``{"mesh", "target_cells", "mesh_seed", "k"}``.
Its content key (the registry's LRU key) is derived server-side via
``repro.cache.instance_key``, so a daemon-resident instance and a
build-cache entry share one identity.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.core.list_scheduler import ENGINES
from repro.util.errors import ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "REQUEST_KINDS",
    "ERROR_CODES",
    "E_BAD_REQUEST",
    "E_UNSUPPORTED_VERSION",
    "E_UNKNOWN_KIND",
    "E_DEADLINE_EXCEEDED",
    "E_OVERLOADED",
    "E_RESIDENT_BUDGET",
    "E_SHUTTING_DOWN",
    "E_INTERNAL",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "ok_response",
    "error_response",
    "error_from_payload",
    "validate_request",
]

#: Bumped on any incompatible frame/schema change; requests carry it as
#: ``v`` and mismatches are refused with :data:`E_UNSUPPORTED_VERSION`.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON body — a corrupted length prefix must
#: fail loudly instead of allocating gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct("<I")

REQUEST_KINDS = ("schedule", "publish", "metrics", "status")

# Typed error codes (the ``error.code`` field of a refusal frame).
E_BAD_REQUEST = "bad_request"
E_UNSUPPORTED_VERSION = "unsupported_version"
E_UNKNOWN_KIND = "unknown_kind"
E_DEADLINE_EXCEEDED = "deadline_exceeded"
E_OVERLOADED = "overloaded"
E_RESIDENT_BUDGET = "resident_budget"
E_SHUTTING_DOWN = "shutting_down"
E_INTERNAL = "internal"

ERROR_CODES = (
    E_BAD_REQUEST,
    E_UNSUPPORTED_VERSION,
    E_UNKNOWN_KIND,
    E_DEADLINE_EXCEEDED,
    E_OVERLOADED,
    E_RESIDENT_BUDGET,
    E_SHUTTING_DOWN,
    E_INTERNAL,
)


def encode_frame(payload: dict) -> bytes:
    """Serialise one frame: length prefix + compact JSON body."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    data = body.encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ServeError(
            E_BAD_REQUEST,
            f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES",
        )
    return _LEN.pack(len(data)) + data


def decode_frame(data: bytes) -> dict:
    """Parse one frame body (the bytes after the length prefix)."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(E_BAD_REQUEST, f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServeError(
            E_BAD_REQUEST, f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def frame_length(prefix: bytes) -> int:
    """Validated body length from a 4-byte prefix."""
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ServeError(
            E_BAD_REQUEST,
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}) — corrupt prefix or protocol mismatch",
        )
    return length


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes from a blocking socket (None on EOF)."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict | None:
    """Blocking read of one frame from ``sock``; ``None`` on clean EOF.

    Client-side only — the daemon uses asyncio stream readers; lint rule
    RPL007 bans blocking socket reads inside ``repro.serve`` coroutines.
    """
    prefix = _recv_exact(sock, _LEN.size)
    if prefix is None:
        return None
    length = frame_length(prefix)
    body = _recv_exact(sock, length)
    if body is None:
        raise ServeError(
            E_BAD_REQUEST, "connection closed mid-frame (truncated body)"
        )
    return decode_frame(body)


def write_frame(sock: socket.socket, payload: dict) -> None:
    """Blocking write of one frame to ``sock`` (client-side only)."""
    sock.sendall(encode_frame(payload))


def ok_response(request_id, result: dict) -> dict:
    """A success frame for request ``request_id``."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id, code: str, message: str, retry_after: float | None = None
) -> dict:
    """A typed error frame for request ``request_id``."""
    error: dict = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"id": request_id, "ok": False, "error": error}


def error_from_payload(response: dict) -> ServeError:
    """Rehydrate a refusal frame into the :class:`ServeError` it carries."""
    error = response.get("error") or {}
    return ServeError(
        error.get("code", E_INTERNAL),
        error.get("message", "daemon returned an error without a message"),
        retry_after=error.get("retry_after"),
    )


_INSTANCE_FIELDS = {
    "mesh": str,
    "target_cells": int,
    "mesh_seed": int,
    "k": int,
}

_SCHEDULE_FIELDS = {
    "algorithm": str,
    "m": int,
    "block_size": int,
    "seed": int,
}

#: Lower bounds of the integer schedule fields.
_SCHEDULE_MINIMA = {"m": 1, "block_size": 1, "seed": 0}


def _check_fields(obj: dict, fields: dict, where: str) -> None:
    for name, typ in fields.items():
        if name not in obj:
            raise ServeError(E_BAD_REQUEST, f"{where} is missing {name!r}")
        if not isinstance(obj[name], typ) or isinstance(obj[name], bool):
            raise ServeError(
                E_BAD_REQUEST,
                f"{where}.{name} must be {typ.__name__}, "
                f"got {type(obj[name]).__name__}",
            )


def _check_algorithms(names, where: str) -> None:
    from repro.heuristics.registry import ALGORITHMS

    if not isinstance(names, list) or not all(
        isinstance(name, str) and name in ALGORITHMS for name in names
    ):
        raise ServeError(
            E_BAD_REQUEST,
            f"{where} must name registered algorithms "
            f"({', '.join(ALGORITHMS)}), got {names!r}",
        )


def validate_request(payload: dict) -> dict:
    """Check version, kind, and kind-specific fields of one request.

    Returns the payload (for chaining) or raises :class:`ServeError`
    with the matching typed code — the server turns that directly into
    the refusal frame.  Every value a worker would choke on (an
    unregistered algorithm, ``m`` or ``block_size`` below 1, a seed that
    is not a non-negative int) is refused here, so one malformed request
    never reaches — and fails — a chunk shared with valid ones.
    """
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ServeError(
            E_UNSUPPORTED_VERSION,
            f"protocol version {version!r} unsupported "
            f"(daemon speaks {PROTOCOL_VERSION})",
        )
    if "id" not in payload:
        raise ServeError(E_BAD_REQUEST, "request is missing 'id'")
    kind = payload.get("kind")
    if kind not in REQUEST_KINDS:
        raise ServeError(
            E_UNKNOWN_KIND,
            f"unknown request kind {kind!r} (expected one of {REQUEST_KINDS})",
        )
    if kind in ("schedule", "publish"):
        instance = payload.get("instance")
        if not isinstance(instance, dict):
            raise ServeError(
                E_BAD_REQUEST, f"{kind} request needs an 'instance' object"
            )
        _check_fields(instance, _INSTANCE_FIELDS, "instance")
        engine = payload.get("engine", "auto")
        if not isinstance(engine, str) or engine not in ENGINES:
            raise ServeError(
                E_BAD_REQUEST,
                f"engine must be one of {ENGINES}, got {engine!r}",
            )
    if kind == "schedule":
        _check_fields(payload, _SCHEDULE_FIELDS, "schedule request")
        _check_algorithms([payload["algorithm"]], "algorithm")
        for name, low in _SCHEDULE_MINIMA.items():
            if payload[name] < low:
                raise ServeError(
                    E_BAD_REQUEST, f"{name} must be >= {low}, got {payload[name]}"
                )
        deadline = payload.get("deadline_s")
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or deadline <= 0
        ):
            raise ServeError(
                E_BAD_REQUEST, f"deadline_s must be a positive number, got {deadline!r}"
            )
    if kind == "publish":
        sizes = payload.get("block_sizes", [])
        if not isinstance(sizes, list) or any(
            isinstance(s, bool) or not isinstance(s, int) or s < 1 for s in sizes
        ):
            raise ServeError(
                E_BAD_REQUEST,
                f"block_sizes must be a list of positive ints, got {sizes!r}",
            )
        _check_algorithms(payload.get("algorithms", []), "algorithms")
    return payload
