"""The worker wire protocol: newline-delimited JSON over TCP.

One request, one response, one line each — a deliberately boring
protocol that any tool (``nc``, a test, another language) can speak.
Every message is a JSON object terminated by ``\\n``; requests carry an
``op`` field, responses carry ``ok`` (and ``error`` when ``ok`` is
false).  Nothing binary crosses the wire: a shard task is a JSON-ready
dict of importable references and knobs, and its reply carries results
in the canonical task codec (:mod:`repro.exec.task`) — workers rebuild
clusters and suites from the references, so traces never ship.

Ops:

``ping``
    Liveness + identity: ``{"op": "ping"}`` →
    ``{"ok": true, "role": "repro-dft-worker", "pid": ..., ...}``.
``run_shard``
    Run one shard task (``{"op": "run_shard", "job": task}``; see
    :mod:`repro.exec.task` for the task fields) with
    :func:`repro.exec.task.run_task` and the worker's memo, and return
    its reply — the encoded testcase or mutant results plus raw
    telemetry records for parent-side fold-back.
``shutdown``
    Ask the worker process to exit after responding.

The synchronous :func:`request` helper is the dispatcher side: one
connection per request, a socket timeout as the straggler detector,
and a :class:`ProtocolError` for anything that is not a well-formed
``ok`` response.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional, Tuple

from ..exec.task import decode_match, encode_match  # noqa: F401 - re-exported

#: Protocol identifier sent back by ``ping`` and checked by the
#: dispatcher — catches pointing ``--worker`` at something that is not
#: a repro-dft worker before any shard is lost to it.
ROLE = "repro-dft-worker"

#: Hard cap on one message line (64 MiB).  A shard response carries
#: pair keys and counter records, not traces; anything larger is a
#: protocol violation, not data.
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed frame, an oversized line, or an error response."""


# -- framing ----------------------------------------------------------------


def encode_message(message: Dict[str, Any]) -> bytes:
    """One NDJSON frame (compact separators, trailing newline)."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol message must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


async def read_message(reader) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream (``None`` on clean EOF)."""
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"protocol line exceeds {MAX_LINE_BYTES} bytes"
        )
    return decode_message(line)


def write_message(writer, message: Dict[str, Any]) -> None:
    """Queue one frame on an asyncio stream writer."""
    writer.write(encode_message(message))


# -- synchronous client (dispatcher side) -----------------------------------


def request(
    addr: Tuple[str, int],
    message: Dict[str, Any],
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """One blocking request/response exchange with a worker.

    Opens a fresh connection (workers are stateless between shards —
    their caches are process-level, not connection-level), applies
    ``timeout`` to the connect, the send and the read, and returns the
    decoded response.  Raises :class:`ProtocolError` for an ``ok:
    false`` response and lets :class:`OSError` / ``socket.timeout``
    propagate for transport failures — the retry loop in
    :class:`~repro.service.remote.RemoteExecutor` treats both as "this
    worker failed this shard".
    """
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.sendall(encode_message(message))
        chunks: List[bytes] = []
        total = 0
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            total += len(chunk)
            if total > MAX_LINE_BYTES:
                raise ProtocolError(
                    f"response exceeds {MAX_LINE_BYTES} bytes"
                )
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    if not chunks:
        raise ProtocolError(f"worker {addr[0]}:{addr[1]} closed without a response")
    response = decode_message(b"".join(chunks))
    if not response.get("ok"):
        raise ProtocolError(
            f"worker {addr[0]}:{addr[1]} error: "
            f"{response.get('error', 'unknown error')}"
        )
    return response
