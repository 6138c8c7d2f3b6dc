"""What the server-hosted baseline clients share.

The server chain and primary-backup clients speak one request/reply
protocol and resolve each operation's :class:`~repro.core.client.KVFuture`
with :func:`reply_result` (the not_found heuristic and error mapping live
here exactly once); :class:`ServerBaselineKVClient` puts the unified
protocol over either client, whose ``*_async`` methods return those
futures.
"""

from __future__ import annotations

from repro.core.client import KVClient, KVFuture, KVResult


def reply_result(future: KVFuture, message, latency: float, backend: str) -> KVResult:
    """The :class:`KVResult` of the op behind ``future`` from its reply.

    A read of a key the servers never stored is ``not_found`` (the wire
    protocol reports an empty value at version 0); an ok op carries the
    servers' version as ``(0, version)``.
    """
    op = future.op
    value = message["value"]
    version = message["version"]
    cas_failed = message["cas_failed"]
    not_found = message["not_found"] or (op == "read" and version == 0 and not value)
    ok = message["ok"] and not not_found
    return KVResult(ok, op, future.key, value, not_found, cas_failed, False,
                    None if ok else ("cas_failed" if cas_failed
                                     else "key_not_found" if not_found
                                     else "failed"),
                    latency, 0, backend, (0, version) if ok else None)


class ServerBaselineKVClient(KVClient):
    """The unified protocol over a server chain or primary-backup client.

    ``insert`` maps to a write (both baselines create keys on first
    write).  The backend name is the wrapped client's.
    """

    def __init__(self, client) -> None:
        self.client = client
        self.sim = client.sim
        self.backend = client.backend

    def read(self, key) -> KVFuture:
        return self.client.read_async(key)

    def write(self, key, value) -> KVFuture:
        return self.client.write_async(key, _value_bytes(value))

    def cas(self, key, expected, new_value) -> KVFuture:
        return self.client.cas_async(key, _value_bytes(expected), _value_bytes(new_value))

    def delete(self, key) -> KVFuture:
        return self.client.delete_async(key)

    def insert(self, key, value=b"") -> KVFuture:
        return self.client.write_async(key, _value_bytes(value), "insert")


def key_str(key) -> str:
    """The wire spelling of a key: the servers store string keys."""
    return key.decode("utf-8", "replace") if isinstance(key, bytes) else str(key)


def _value_bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    return str(value).encode("utf-8")
