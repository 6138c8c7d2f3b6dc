"""Shared :class:`KVClient` adapter base for the server-hosted baselines.

The server chain and primary-backup clients expose the same
callback-based ``*_async`` surface and report the same
:class:`ServerResult`, so one adapter maps both onto the unified futures
protocol.  Subclasses only name their backend; the not_found heuristic
and error mapping live here exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import KVClient, KVFuture, KVResult, _raw_key


@dataclass
class ServerResult:
    """Outcome of one operation against a server-hosted baseline."""

    ok: bool
    op: str
    key: str
    value: bytes = b""
    version: int = 0
    latency: float = 0.0
    #: A compare-and-swap lost (expected value did not match at the
    #: chain head / primary).
    cas_failed: bool = False
    #: A delete targeted a key the servers never stored.
    not_found: bool = False


class ServerBaselineKVClient(KVClient):
    """The unified protocol over a ``*_async``-style baseline client.

    ``insert`` maps to a write (both baselines create keys on first
    write); reads of keys the servers never stored surface as
    ``not_found`` (the wire protocol reports an empty value at
    version 0).
    """

    backend = "server"

    def __init__(self, client) -> None:
        self.client = client
        self.sim = client.sim

    def _wrap(self, op: str, key, submit) -> KVFuture:
        future = KVFuture(self.sim, op=op, key=_raw_key(key))

        def on_done(result) -> None:
            not_found = result.not_found or (
                op == "read" and result.version == 0 and not result.value)
            ok = result.ok and not not_found
            future.resolve(KVResult(
                ok=ok, op=op, key=_raw_key(key), value=result.value,
                not_found=not_found, cas_failed=result.cas_failed,
                error=None if ok else ("cas_failed" if result.cas_failed
                                       else "key_not_found" if not_found
                                       else "failed"),
                latency=result.latency, backend=self.backend, raw=result))

        submit(on_done)
        return future

    def read(self, key) -> KVFuture:
        return self._wrap("read", key,
                          lambda cb: self.client.read_async(_key_str(key), cb))

    def write(self, key, value) -> KVFuture:
        return self._wrap("write", key,
                          lambda cb: self.client.write_async(_key_str(key),
                                                             _value_bytes(value), cb))

    def cas(self, key, expected, new_value) -> KVFuture:
        return self._wrap("cas", key,
                          lambda cb: self.client.cas_async(_key_str(key),
                                                           _value_bytes(expected),
                                                           _value_bytes(new_value), cb))

    def delete(self, key) -> KVFuture:
        return self._wrap("delete", key,
                          lambda cb: self.client.delete_async(_key_str(key), cb))

    def insert(self, key, value=b"") -> KVFuture:
        return self._wrap("insert", key,
                          lambda cb: self.client.write_async(_key_str(key),
                                                             _value_bytes(value), cb))


def _key_str(key) -> str:
    return key.decode("utf-8", "replace") if isinstance(key, bytes) else str(key)


def _value_bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    return str(value).encode("utf-8")
