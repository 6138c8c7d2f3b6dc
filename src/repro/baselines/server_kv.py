"""What the server-hosted baseline clients share.

The server chain and primary-backup clients expose the same
callback-based ``*_async`` surface and report the same
:class:`ServerResult`, so one adapter maps both onto the unified futures
protocol (subclasses only name their backend; the not_found heuristic
and error mapping live here exactly once).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import KVClient, KVFuture, KVResult, _raw_key


@dataclass(slots=True)
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

    def _wrap(self, op: str, key, submit, *args) -> KVFuture:
        """``submit(key, *args, callback)`` behind a future."""
        raw_key = _raw_key(key)
        future = KVFuture(self.sim, op, raw_key)
        backend = self.backend

        def on_done(result) -> None:
            not_found = result.not_found or (
                op == "read" and result.version == 0 and not result.value)
            ok = result.ok and not not_found
            future.resolve(KVResult(
                ok, op, raw_key, result.value, not_found, result.cas_failed, False,
                None if ok else ("cas_failed" if result.cas_failed
                                 else "key_not_found" if not_found
                                 else "failed"),
                result.latency, 0, backend, result))

        submit(_key_str(key), *args, on_done)
        return future

    def read(self, key) -> KVFuture:
        return self._wrap("read", key, self.client.read_async)

    def write(self, key, value) -> KVFuture:
        return self._wrap("write", key, self.client.write_async, _value_bytes(value))

    def cas(self, key, expected, new_value) -> KVFuture:
        return self._wrap("cas", key, self.client.cas_async,
                          _value_bytes(expected), _value_bytes(new_value))

    def delete(self, key) -> KVFuture:
        return self._wrap("delete", key, self.client.delete_async)

    def insert(self, key, value=b"") -> KVFuture:
        return self._wrap("insert", key, self.client.write_async, _value_bytes(value))


def _key_str(key) -> str:
    return key.decode("utf-8", "replace") if isinstance(key, bytes) else str(key)


def _value_bytes(value) -> bytes:
    if isinstance(value, bytes):
        return value
    return str(value).encode("utf-8")
