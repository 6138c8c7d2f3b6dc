"""Regenerate the golden adversarial history corpus.

Each fixture is a standalone ``history/v1`` NDJSON file with a known
linearizability verdict, recorded in ``manifest.json`` next to it.  The
corpus pins down the checker semantics the simulator relies on -- retry
echoes, ambiguous (lost-reply) latitude, CAS atomicity, version
monotonicity -- so a checker change that silently flips any verdict fails
the regression test (``tests/test_history_fixtures.py``).  Each entry also
says whether the version witness vouches for it (``"witness": "ok"``) or
defers it to the search (``"defer"``; every fixture without versions).

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/histories/generate.py
"""

import json
import sys
from pathlib import Path

from repro.artifacts import NdjsonWriter
from repro.core.history import HistoryOp
from repro.core.history_store import SCHEMA, encode_bytes, op_to_record

HERE = Path(__file__).parent

A, B, C = b"A", b"B", b"C"
K = b"k"


def op(op_id, client, name, key, inv, ret, *, value=None, expected=None,
       ok=None, output=None, nf=False, cf=False, to=False, retries=0,
       version=None):
    return HistoryOp(op_id=op_id, client=client, op=name, key=key,
                     value=value, expected=expected, invoked_at=float(inv),
                     returned_at=(None if ret is None else float(ret)),
                     ok=ok, output=output, not_found=nf, cas_failed=cf,
                     timed_out=to, retries=retries, version=version)


FIXTURES = [
    {
        "file": "ok_simple_rw.ndjson",
        "description": "sequential writes and reads, trivially linearizable",
        "initial": {K: A},
        "ok": True,
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True),
            op(1, "c1", "read", K, 3, 4, ok=True, output=B),
            op(2, "c0", "write", K, 5, 6, value=C, ok=True),
            op(3, "c1", "read", K, 7, 8, ok=True, output=C),
        ],
    },
    {
        "file": "ok_concurrent_overlap.ndjson",
        "description": "two overlapping writes; reads fix the order C-then-B",
        "initial": {K: A},
        "ok": True,
        "ops": [
            op(0, "c0", "write", K, 1, 4, value=B, ok=True),
            op(1, "c1", "write", K, 2, 5, value=C, ok=True),
            op(2, "c2", "read", K, 6, 7, ok=True, output=B),
            op(3, "c2", "read", K, 8, 9, ok=True, output=B),
        ],
    },
    {
        "file": "ok_retry_echo_oscillation.ndjson",
        "description": "value oscillates B,C,B: legal only because w(B) was "
                       "retried over UDP and a straggler retransmission "
                       "re-imposes it (NetChain 4.3 echo semantics)",
        "initial": {K: A},
        "ok": True,
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True, retries=2),
            op(1, "c1", "write", K, 3, 4, value=C, ok=True),
            op(2, "c2", "read", K, 5, 6, ok=True, output=C),
            op(3, "c2", "read", K, 7, 8, ok=True, output=B),
        ],
    },
    {
        "file": "ok_lost_ack.ndjson",
        "description": "a timed-out write whose ack was lost took effect: a "
                       "later read observes its value",
        "initial": {K: A},
        "ok": True,
        "ops": [
            op(0, "c0", "write", K, 1, 6, value=B, ok=False, to=True),
            op(1, "c1", "read", K, 7, 8, ok=True, output=B),
        ],
    },
    {
        "file": "ok_ambiguous_drop.ndjson",
        "description": "a timed-out write that never took effect: every "
                       "later read still observes the old value",
        "initial": {K: A},
        "ok": True,
        "ops": [
            op(0, "c0", "write", K, 1, 6, value=B, ok=False, to=True),
            op(1, "c1", "read", K, 7, 8, ok=True, output=A),
            op(2, "c1", "read", K, 9, 10, ok=True, output=A),
        ],
    },
    {
        "file": "ok_ambiguous_cas.ndjson",
        "description": "a timed-out CAS that would have succeeded did: the "
                       "next read observes the proposed value",
        "initial": {K: A},
        "ok": True,
        "ops": [
            op(0, "c0", "cas", K, 1, 6, expected=A, value=B, ok=False,
               to=True),
            op(1, "c1", "read", K, 7, 8, ok=True, output=B),
        ],
    },
    {
        "file": "ok_delete_insert.ndjson",
        "description": "delete, not-found read, re-insert, read: the "
                       "missing-key state threads through correctly",
        "initial": {K: A},
        "ok": True,
        "ops": [
            op(0, "c0", "delete", K, 1, 2, ok=True),
            op(1, "c1", "read", K, 3, 4, ok=False, nf=True),
            op(2, "c0", "insert", K, 5, 6, value=B, ok=True),
            op(3, "c1", "read", K, 7, 8, ok=True, output=B),
        ],
    },
    {
        "file": "ok_pending_tail.ndjson",
        "description": "an operation still in flight at run end (no "
                       "response at all) may be dropped or applied",
        "initial": {K: A},
        "ok": True,
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True),
            op(1, "c1", "read", K, 3, 4, ok=True, output=B),
            op(2, "c0", "write", K, 5, None, value=C),
        ],
    },
    {
        "file": "bad_stale_read.ndjson",
        "description": "stale read: the overwritten value reappears after "
                       "the new value was observed, with no retries to "
                       "excuse it",
        "initial": {K: A},
        "ok": False,
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True),
            op(1, "c1", "read", K, 3, 4, ok=True, output=B),
            op(2, "c1", "read", K, 5, 6, ok=True, output=A),
        ],
    },
    {
        "file": "bad_split_brain_write.ndjson",
        "description": "split brain: two partitions each serve their own "
                       "write, so reads oscillate B,C,B with no retransmits",
        "initial": {K: A},
        "ok": False,
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True),
            op(1, "c1", "write", K, 3, 4, value=C, ok=True),
            op(2, "c2", "read", K, 5, 6, ok=True, output=B),
            op(3, "c3", "read", K, 7, 8, ok=True, output=C),
            op(4, "c2", "read", K, 9, 10, ok=True, output=B),
        ],
    },
    {
        "file": "bad_phantom_read.ndjson",
        "description": "a read returns a value nobody ever wrote",
        "initial": {K: A},
        "ok": False,
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True),
            op(1, "c1", "read", K, 3, 4, ok=True, output=b"Z"),
        ],
    },
    {
        "file": "bad_cas_double_win.ndjson",
        "description": "two sequential CAS on the same expected value both "
                       "claim success: the second is impossible",
        "initial": {K: A},
        "ok": False,
        "ops": [
            op(0, "c0", "cas", K, 1, 2, expected=A, value=B, ok=True),
            op(1, "c1", "cas", K, 3, 4, expected=A, value=C, ok=True),
        ],
    },
    {
        "file": "ver_version_regression.ndjson",
        "description": "linearizable values, but one client observes the "
                       "backend version go backwards (TLA+ Consistency "
                       "violation)",
        "initial": {K: A},
        "ok": True,
        "version_violations": 1,
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True, version=(1, 5)),
            op(1, "c0", "read", K, 3, 4, ok=True, output=B, version=(1, 4)),
        ],
    },
    {
        "file": "ver_read_before_write_returns.ndjson",
        "description": "the tail serves the new version before the head's ack "
                       "reaches the writer: a read returns the version of a "
                       "write still outstanding (the common chain case)",
        "initial": {K: A},
        "ok": True,
        "witness": "ok",
        "ops": [
            op(0, "c1", "read", K, 0, 0.5, ok=True, output=A, version=(0, 0)),
            op(1, "c0", "write", K, 1, 4, value=B, ok=True, version=(1, 1)),
            op(2, "c1", "read", K, 2, 3, ok=True, output=B, version=(1, 1)),
            op(3, "c1", "read", K, 5, 6, ok=True, output=B, version=(1, 1)),
        ],
    },
    {
        "file": "ver_echo_after_return.ndjson",
        "description": "a retried write's straggler re-imposes its value at a "
                       "fresh version after the write returned and another "
                       "write landed: the echo the search grants, witnessed",
        "initial": {K: A},
        "ok": True,
        "witness": "ok",
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True, retries=1,
               version=(1, 1)),
            op(1, "c1", "write", K, 3, 4, value=C, ok=True, version=(1, 2)),
            op(2, "c2", "read", K, 5, 6, ok=True, output=C, version=(1, 2)),
            op(3, "c2", "read", K, 7, 8, ok=True, output=B, version=(1, 3)),
        ],
    },
    {
        "file": "ver_stale_read.ndjson",
        "description": "a read returns the value it carries the version of, "
                       "but that version is older than one already returned "
                       "before the read was invoked",
        "initial": {K: A},
        "ok": False,
        "version_violations": 1,
        "witness": "defer",
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True, version=(1, 1)),
            op(1, "c1", "read", K, 3, 4, ok=True, output=B, version=(1, 1)),
            op(2, "c1", "read", K, 5, 6, ok=True, output=A, version=(0, 0)),
        ],
    },
    {
        "file": "ver_echo_of_unretried_write.ndjson",
        "description": "a read returns a write's value at a version that write "
                       "did not report, and it was sent once: the values are "
                       "linearizable, the versions do not show it",
        "initial": {K: A},
        "ok": True,
        "witness": "defer",
        "ops": [
            op(0, "c0", "write", K, 1, 2, value=B, ok=True, version=(1, 1)),
            op(1, "c1", "read", K, 3, 4, ok=True, output=B, version=(1, 2)),
        ],
    },
]


def main() -> int:
    manifest = []
    for fixture in FIXTURES:
        initial = {encode_bytes(key): encode_bytes(value)
                   for key, value in fixture["initial"].items()}
        meta = {"name": fixture["file"].rsplit(".", 1)[0],
                "description": fixture["description"], "initial": initial}
        with NdjsonWriter(HERE / fixture["file"], SCHEMA, meta=meta) as stream:
            for record in fixture["ops"]:
                stream.write(op_to_record(record))
        manifest.append({
            "file": fixture["file"],
            "description": fixture["description"],
            "initial": initial,
            "ok": fixture["ok"],
            "version_violations": fixture.get("version_violations", 0),
            "witness": fixture.get("witness", "defer"),
        })
    (HERE / "manifest.json").write_text(
        json.dumps({"schema": "history-corpus/v1", "fixtures": manifest},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} fixtures + manifest.json to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
