"""Unit tests for the history recorder and per-key linearizability checker.

These drive the checker on hand-crafted histories with known verdicts --
both directions: known-good concurrent histories must be accepted, and
classic anomalies (stale reads, lost updates, impossible CAS outcomes)
must be rejected.
"""

from __future__ import annotations

from repro.core.client import KVResult
from repro.core.history import History, RecordingClient, check_linearizable
from tests.conftest import make_cluster


class Clock:
    """A manually advanced stand-in for the simulator in history tests."""

    def __init__(self) -> None:
        self.now = 0.0


def record(history, clock, client, op, key, t0, t1, value=None, expected=None,
           ok=True, output=None, not_found=False, cas_failed=False,
           timed_out=False, complete=True):
    clock.now = t0
    rec = history.invoke(client, op, key, value=value, expected=expected)
    if complete:
        clock.now = t1
        history.complete(rec, KVResult(ok=ok, op=op, key=rec.key,
                                       value=output if output is not None else b"",
                                       not_found=not_found, cas_failed=cas_failed,
                                       timed_out=timed_out))
    return rec


def test_sequential_history_is_linearizable():
    clock = Clock()
    h = History(clock)
    record(h, clock, "a", "write", "k", 0.0, 1.0, value=b"v1")
    record(h, clock, "a", "read", "k", 2.0, 3.0, output=b"v1")
    record(h, clock, "b", "write", "k", 4.0, 5.0, value=b"v2")
    record(h, clock, "b", "read", "k", 6.0, 7.0, output=b"v2")
    report = check_linearizable(h)
    assert report.ok
    assert report.keys[b"k"].ops == 4


def test_stale_read_is_rejected():
    clock = Clock()
    h = History(clock)
    record(h, clock, "a", "write", "k", 0.0, 1.0, value=b"v1")
    record(h, clock, "a", "write", "k", 2.0, 3.0, value=b"v2")
    # This read started after v2's write returned; v1 is stale.
    record(h, clock, "b", "read", "k", 4.0, 5.0, output=b"v1")
    report = check_linearizable(h)
    assert not report.ok
    assert b"k" in {r.key for r in report.violations()}
    assert "no valid linearization" in report.keys[b"k"].message


def test_concurrent_write_allows_either_read_order():
    clock = Clock()
    h = History(clock)
    # A long write concurrent with two reads: old-then-new is fine...
    record(h, clock, "w", "write", "k", 0.0, 10.0, value=b"new")
    record(h, clock, "r", "read", "k", 2.0, 3.0, ok=False, not_found=True)
    record(h, clock, "r", "read", "k", 4.0, 5.0, output=b"new")
    assert check_linearizable(h).ok


def test_value_going_backwards_within_write_window_is_rejected():
    clock = Clock()
    h = History(clock)
    # ...but new-then-old is not: a write cannot be unapplied.
    record(h, clock, "w", "write", "k", 0.0, 10.0, value=b"new")
    record(h, clock, "r", "read", "k", 2.0, 3.0, output=b"new")
    record(h, clock, "r", "read", "k", 4.0, 5.0, ok=False, not_found=True)
    assert not check_linearizable(h).ok


def test_initial_state_mapping_is_respected():
    clock = Clock()
    h = History(clock)
    record(h, clock, "r", "read", "k", 0.0, 1.0, output=b"seeded")
    assert check_linearizable(h, initial={b"k": b"seeded"}).ok
    assert not check_linearizable(h, initial={b"k": b"other"}).ok
    assert not check_linearizable(h).ok  # defaults to missing


def test_cas_success_requires_expected_value():
    clock = Clock()
    h = History(clock)
    record(h, clock, "a", "write", "k", 0.0, 1.0, value=b"a")
    record(h, clock, "b", "cas", "k", 2.0, 3.0, value=b"b", expected=b"a")
    record(h, clock, "c", "read", "k", 4.0, 5.0, output=b"b")
    assert check_linearizable(h).ok

    h2 = History(clock)
    record(h2, clock, "a", "write", "k", 0.0, 1.0, value=b"a")
    # CAS claims success although its expected value never existed.
    record(h2, clock, "b", "cas", "k", 2.0, 3.0, value=b"b", expected=b"x")
    assert not check_linearizable(h2).ok


def test_cas_failure_requires_mismatched_state():
    clock = Clock()
    h = History(clock)
    record(h, clock, "a", "write", "k", 0.0, 1.0, value=b"a")
    # A sequential CAS that reports failure even though the state matched.
    record(h, clock, "b", "cas", "k", 2.0, 3.0, value=b"b", expected=b"a",
           ok=False, cas_failed=True)
    assert not check_linearizable(h).ok
    # With a concurrent overwrite the failure is explainable.
    h2 = History(clock)
    record(h2, clock, "a", "write", "k", 0.0, 1.0, value=b"a")
    record(h2, clock, "c", "write", "k", 2.0, 2.6, value=b"c")
    record(h2, clock, "b", "cas", "k", 2.2, 3.0, value=b"b", expected=b"a",
           ok=False, cas_failed=True)
    assert check_linearizable(h2).ok


def test_delete_and_not_found_semantics():
    clock = Clock()
    h = History(clock)
    record(h, clock, "a", "write", "k", 0.0, 1.0, value=b"v")
    record(h, clock, "a", "delete", "k", 2.0, 3.0)
    record(h, clock, "b", "read", "k", 4.0, 5.0, ok=False, not_found=True)
    assert check_linearizable(h).ok


def test_timed_out_write_may_or_may_not_take_effect():
    clock = Clock()
    h = History(clock)
    record(h, clock, "a", "write", "k", 0.0, 1.0, value=b"v1")
    record(h, clock, "a", "write", "k", 2.0, 3.0, value=b"v2", ok=False,
           timed_out=True)
    # Observed: the lost write DID take effect.
    record(h, clock, "b", "read", "k", 4.0, 5.0, output=b"v2")
    assert check_linearizable(h).ok

    h2 = History(clock)
    record(h2, clock, "a", "write", "k", 0.0, 1.0, value=b"v1")
    record(h2, clock, "a", "write", "k", 2.0, 3.0, value=b"v2", ok=False,
           timed_out=True)
    # Observed: the lost write did NOT take effect.
    record(h2, clock, "b", "read", "k", 4.0, 5.0, output=b"v1")
    assert check_linearizable(h2).ok

    h3 = History(clock)
    record(h3, clock, "a", "write", "k", 0.0, 1.0, value=b"v1")
    record(h3, clock, "a", "write", "k", 2.0, 3.0, value=b"v2", ok=False,
           timed_out=True)
    # But it cannot take effect and then vanish again.
    record(h3, clock, "b", "read", "k", 4.0, 5.0, output=b"v2")
    record(h3, clock, "b", "read", "k", 6.0, 7.0, output=b"v1")
    assert not check_linearizable(h3).ok


def test_pending_operation_is_ambiguous():
    clock = Clock()
    h = History(clock)
    record(h, clock, "a", "write", "k", 0.0, 1.0, value=b"v1")
    record(h, clock, "a", "write", "k", 2.0, 0.0, value=b"v2", complete=False)
    record(h, clock, "b", "read", "k", 4.0, 5.0, output=b"v2")
    report = check_linearizable(h)
    assert report.ok
    assert report.keys[b"k"].ambiguous_ops >= 1


def test_keys_are_checked_independently():
    clock = Clock()
    h = History(clock)
    record(h, clock, "a", "write", "good", 0.0, 1.0, value=b"x")
    record(h, clock, "a", "read", "good", 2.0, 3.0, output=b"x")
    record(h, clock, "a", "write", "bad", 0.0, 1.0, value=b"x")
    record(h, clock, "a", "read", "bad", 2.0, 3.0, output=b"y")
    report = check_linearizable(h)
    assert not report.ok
    assert report.keys[b"good"].ok
    assert not report.keys[b"bad"].ok
    assert "NOT linearizable" in report.summary()


def test_version_monotonicity_helper():
    clock = Clock()
    h = History(clock)

    rec1 = h.invoke("a", "read", "k")
    h.complete(rec1, KVResult(ok=True, op="read", version=(1, 5)))
    rec2 = h.invoke("a", "read", "k")
    h.complete(rec2, KVResult(ok=True, op="read", version=(1, 4)))
    violations = h.version_violations()
    assert len(violations) == 1 and "backwards" in violations[0]


def test_recording_client_wraps_any_backend():
    cluster = make_cluster()
    cluster.populate(4)
    history = History(cluster.sim)
    client = RecordingClient(cluster.agent("H0"), history, name="probe")
    assert client.write("k00000000", b"hello").result().ok
    read = client.read("k00000000").result()
    assert read.ok and read.value == b"hello"
    missing = client.read("nope").result()
    assert not missing.ok
    assert len(history) == 3
    assert all(op.completed for op in history.ops)
    assert history.ops[0].client == "probe"
    assert history.ops[1].output == b"hello"
    assert history.ops[2].not_found
    # NetChain results carry versions.
    assert history.ops[1].version is not None
    report = history.check(initial={b"k00000000": b"\x00" * 64})
    assert report.ok


def test_state_budget_marks_exhaustion():
    clock = Clock()
    h = History(clock)
    # Many fully concurrent certain writes + interleaved reads force real
    # search work; a tiny budget must be reported as exhaustion, not as a
    # verdict.
    for i in range(8):
        record(h, clock, f"c{i}", "write", "k", 0.0, 100.0, value=f"v{i}".encode())
    record(h, clock, "r", "read", "k", 1.0, 2.0, output=b"v7")
    report = check_linearizable(h, state_budget=3)
    assert report.keys[b"k"].exhausted
    assert report.exhausted_keys()
