"""Unit tests for the executable correctness invariants."""

from __future__ import annotations

import pytest

from repro.core.client import KVResult
from repro.core.invariants import (
    ClientObservationChecker,
    InvariantViolation,
    chain_versions,
    check_chain_invariant,
    check_value_agreement,
)
from repro.core.kvstore import SwitchKVStore
from repro.netsim.engine import Simulator
from repro.netsim.switch import Switch, SwitchConfig


def make_stores(n=3):
    stores = []
    for i in range(n):
        switch = Switch(Simulator(), f"S{i}", f"10.0.0.{i + 1}", config=SwitchConfig())
        stores.append(SwitchKVStore(switch, slots=16))
    return stores


def write(store, key, value, seq, session=0):
    loc = store.insert_key(key)
    store.write_loc(loc, value, seq=seq, session=session)


def test_chain_versions_reports_missing_keys():
    stores = make_stores(3)
    write(stores[0], "k", b"v", seq=2)
    versions = chain_versions(stores, "k")
    assert versions[0] == (0, 2)
    assert versions[1] is None and versions[2] is None


def test_invariant_holds_for_monotone_chain():
    stores = make_stores(3)
    for store, seq in zip(stores, (5, 4, 3), strict=True):
        write(store, "k", b"v", seq=seq)
    assert check_chain_invariant(stores, ["k"]) == []


def test_invariant_violation_detected_and_raised():
    stores = make_stores(3)
    for store, seq in zip(stores, (1, 5, 2), strict=True):
        write(store, "k", b"v", seq=seq)
    with pytest.raises(InvariantViolation):
        check_chain_invariant(stores, ["k"])
    violations = check_chain_invariant(stores, ["k"], raise_on_violation=False)
    assert len(violations) == 1


def test_invariant_uses_session_then_seq_ordering():
    stores = make_stores(2)
    write(stores[0], "k", b"v", seq=1, session=2)
    write(stores[1], "k", b"v", seq=9, session=1)
    # (2, 1) >= (1, 9): upstream newer by session, invariant holds.
    assert check_chain_invariant(stores, ["k"]) == []


def test_value_agreement_detects_divergence():
    stores = make_stores(2)
    write(stores[0], "k", b"A", seq=3)
    write(stores[1], "k", b"B", seq=3)
    with pytest.raises(InvariantViolation):
        check_value_agreement(stores, ["k"])
    assert len(check_value_agreement(stores, ["k"], raise_on_violation=False)) == 1


def test_value_agreement_allows_different_versions():
    stores = make_stores(2)
    write(stores[0], "k", b"new", seq=4)
    write(stores[1], "k", b"old", seq=3)
    assert check_value_agreement(stores, ["k"]) == []


def test_client_observation_checker_accepts_monotone_versions():
    checker = ClientObservationChecker()
    assert checker.observe("k", 0, 1)
    assert checker.observe("k", 0, 1)  # equal is fine
    assert checker.observe("k", 0, 5)
    assert checker.observe("k", 1, 1)  # new session outranks old seq
    assert checker.ok()
    assert checker.observations == 4


def test_client_observation_checker_detects_regression():
    checker = ClientObservationChecker(raise_on_violation=False)
    checker.observe("k", 0, 5)
    assert not checker.observe("k", 0, 3)
    assert not checker.ok()
    strict = ClientObservationChecker()
    strict.observe("k", 1, 1)
    with pytest.raises(InvariantViolation):
        strict.observe("k", 0, 9)


def test_client_observation_checker_ignores_failed_results():
    checker = ClientObservationChecker()
    assert checker.observe_result(KVResult(ok=False, op="read", key=b"k", version=(0, 0)))
    assert checker.observations == 0
