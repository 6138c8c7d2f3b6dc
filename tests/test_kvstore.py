"""Unit tests for the per-switch key-value storage (Figure 3)."""

from __future__ import annotations

import pytest

from repro.core.kvstore import StoreFullError, SwitchKVStore, ValueTooLargeError
from repro.deploy import DeploymentSpec, build_deployment
from repro.netsim.engine import Simulator
from repro.netsim.registers import RegisterAllocationError
from repro.netsim.switch import Switch, SwitchConfig


def make_store(slots=64, sram=None):
    switch = Switch(Simulator(), "S0", "10.0.0.1", config=SwitchConfig(sram_bytes=sram))
    return SwitchKVStore(switch, slots=slots)


def test_insert_and_lookup():
    store = make_store()
    loc = store.insert_key("alpha")
    assert store.lookup("alpha") == loc
    assert store.lookup("beta") is None
    assert store.used_slots() == 1


def test_insert_is_idempotent():
    store = make_store()
    loc1 = store.insert_key("alpha")
    loc2 = store.insert_key("alpha")
    assert loc1 == loc2
    assert store.used_slots() == 1


def test_write_and_read_roundtrip():
    store = make_store()
    loc = store.insert_key("alpha")
    store.write_loc(loc, b"hello world", seq=3, session=1)
    item = store.read_loc(loc)
    assert item.value == b"hello world"
    assert item.seq == 3
    assert item.session == 1
    assert item.valid
    assert item.version() == (1, 3)




def test_overwrite_shorter_value_truncates_correctly():
    store = make_store()
    loc = store.insert_key("k")
    store.write_loc(loc, bytes(100), seq=1)
    store.write_loc(loc, b"tiny", seq=2)
    assert store.read_loc(loc).value == b"tiny"


def test_read_convenience_and_missing_key():
    store = make_store()
    store.insert_key("k")
    assert store.read("k") is not None
    assert store.read("missing") is None


def test_store_full_error():
    store = make_store(slots=2)
    store.insert_key("a")
    store.insert_key("b")
    with pytest.raises(StoreFullError):
        store.insert_key("c")
    assert store.capacity == 2


def test_remove_key_frees_slot():
    store = make_store(slots=2)
    store.insert_key("a")
    store.insert_key("b")
    assert store.remove_key("a")
    assert not store.remove_key("a")
    store.insert_key("c")
    assert store.used_slots() == 2
    assert store.lookup("a") is None


def test_invalidate_marks_item_invalid():
    store = make_store()
    loc = store.insert_key("k")
    store.write_loc(loc, b"v", seq=1)
    assert store.invalidate("k")
    assert not store.read_loc(loc).valid
    assert not store.invalidate("missing")


def test_value_too_large_rejected():
    # One pass carries 8 stages x 16 bytes; a longer value is refused
    # whatever is stored, and nothing of it is written.
    store = make_store()
    loc = store.insert_key("k")
    store.write_loc(loc, bytes(128), seq=1)
    with pytest.raises(ValueTooLargeError, match="128-byte pipeline limit"):
        store.write_loc(loc, bytes(129), seq=2)
    assert store.load_loc(loc) == (bytes(128), 1, 0, True)






def test_sram_accounting_matches_prototype_sizing():
    # Section 7: 64K slots x 16 bytes x 8 stages = 8 MB of value storage,
    # plus a 2-byte length, 4-byte seq, 2-byte session and valid byte.
    store = make_store(slots=65536)
    value_bytes = 8 * 1024 * 1024
    assert store.switch.registers.allocated_bytes() == value_bytes + 65536 * 9


def test_sram_budget_enforced_for_oversized_store():
    with pytest.raises(RegisterAllocationError):
        make_store(slots=65536, sram=1024 * 1024)  # 1 MB budget cannot hold 8 MB


def test_export_import_items():
    source = make_store()
    destination = make_store()
    for i in range(5):
        loc = source.insert_key(f"k{i}")
        source.write_loc(loc, f"value{i}".encode(), seq=i + 1, session=1)
    items = source.export_items()
    assert len(items) == 5
    copied = destination.import_items(items)
    assert copied > 0
    for i in range(5):
        item = destination.read(f"k{i}")
        assert item.value == f"value{i}".encode()
        assert item.seq == i + 1


def test_export_items_subset():
    store = make_store()
    for i in range(4):
        store.insert_key(f"k{i}")
    subset = store.export_items(keys=[b"k1".ljust(16, b"\x00"), b"k3".ljust(16, b"\x00")])
    assert len(subset) == 2


def test_keys_listing():
    store = make_store()
    store.insert_key("a")
    store.insert_key("b")
    assert len(list(store.keys())) == 2





def test_each_switch_charges_137_bytes_per_slot_and_the_budget_binds():
    """Per-switch SRAM is Fig. 3's layout: 8 x 16 value bytes, a 2-byte
    length, 4-byte seq, 2-byte session and a valid byte per slot -- on every
    member switch of a built cluster, and against the switch's budget."""
    deployment = build_deployment(DeploymentSpec(backend="netchain", store_size=8, seed=1))
    controller = deployment.cluster.controller
    slots = controller.config.store_slots
    for name in controller.members:
        assert controller.programs[name].switch.registers.allocated_bytes() == slots * 137
    deployment.teardown()
    make_store(slots=1024, sram=1024 * 137)  # exactly fits
    with pytest.raises(RegisterAllocationError):
        make_store(slots=1024, sram=1024 * 137 - 1)
