"""Unit tests for the per-switch key-value storage (Figure 3)."""

from __future__ import annotations

import pytest

from repro.core.kvstore import KVStoreConfig, StoreFullError, SwitchKVStore, ValueTooLargeError
from repro.netsim.engine import Simulator
from repro.netsim.switch import Switch, SwitchConfig


def make_store(slots=64, stages=8, stage_bytes=16, sram=None, allow_recirculation=False):
    switch = Switch(Simulator(), "S0", "10.0.0.1",
                    config=SwitchConfig(value_stages=stages, stage_value_bytes=stage_bytes,
                                        sram_bytes=sram))
    return SwitchKVStore(switch, config=KVStoreConfig(slots=slots,
                                                      allow_recirculation=allow_recirculation))


def test_insert_and_lookup():
    store = make_store()
    loc = store.insert_key("alpha")
    assert store.lookup("alpha") == loc
    assert store.lookup("beta") is None
    assert store.used_slots() == 1
    assert store.free_slots() == 63


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


def test_value_striped_across_stages():
    store = make_store(stages=8, stage_bytes=16)
    loc = store.insert_key("k")
    value = bytes(range(100))
    store.write_loc(loc, value, seq=1)
    # The raw stage arrays hold 16-byte chunks.
    assert store._stages[0].read(loc) == value[:16]
    assert store._stages[5].read(loc) == value[80:96]
    assert store._stages[6].read(loc) == value[96:100]
    assert store.read_loc(loc).value == value


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
    store = make_store(stages=2, stage_bytes=16)
    loc = store.insert_key("k")
    with pytest.raises(ValueTooLargeError):
        store.write_loc(loc, bytes(33), seq=1)
    assert store.max_value_bytes() == 32


def test_recirculation_gate():
    # One pass covers 32 bytes; a 40-byte value needs recirculation.
    no_recirc = make_store(stages=8, stage_bytes=16)
    no_recirc.switch.config.value_stages = 2
    assert no_recirc.switch.max_value_bytes_per_pass() == 32
    loc = no_recirc.insert_key("k")
    with pytest.raises(ValueTooLargeError):
        no_recirc.write_loc(loc, bytes(40), seq=1)

    allowed = make_store(stages=8, stage_bytes=16, allow_recirculation=True)
    allowed.switch.config.value_stages = 2
    loc = allowed.insert_key("k")
    allowed.write_loc(loc, bytes(40), seq=1)
    assert allowed.read_loc(loc).value == bytes(40)


def test_passes_required():
    store = make_store(stages=8, stage_bytes=16)
    assert store.passes_required(64) == 1
    assert store.passes_required(128) == 1
    assert store.passes_required(129) == 2
    assert store.passes_required(400) == 4


def test_sram_accounting_matches_prototype_sizing():
    # Section 7: 64K slots x 16 bytes x 8 stages = 8 MB of value storage.
    store = make_store(slots=65536, stages=8, stage_bytes=16)
    value_bytes = sum(array.size_bytes() for array in store._stages)
    assert value_bytes == 8 * 1024 * 1024
    assert store.sram_bytes_used() >= value_bytes


def test_sram_budget_enforced_for_oversized_store():
    from repro.netsim.registers import RegisterAllocationError
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


def test_equal_value_rewrite_keeps_the_stripes_and_a_new_value_restripes():
    """``write_loc`` restripes the stage arrays only for a value that differs
    from the stored one; the version registers are written either way."""
    store = make_store(stages=8, stage_bytes=16)
    loc = store.insert_key("k")
    value = bytes(range(100))
    store.write_loc(loc, value, seq=1)
    store.write_loc(loc, bytes(range(100)), seq=2, session=3, valid=False)
    assert [stage.read(loc) for stage in store._stages] == [
        value[:16], value[16:32], value[32:48], value[48:64], value[64:80],
        value[80:96], value[96:100], b""]
    assert store._vlen.read(loc) == 100
    item = store.read_loc(loc)
    assert (item.value, item.seq, item.session, item.valid) == (value, 2, 3, False)
    assert store.load_loc(loc) == (value, 2, 3, False)
    shorter = bytes(range(50, 70))
    store.write_loc(loc, shorter, seq=3)
    assert [stage.read(loc) for stage in store._stages] == [
        shorter[:16], shorter[16:20]] + [b""] * 6
    assert store._vlen.read(loc) == 20
    assert store.load_loc(loc) == (shorter, 3, 0, True)


def test_size_checks_come_before_the_equal_value_shortcut():
    """Both limits are enforced whatever is stored, even an equal value."""
    store = make_store(stages=8, stage_bytes=16, allow_recirculation=True)
    loc = store.insert_key("k")
    value = bytes(40)
    store.write_loc(loc, value, seq=1)
    store.config.allow_recirculation = False
    store.switch.config.value_stages = 2  # one pass now carries 32 bytes
    with pytest.raises(ValueTooLargeError, match="recirculation"):
        store.write_loc(loc, value, seq=2)
    store.num_stages = 2  # and the pipeline limit is 32 bytes
    with pytest.raises(ValueTooLargeError, match="pipeline limit"):
        store.write_loc(loc, value, seq=2)
    assert store.load_loc(loc) == (value, 1, 0, True)
