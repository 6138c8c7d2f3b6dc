"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.kvstore import SwitchKVStore
from repro.core.protocol import NetChainHeader, OpCode, QueryStatus, header_key
from repro.core.ring import ConsistentHashRing
from repro.netsim.engine import Simulator
from repro.netsim.packet import int_to_ip, ip_to_int
from repro.netsim.stats import LatencyRecorder
from repro.netsim.switch import Switch, SwitchConfig


# --------------------------------------------------------------------- #
# Strategies.
# --------------------------------------------------------------------- #

keys = st.binary(min_size=1, max_size=16)
values = st.binary(min_size=0, max_size=128)
ip_ints = st.integers(min_value=0, max_value=2**32 - 1)


# --------------------------------------------------------------------- #
# Packet / protocol encoding.
# --------------------------------------------------------------------- #

@given(ip_ints)
def test_ip_conversion_roundtrip(value):
    assert ip_to_int(int_to_ip(value)) == value


@given(key=keys, value=values, seq=st.integers(0, 2**32 - 1),
       session=st.integers(0, 2**16 - 1), vgroup=st.integers(0, 2**16 - 1),
       chain=st.lists(ip_ints, max_size=4),
       cas=st.one_of(st.none(), st.binary(max_size=32)),
       op=st.sampled_from(list(OpCode)),
       status=st.sampled_from(list(QueryStatus)))
def test_header_wire_roundtrip_arbitrary_fields(key, value, seq, session, vgroup,
                                                chain, cas, op, status):
    header = NetChainHeader(op=op, key=header_key(key), value=value, seq=seq,
                            session=session, chain=[int_to_ip(i) for i in chain],
                            vgroup=vgroup, status=status, cas_expected=cas)
    decoded = NetChainHeader.from_bytes(header.to_bytes())
    assert decoded.op == header.op
    assert decoded.key == header.key
    assert decoded.value == header.value
    assert (decoded.session, decoded.seq) == (session, seq)
    assert decoded.chain == header.chain
    assert decoded.vgroup == vgroup
    assert decoded.status == status
    assert decoded.cas_expected == cas
    assert header.wire_size() == len(header.to_bytes())


# --------------------------------------------------------------------- #
# Consistent hashing.
# --------------------------------------------------------------------- #

@given(key=keys, replication=st.integers(1, 4))
@settings(max_examples=50)
def test_ring_chains_are_distinct_and_deterministic(key, replication):
    ring = ConsistentHashRing(["S0", "S1", "S2", "S3", "S4"], vnodes_per_switch=8,
                              replication=replication)
    chain = ring.chain_for_key(key)
    assert len(chain) == replication
    assert len(set(chain)) == replication
    assert chain == ring.chain_for_key(key)
    assert chain == ring.chain_for_vgroup(ring.vgroup_for_key(key), replication)


# --------------------------------------------------------------------- #
# Key-value storage.
# --------------------------------------------------------------------- #

def fresh_store(slots=32):
    switch = Switch(Simulator(), "S", "10.0.0.1", config=SwitchConfig())
    return SwitchKVStore(switch, slots=slots)


@given(key=keys, value=values, seq=st.integers(0, 2**31), session=st.integers(0, 2**15))
@settings(max_examples=100)
def test_kvstore_write_read_roundtrip(key, value, seq, session):
    store = fresh_store()
    loc = store.insert_key(key)
    store.write_loc(loc, value, seq=seq, session=session)
    item = store.read_loc(loc)
    assert item.value == value
    assert item.version() == (session, seq)


@given(st.lists(st.tuples(values, st.integers(1, 1000), st.integers(0, 3)),
                min_size=1, max_size=30))
@settings(max_examples=60)
def test_replica_version_filter_converges_to_max(writes):
    """Applying any interleaving of versioned writes with the replica rule
    (accept only newer versions) leaves the replica at the maximum version --
    the essence of the Section 4.3 ordering argument."""
    store = fresh_store()
    loc = store.insert_key("k")
    for value, seq, session in writes:
        stored = store.read_loc(loc)
        if (session, seq) > stored.version():
            store.write_loc(loc, value, seq=seq, session=session)
    final = store.read_loc(loc)
    max_version = max((session, seq) for _, seq, session in writes)
    assert final.version() == max_version
    # The stored value is the one carried by the first write (in arrival
    # order) that reached the maximal version; later equal-version writes
    # are not "newer" and are dropped.
    expected_value = next(value for value, seq, session in writes
                          if (session, seq) == max_version)
    assert final.value == expected_value


@given(st.lists(keys, min_size=1, max_size=32, unique=True))
@settings(max_examples=50)
def test_kvstore_slot_allocation_is_injective(key_list):
    store = fresh_store(slots=64)
    locations = [store.insert_key(key) for key in key_list]
    normalized = {header_key(key) for key in key_list}
    assert len(set(locations)) == len(normalized)


# --------------------------------------------------------------------- #
# Statistics helpers.
# --------------------------------------------------------------------- #

@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=1, max_size=200))
def test_percentiles_are_order_statistics(samples):
    recorder = LatencyRecorder()
    for sample in samples:
        recorder.record(sample)
    assert recorder.percentile(0) >= min(samples) - 1e-9
    assert recorder.percentile(100) == max(samples)
    assert min(samples) <= recorder.median() <= max(samples)
    assert recorder.mean() <= max(samples) + 1e-9
