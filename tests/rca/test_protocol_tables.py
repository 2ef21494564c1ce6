"""The protocol's transition tables are built once per process and shared.

Every node of every machine builds a :class:`RegionProtocol`, so the
tables are memoised on what they are a pure function of: the two flags
and the reference implementations. These tests pin the sharing, the
immutability, and that patching a reference method (as the
fault-injection tests do) still reaches the next machine.
"""

import dataclasses

from repro.coherence.requests import RequestType
from repro.rca.protocol import RegionProtocol
from repro.rca.states import RegionState

TABLES = ("_response_table", "_external_table", "_local_table")


def tables(protocol):
    return tuple(getattr(protocol, name) for name in TABLES)


def test_equal_flags_share_the_same_table_objects():
    a = RegionProtocol(two_bit=True, self_invalidation=True)
    b = RegionProtocol(two_bit=True, self_invalidation=True)
    for mine, theirs in zip(tables(a), tables(b)):
        assert mine is theirs


def test_replace_with_transitions_shares_the_tables():
    plain = RegionProtocol()
    recording = dataclasses.replace(plain, transitions=object())
    for mine, theirs in zip(tables(plain), tables(recording)):
        assert mine is theirs


def test_each_flag_selects_its_own_tables():
    full = RegionProtocol()
    one_bit = RegionProtocol(two_bit=False)
    no_self_inv = RegionProtocol(self_invalidation=False)
    assert tables(full) != tables(one_bit)
    assert tables(full) != tables(no_self_inv)
    assert tables(one_bit) != tables(no_self_inv)


def test_tables_are_nested_tuples():
    def all_tuples(table):
        return isinstance(table, tuple) and all(
            all_tuples(row) for row in table if isinstance(row, (tuple, list))
        )

    for table in tables(RegionProtocol()):
        assert all_tuples(table)


def test_patched_reference_yields_fresh_tables_and_unpatch_restores(
        monkeypatch):
    original = tables(RegionProtocol())
    monkeypatch.setattr(
        RegionProtocol, "_after_external_request",
        lambda self, state, request, fills=None: state,
    )
    patched = RegionProtocol()
    assert patched._external_table is not original[1]
    # The mutation reaches the tabulated fast path.
    di = RegionState.DIRTY_INVALID
    assert patched.after_external_request(di, RequestType.READ) is di
    assert RegionProtocol(two_bit=False)._external_table is not original[1]
    monkeypatch.undo()
    restored = RegionProtocol()
    for mine, theirs in zip(tables(restored), original):
        assert mine is theirs
    assert restored.after_external_request(di, RequestType.READ) is not di
