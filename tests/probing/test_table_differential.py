"""Differential: the array-backed neighbor table against a dict table.

Hypothesis draws random sequences of resolve / get / drop calls on a
small id space (so refreshes, repeats and budget evictions are common)
with the clock moving forward (so entries expire), and replays each on
:class:`~repro.probing.neighbors.NeighborTable` and on the dict-backed
reference in ``dict_table.py``.  After every step both must hold the
same entries in the same order; every return value must agree too.
"""

from hypothesis import given, settings, strategies as st

from repro.probing.neighbors import NeighborTable

from tests.probing.dict_table import DictNeighborTable

PIDS = st.integers(0, 14)
TRIPLE = st.tuples(PIDS, st.integers(1, 4), st.booleans())

OPS = st.one_of(
    st.tuples(st.just("resolve"), st.lists(TRIPLE, max_size=12),
              st.sampled_from([0.5, 2.0, 5.0])),
    st.tuples(st.just("get"), PIDS),
    st.tuples(st.just("drop"), PIDS),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
)


def _state(table):
    return [(e.peer_id, e.hop, e.direct, e.expires_at) for e in table.entries()]


@settings(max_examples=300)
@given(budget=st.integers(0, 8), ops=st.lists(OPS, max_size=40))
def test_array_table_matches_dict_table(budget, ops):
    fast, ref = NeighborTable(budget), DictNeighborTable(budget)
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "resolve":
            _, triples, ttl = op
            assert fast.resolve(triples, now, ttl) == ref.resolve(
                triples, now, ttl
            )
        elif kind == "get":
            a, b = fast.get(op[1], now), ref.get(op[1], now)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.peer_id, a.hop, a.direct, a.expires_at) == (
                    b.peer_id, b.hop, b.direct, b.expires_at
                )
        elif kind == "drop":
            fast.drop(op[1])
            ref.drop(op[1])
        else:
            now += op[1]
        assert _state(fast) == _state(ref)
        assert len(fast) == len(ref)
        assert fast.active_ids(now) == ref.active_ids(now)
        for pid in range(15):
            assert (pid in fast) == (pid in ref)
