"""Property tests of the flow route against the enumeration oracle, on
hypergraphs drawn by hypothesis.  Skipped when hypothesis is missing."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperconn import (  # noqa: E402
    Hypergraph,
    edge_connectivity,
    edge_connectivity_oracle,
    st_edge_connectivity,
)

@st.composite
def hypergraphs(draw):
    """Small hypergraphs, multi-edges allowed, connected or not."""
    n = draw(st.integers(2, 9))
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=min(n, 4))
    edges = draw(st.lists(edge, max_size=14))
    return Hypergraph(n, tuple(tuple(e) for e in edges))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hypergraphs())
def test_flow_value_matches_oracle(H):
    assert edge_connectivity(H).value == edge_connectivity_oracle(H).value


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3000), st.data())
def test_st_flow_on_deep_paths(n, data):
    s = data.draw(st.integers(0, n - 2))
    t = data.draw(st.integers(s + 1, n - 1))
    path = Hypergraph(n, tuple((v, v + 1) for v in range(n - 1)))
    cut = st_edge_connectivity(path, s, t)
    assert cut.value == 1
    assert cut.side == tuple(range(s + 1))
    assert cut.cut_edges == (s,)
