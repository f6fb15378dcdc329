import pytest

from trimatch.game import canonical_graph_key
from trimatch.structures import Graph


@pytest.fixture
def graph_key():
    """canonical_graph_key of the graph on 0..n-1 with the given edges."""

    def key(n, edges):
        return canonical_graph_key(Graph(n, edges).adj)

    return key
