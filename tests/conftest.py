import gc

import pytest

from trimatch.errors import BudgetExceededError
from trimatch.game import canonical_graph_key
from trimatch.structures import Graph


@pytest.fixture
def graph_key():
    """canonical_graph_key of the graph on 0..n-1 with the given edges."""

    def key(n, edges):
        return canonical_graph_key(Graph(n, edges).adj)

    return key


@pytest.fixture
def left_to_collector():
    """The number of objects that calls leave in reference cycles: what
    `gc.collect()` finds after them with the collector off.  A call that
    raises BudgetExceededError counts like one that returns.

    Cycles are counted, not bytes: a tracemalloc reading also counts the
    interpreter's tuple free list, which grows by a few KB per round of
    psi_oracle or independence_complex calls that leave no cycle."""

    def count(calls):
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                try:
                    call()
                except BudgetExceededError:
                    pass
            return gc.collect()
        finally:
            gc.enable()

    return count
