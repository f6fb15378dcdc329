"""Exact combinatorial toolkit: rainbow matchings, tripartite hypergraph
matching numbers, the edge deletion/explosion game, and independence-complex
homology, with generators for the extremal constructions and a theorem /
conjecture verification harness."""

__version__ = "0.1.0"

from .errors import BudgetExceededError, ConstructionError, InfeasibleScopeError
from .game import canonical_graph_key, line_graph, psi
from .homology import (
    BettiVector,
    SimplicialComplex,
    betti,
    eta_homological,
    euler_characteristic_check,
    graph_eta,
    independence_complex,
)
from .solver import (
    SolveResult,
    find_bounded_diagonal,
    find_independent_transversal,
    find_rainbow_matching,
    max_matching_size,
)
from .structures import (
    INFINITY,
    BipartiteGraph,
    Graph,
    LatinSquare,
    Matching,
    MatchingFamily,
    PartitionedGraph,
    TriHypergraph,
    degree,
    family_to_hypergraph,
    is_p_simple,
    latin_to_hypergraph,
)

__all__ = [
    "BudgetExceededError",
    "ConstructionError",
    "InfeasibleScopeError",
    "canonical_graph_key",
    "line_graph",
    "psi",
    "BettiVector",
    "SimplicialComplex",
    "betti",
    "eta_homological",
    "euler_characteristic_check",
    "graph_eta",
    "independence_complex",
    "SolveResult",
    "find_bounded_diagonal",
    "find_independent_transversal",
    "find_rainbow_matching",
    "max_matching_size",
    "INFINITY",
    "BipartiteGraph",
    "Graph",
    "LatinSquare",
    "Matching",
    "MatchingFamily",
    "PartitionedGraph",
    "TriHypergraph",
    "degree",
    "family_to_hypergraph",
    "is_p_simple",
    "latin_to_hypergraph",
    "__version__",
]
