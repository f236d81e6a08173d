"""Solvers for the minimum L-bounded s-t cut problem.

An L-bounded cut is a set of edges (or vertices) whose removal leaves no
s-t path with at most L edges.  The package provides an exact
treewidth-parameterized solver (prune + CSP encoding + tree-decomposition
DP), a width-factor approximation for vertex cuts with a certified lower
bound, brute-force oracles, and a CLI.
"""

from .approx import ApproxResult, TraceEvent, approx_auto, approx_vertex_cut
from .csp import (Assignment, Constraint, CspInstance, CspSolution,
                  constraint_graph, cut_to_assignment, decode_edge,
                  decode_vertex, encode_edge_cut, encode_vertex_cut,
                  violated_soft_count)
from .dp import solve_exact_cut, solve_min_csp
from .errors import (BudgetExceeded, DecompositionMismatch, GraphError,
                     InvalidAssignment, InvalidCut, InvalidDecomposition,
                     LbcutError, NoVertexCut, ParseError, ResourceExceeded,
                     UsageError)
from .fpt import PruneResult, prune_to_relevant, solve_fpt
from .graph import (CutSet, DistanceVector, Graph, Instance, Variant,
                    VerifyResult, bfs_distances, hop_distance, min_edge_cut,
                    min_vertex_cut, remove, verify_cut)
from .io import generate, load_instance, parse_instance, write_instance
from .oracle import (UNKNOWN, Unknown, brute_force_cut, brute_force_csp,
                     enumerate_short_paths)
from .treedec import (Strategy, SubtreeSplit, TreeDecomposition,
                      ValidationResult, build_heuristic, prune_decomposition,
                      read_td, rooted_at, split_at, subtree_vertex_sets,
                      validate, width, write_td)

__version__ = "0.1.0"
