"""The exact probability pieces of the microcanonical block model, and the
identity that glues them together.

A labeled multigraph is scored as: (pairings giving this graph) /
(pairings allowed by the group edge counts), times a prior on labeled
degrees, times a prior on the group edge-count matrix. Integrating the
Poisson rates against noninformative priors gives the same number in closed
form.
"""
import numpy as np

from topicblocks import (
    CountTables,
    LabeledGraph,
    count_partitions,
    joint_logp,
    logp_degrees_flat,
    logp_edge_matrix_geometric,
    logp_graph_given_ke,
    logp_marginal_flat,
)
from topicblocks.graph import state_from_label_arrays

## Three nodes, edges i-j and i-k, all half-edges in one group: exactly two
## of the three stub pairings produce this graph.
state = LabeledGraph(3, [0, 0], [1, 2], [0, 0], [0, 0], [1, 1], 1)
print("P(graph | degrees, edge counts) =", np.exp(logp_graph_given_ke(CountTables(state))))

## The closed-form marginal equals the three-factor microcanonical product.
rng = np.random.default_rng(3)
for omega_bar in (0.5, 1.0, 2.0):
    tables = CountTables(state)
    lhs = logp_marginal_flat(state, omega_bar)
    rhs = (logp_graph_given_ke(tables)
           + logp_degrees_flat(tables)
           + logp_edge_matrix_geometric(tables, omega_bar))
    print(f"omega_bar={omega_bar}: closed form {lhs:.6f} == product {rhs:.6f}")

## Restricted integer partitions drive the degree-histogram priors.
print("partitions of 7 into exactly 3 parts:", count_partitions(7, 3))

## The full joint of a labeled bipartite state, with its term breakdown.
st = state_from_label_arrays(
    n_docs=2, n_words=3,
    d=[0, 0, 1, 1], w=[0, 1, 1, 2],
    r_doc=[0, 0, 1, 1], r_word=[2, 2, 3, 3],
    counts=[2, 1, 1, 3],
    n_groups=4, group_side=np.array([0, 0, 1, 1]),
)
score = joint_logp(st)
print("description length:", round(score.sigma_nats, 3), "nats")
for term, value in score.breakdown.items():
    print(f"  {term:12s} {value:8.3f}")
