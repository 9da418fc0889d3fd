"""Topic modeling on bipartite word-document multigraphs.

Corpora are represented as multigraphs whose edges carry group labels on
both half-edges; hierarchical overlapping block structure is inferred by
maximizing an exact joint probability, and models are selected by comparing
description lengths in nats against collapsed-Dirichlet baselines.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    Document,
    Vocabulary,
    build_corpus,
    fit_heaps_exponent,
    heaps_curve,
    rank_frequency,
    read_corpus_tsv,
    read_jsonl,
    tokenize,
    write_corpus_tsv,
)
from .graph import (
    BipartiteMultigraph,
    LabeledGraph,
    MixedMembershipParams,
    derive_counts,
    from_counts,
    plsi_to_sbm_params,
    poisson_bundle_loglik,
    poisson_sbm_loglik,
)
from .lda import (
    DirichletHyper,
    LabeledCounts,
    LdaParams,
    LdaSample,
    double_power_law_base,
    harmonic_base,
    lda_description_length,
    lda_marginal_loglik,
    make_hyper,
    noninformative_hyper,
    plsi_loglik,
    sample_corpus,
    sample_mixture_corpus,
)
from .microcanonical import (
    CountTables,
    Hierarchy,
    compress_groups,
    joint_logp,
    logp_degrees_flat,
    logp_edge_matrix_geometric,
    logp_graph_given_ke,
    logp_hierarchy,
    logp_marginal_flat,
)
from .partition_counts import count_partitions, log_partitions
from .inference import (
    FitResult,
    InferenceConfig,
    NonoverlappingAgglomerator,
    fit,
    fit_doc_anchored,
    fixed_label_score,
    grow_hierarchy,
    labels_to_state,
    refine_doc_clusters,
)
from .evaluation import (
    ComparisonTable,
    adjusted_rand_index,
    bayes_factor,
    compare_models,
    dissemination,
    dissemination_all,
    group_summaries,
    simplex_mode_count,
    topic_mixtures,
)
from .scores import ModelScore
