"""corrmatch: correlated random graph pairs, shuffling, graph matching,
mutual information, and the downstream inference experiments."""

from .graphs import (
    BlockPartition,
    apply_permutation,
    as_adjacency,
    edge_disagreements,
    empty_graph,
    fixed_error_counts,
    gm_objective,
    graph_from_edges,
    identity_permutation,
    invert_permutation,
    max_degree,
    read_edgelist,
    read_labels,
    sample_edge_correlation,
    spectral_norm,
    trace_objective,
    transposition,
    transposition_delta,
    triangle_count,
    write_edgelist,
    write_labels,
)
from .samplers import (
    HeterogeneousPair,
    RngStream,
    SbmParams,
    anomaly_perturb,
    er_params,
    max_feasible_correlation,
    sample_block_permutation,
    sample_correlated_heterogeneous,
    sample_dirichlet_positions,
    sample_rho_sbm,
    sample_subset_shuffle,
    sample_uniform_permutation,
)
from .information import (
    bernoulli_pair_mi,
    binary_entropy,
    block_pair_counts,
    brute_force_pair_mi,
    mi_small_rho_ratio,
    rho_sbm_mi,
    sbm_entropy,
)
from .matching import (
    MatchResult,
    faq_match,
    identity_seeds,
    read_permutation,
    read_seeds,
    sgm_match,
    solve_lap,
    transposition_sweep,
    write_permutation,
)
from .embedding import (
    ase,
    omnibus,
    procrustes_align,
    scree_elbow,
    t1_semipar,
    t2_omni,
)
from .clustering import (
    GmmModel,
    ari,
    cluster_gain_experiment,
    cluster_real_experiment,
    fit_gmm,
    joint_cluster,
    shuffle_cluster_experiment,
    single_cluster,
)
from .inference import (
    PHASE_RHO_GRID,
    three_block_params,
    invariant_stat,
    paired_z,
    phase_transition_experiment,
    pooled_z,
    power_er_experiment,
    power_omni_experiment,
)

__version__ = "0.1.0"
