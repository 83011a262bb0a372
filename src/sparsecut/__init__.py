"""Small sparse cuts via lazy random walks.

A library for finding low-conductance vertex sets of bounded volume:
an exact-walk global search with a bicriteria guarantee, a sublinear-work
local search using mass-thresholded walks, and runnable certificates for
the curve and eigenvalue bounds that back them.
"""

from .graph import Cut, Graph, GraphFormatError, cut_of, load_edge_list, write_edge_list
from .walk import SparseDistribution, WalkSchedule, WalkTrace, lazy_step, run_walk, truncated_step
from .curve import (
    ChordViolation,
    Envelope,
    LSCurve,
    build_curve,
    check_chord_bound,
    envelope_value,
    evaluate,
)
from .spectral import (
    CertificateReport,
    CertificateViolation,
    ConvergenceError,
    LocalEigenpair,
    best_seed_vertex,
    certify_lower_bound,
    restricted_eigenpair,
)
from .partition import (
    GlobalParams,
    LocalParams,
    Origin,
    SweepOutcome,
    find_local_seed,
    global_sparsest_cut,
    global_sparsest_cut_tight_volume,
    local_partition,
    sweep,
    tight_volume_exponent,
)
from .generators import (
    PlantedInstance,
    barbell,
    complete,
    erdos_renyi,
    exact_phi_k,
    path,
    ring_of_cliques,
)

__version__ = "0.1.0"
