"""k-heights: bounded graph homomorphism heights, their Markov chains,
block couplings, divergence tables, exact sampling, and mixing bounds."""

from .bounds import (
    BoundInputs,
    beta_corollary,
    beta_exact,
    c_constant,
    family_report,
    marginal_bound,
    tau_bound,
)
from .chains import (
    BlockSampler,
    ChainState,
    make_chain,
    make_rng,
    run,
    step_block,
    step_updown,
)
from .coupling import (
    CoupledState,
    DominanceError,
    JointCoupling,
    cftp_sample,
    coupled_block_step,
    coupled_updown_step,
    coupling_time_estimate,
    path_decompose,
    strassen_joint,
)
from .divergence import DivergenceReport, block_divergence, expected_gap
from .enumeration import FillingStats, count_rect_extensible, filling_stats
from .graphs import (
    Block,
    BlockFamily,
    CaseTag,
    Graph,
    GraphError,
    boundary,
    hex_block_family,
    make_complete,
    make_toroidal_hex,
    make_toroidal_rect,
    rect_block_family,
    singleton_family,
)
from .heights import (
    BoundaryConstraint,
    CoverPair,
    KHeight,
    enumerate_heights,
    is_valid,
)
from .tables import (
    case_divergence,
    hex_divergence,
    rect_divergence,
    regular_aggregates,
    reproduce_table,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
