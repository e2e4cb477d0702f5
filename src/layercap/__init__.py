"""Capacity-region outer bounds for two-user layered erasure interference
channels with receiver-only channel knowledge.

Everything region-shaped is computed in exact rational arithmetic; the
oracles module cross-checks the exact level statistics against Monte Carlo
estimates from sampled fading levels.
"""

from .bounds import (
    FAMILIES,
    WeightedBound,
    active_bounds,
    bound_a,
    bound_b,
    bound_c,
    critical_weights,
    family_bounds,
    family_region,
    grid_bounds,
    outer_halfplanes,
    outer_region,
)
from .channel import (
    ChannelSpec,
    FadingPmf,
    LayerCoefficients,
    as_fraction,
    diff_tail,
    expect,
    expect_max,
    expect_pos_diff,
    layer_coefficients,
    pos_diff_pmf,
    swap_users,
    tail,
)
from .corpus import (
    examples,
    mixed_example,
    random_moderate_spec,
    random_pmf,
    random_spec,
    random_strong_spec,
    random_weak_spec,
    symmetric_bernoulli,
)
from .deterministic import DetChannel, RecoveryReport, det_region, verify_recovery
from .geometry import (
    HalfPlane,
    RegionPolytope,
    UnboundedRegionError,
    intersect,
)
from .oracles import (
    CouplingReport,
    MCStatsReport,
    SimConfig,
    coupling_check,
    dominated,
    exact_stats,
    mc_estimate_stats,
    prob_sandwich,
)
from .regimes import (
    CornerAllocation,
    RegimeReport,
    SymmetricQ1Report,
    classify,
    moderate_bounds,
    strong_region,
    symmetric_q1_region,
    weak_corner,
    weak_region,
    weak_sum_capacity,
)
from .verification import SUITES, SuiteResult

__version__ = "0.1.0"
