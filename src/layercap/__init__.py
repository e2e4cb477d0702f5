"""Capacity-region outer bounds for two-user layered erasure interference
channels with receiver-only channel knowledge.

Everything region-shaped is computed in exact rational arithmetic.  The
package exports the region and classification API of the channel, geometry,
bounds and regimes modules; the example corpus, the deterministic recovery
check, the Monte Carlo and coupling oracles and the verification suites are
imported from layercap.corpus, .deterministic, .oracles and .verification,
so computing a region loads none of them.
"""

from .bounds import (
    FAMILIES,
    WeightedBound,
    active_bounds,
    bound_a,
    bound_b,
    bound_c,
    critical_weights,
    family_region,
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
from .geometry import (
    HalfPlane,
    RegionPolytope,
    UnboundedRegionError,
    intersect,
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

__version__ = "0.1.0"
