"""Centers of completely and jointly mixable distributions.

Bounds and exact intervals for admissible centers, a transportation
feasibility oracle for discrete marginals, and constructive samplers
emitting n standard Cauchy variates with a prescribed constant sum.

Every module loads with numpy alone: scipy is imported only inside the
functions that call it, so the samplers and verification never load it.
"""

from .cauchy_mix import (
    ConstructiveMixer,
    ConvexCombinationSampler,
    ExplicitMixer,
    MixerConfig,
    ReflectedMixer,
    SampleBatch,
    build_mixer,
)
from .center_bounds import (
    CenterInterval,
    CmBounds,
    DualBoundResult,
    JmBoundsInput,
    cauchy_avg_quantile_upper,
    cauchy_center_interval,
    cm_bounds,
    dual_bound,
    infinite_mean_classifier,
    jm_center_bounds,
    mean_inequality_holds,
)
from .discrete_mix import (
    CenterSet,
    Coupling,
    FeasibilityResult,
    enumerate_centers,
    exchangeable_permute,
    feasible_center,
    zero_one_couplings,
)
from .distributions import (
    AdmissibilityResult,
    AtomUniform,
    Cauchy,
    CountableMixture,
    FiniteDiscrete,
    GenericDensity,
    Pareto,
    PowerTwoGeometric,
    Uniform,
    avg_quantile,
    cauchy_quantile,
    generic_admissibility,
    model_from_spec,
    point_mass,
    quad_avg_quantile,
    reflect,
)
from .errors import ConstructionError, DomainError, QuadratureError, SizeError
from .rearrangement import discretize, ra_flatten
from .seeding import substream
from .verify import (
    COUPLING_INVARIANTS,
    EXPLICIT_MIXER_INVARIANTS,
    MIXER_INVARIANTS,
    ks_distance,
    ks_threshold,
    ks_two_sample,
    max_pairwise_ks,
    run_invariant_suite,
    sum_stats,
)

__version__ = "0.1.0"

__all__ = sorted(name for name in globals() if not name.startswith("_"))
