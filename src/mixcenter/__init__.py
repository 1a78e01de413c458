"""Centers of completely and jointly mixable distributions.

Bounds and exact intervals for admissible centers, a transportation
feasibility oracle for discrete marginals, and constructive samplers
emitting n standard Cauchy variates with a prescribed constant sum.

``center_bounds`` and ``discrete_mix`` import scipy, so their names are
loaded on first use (PEP 562); the samplers, distributions and
verification load with numpy alone.
"""

from importlib import import_module as _import_module

from .cauchy_mix import (
    AdmissibilityResult,
    CauchyKernel,
    ConstructiveMixer,
    ConvexCombinationSampler,
    MixerConfig,
    ReflectedMixer,
    SampleBatch,
    SymmetricMixer,
    build_mixer,
    build_mixer_for_density,
    generic_admissibility,
)
from .distributions import (
    AtomUniform,
    Cauchy,
    CountableMixture,
    FiniteDiscrete,
    GenericDensity,
    Pareto,
    PowerTwoGeometric,
    Uniform,
    avg_quantile,
    cauchy_inverse_density,
    cauchy_quantile,
    model_from_spec,
    point_mass,
    quad_avg_quantile,
    reflect,
)
from .errors import ConstructionError, DomainError, QuadratureError, SizeError
from .rearrangement import discretize, ra_flatten, sample_rows
from .seeding import substream
from .verify import (
    COUPLING_INVARIANTS,
    MIXER_INVARIANTS,
    SYMMETRIC_MIXER_INVARIANTS,
    VerificationReport,
    ks_distance,
    ks_threshold,
    ks_two_sample,
    run_invariant_suite,
    sum_stats,
)

__version__ = "0.1.0"

_LAZY = {
    "center_bounds": (
        "CenterInterval",
        "CmBounds",
        "DualBoundResult",
        "JmBoundsInput",
        "cauchy_avg_quantile_upper",
        "cauchy_center_interval",
        "cm_bounds",
        "dual_bound",
        "infinite_mean_classifier",
        "jm_center_bounds",
        "mean_inequality_holds",
    ),
    "discrete_mix": (
        "CenterSet",
        "Coupling",
        "FeasibilityResult",
        "enumerate_centers",
        "exchangeable_permute",
        "feasible_center",
        "zero_one_couplings",
    ),
}
# exported name -> the module that defines it (a module name maps to itself)
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY_HOME))


def __getattr__(name):
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_HOME))
