"""Phase-sampled simulation (LoopPoint/SimPoint-style, §perf).

Iterative benchmarks spend their wall-clock re-executing near-identical
iterations.  This package fingerprints each host-loop iteration (a *phase*)
from the launch/transfer stream and the profiler's atomic charges, clusters
phases (greedy signature grouping, k-means for the report), executes one
representative per cluster, and extrapolates the rest — unlocking ``large``
benchmark sizes at a fraction of full-execution cost while keeping modeled
time, transfer bytes, and coherence findings within declared error bounds
(exact for signature-identical clusters).

Off by default: behavior is bit-identical to an unsampled build unless
``ToolchainContext.sampling`` carries a :class:`SamplingConfig`.
"""

from repro.errors import (  # noqa: F401  (re-exported typed surface)
    ExtrapolationBoundError,
    SamplingConflictError,
    SamplingError,
)
from repro.sampling.cluster import GroupTable, PhaseGroup, kmeans
from repro.sampling.config import SamplingConfig, require_unsampled
from repro.sampling.extrapolate import (
    EXACT_REL_TOL,
    check_bound,
    relative_error,
)
from repro.sampling.fingerprint import (
    OpenPhase,
    PhaseFingerprint,
    relative_distance,
)
from repro.sampling.sampler import (
    CountedLoop,
    LoopController,
    PhaseSampler,
    analyze_counted_loop,
    remaining_trips,
)

__all__ = [
    "SamplingConfig",
    "require_unsampled",
    "PhaseSampler",
    "LoopController",
    "CountedLoop",
    "analyze_counted_loop",
    "remaining_trips",
    "GroupTable",
    "PhaseGroup",
    "kmeans",
    "PhaseFingerprint",
    "OpenPhase",
    "relative_distance",
    "check_bound",
    "relative_error",
    "EXACT_REL_TOL",
    "SamplingError",
    "SamplingConflictError",
    "ExtrapolationBoundError",
]
