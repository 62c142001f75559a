"""Configuration for phase-sampled execution.

A :class:`SamplingConfig` hangs off ``ToolchainContext.sampling`` (``None``
by default — sampling off, behavior bit-identical to an unsampled build).
It is a frozen dataclass so it hashes, pickles across the experiment
scheduler's process pool, and cannot drift mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SamplingConflictError

__all__ = ["SamplingConfig", "require_unsampled"]


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs for the phase sampler.

    ``warmup``
        Measured iterations required per loop *entry* before that entry may
        skip (re-entered inner loops keep their cluster history but still
        re-measure this many iterations as regime-change insurance).
    ``stability``
        Consecutive same-cluster phases required before the run is declared
        steady and the remaining trips are extrapolated.
    ``tolerance``
        Relative per-feature distance under which two structurally-identical
        phases join the same (near) cluster; doubles as the declared error
        bound for extrapolations from near clusters.  Signature-exact
        clusters declare a bound of ``0.0``.
    ``max_clusters``
        Cap on ``k`` for the report-side k-means summary.

    Sampling is a *modeling* mode: host loop bodies inside skipped
    iterations do not execute, so program outputs are not faithful — only
    modeled time, transfer bytes, counters, and coherence findings are.
    It is unsound combined with chaos fault injection (the interpreter
    raises :class:`repro.errors.SamplingConflictError`) and meaningless
    under the kernel verifier, which compares program outputs.
    """

    warmup: int = 1
    stability: int = 2
    tolerance: float = 0.05
    max_clusters: int = 8

    def __post_init__(self):
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")
        if self.stability < 1:
            raise ValueError("stability must be >= 1")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must be in (0, 1)")
        if self.max_clusters < 1:
            raise ValueError("max_clusters must be >= 1")


def require_unsampled(ctx, what: str) -> None:
    """Refuse phase sampling for ``what`` — an experiment whose columns
    compare real program values, which skipped host iterations leave
    different from a full run's.  Called before any job is scheduled."""
    if getattr(ctx, "sampling", None) is not None:
        raise SamplingConflictError(
            f"{what} cannot run with phase sampling: it compares real "
            "program values, and skipped host iterations leave them "
            "different from a full run's")
