"""Fault injection's interplay with the other runtime features.

Chaos refuses to compose with phase-sampled execution: a sampled run skips
iterations, so a fault injected inside it could not be told apart from the
skipped work, and the combination raises a typed conflict before anything
runs.
"""

import pytest

from repro.bench import suite
from repro.errors import SamplingConflictError
from repro.experiments.harness import run_variant
from repro.runtime.chaos import FaultSpec
from repro.sampling import SamplingConfig
from repro.toolchain import ToolchainContext


class TestSamplingConflicts:
    """Chaos plus sampling raises a typed conflict."""

    def test_chaos_conflicts_with_sampling(self):
        ctx = ToolchainContext()
        ctx.sampling = SamplingConfig()
        with pytest.raises(SamplingConflictError):
            run_variant(suite.get("JACOBI"), "unoptimized", size="tiny",
                        seed=1, chaos=FaultSpec(rates={"transfer": 0.5}),
                        ctx=ctx)
