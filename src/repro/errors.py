"""Exception hierarchy for the repro package.

Every error raised by the toolchain derives from :class:`ReproError` so that
callers can catch toolchain failures without accidentally swallowing Python
programming errors.  The hierarchy mirrors the pipeline stages: lexing /
parsing, directive handling, semantic analysis, device simulation, runtime,
and verification.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro toolchain."""


class SourceError(ReproError):
    """An error attributable to a location in the input source program."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}:{col}: {message}"
        super().__init__(message)


class LexError(SourceError):
    """Tokenizer failure (unknown character, bad literal, ...)."""


class ParseError(SourceError):
    """Parser failure (unexpected token, malformed declaration, ...)."""


class PragmaError(SourceError):
    """Malformed or unknown ``#pragma acc`` directive or clause."""


class SemanticError(SourceError):
    """Semantic violation (undeclared variable, type mismatch, illegal
    directive placement, ...)."""


class CompileError(ReproError):
    """Failure inside a compiler pass (kernel generation, demotion, ...)."""


class DeviceError(ReproError):
    """Simulated-device fault (bad address, double free, launch failure)."""


class DeviceMemoryError(DeviceError):
    """Device allocator fault: out of memory, bad free, bad address."""


class WatchdogTimeout(DeviceError):
    """A kernel exceeded its step budget: the execution-backend watchdog
    fired instead of letting the simulator hang (or, in the experiment
    harness, a benchmark exceeded its wall-clock budget)."""


class ChaosFault(DeviceError):
    """A fault injected by the runtime chaos framework
    (:mod:`repro.runtime.chaos`).  Always raised *before* the faulted
    operation mutates device state, so a caught ``ChaosFault`` can be
    retried or degraded against pristine memory."""

    def __init__(self, message: str, kind: str = "", site: str = "",
                 transient: bool = False):
        self.kind = kind
        self.site = site
        self.transient = transient
        super().__init__(message)


class TransientFault(ChaosFault):
    """A chaos fault marked transient: the runtime's retry-with-backoff
    layer (:mod:`repro.runtime.accrt`) may re-issue the operation."""

    def __init__(self, message: str, kind: str = "", site: str = ""):
        super().__init__(message, kind=kind, site=site, transient=True)


class TransferCorruptionError(DeviceError):
    """Post-transfer verification found the destination differing from the
    source after the retry budget was exhausted."""


class RuntimeFault(ReproError):
    """Fault raised by the OpenACC runtime (present-table misuse, bad
    async queue id, update of data not present on the device, ...)."""


class InterpError(ReproError):
    """Host interpreter fault (unbound name, bad subscript, ...)."""


class SamplingError(ReproError):
    """Fault in the phase-sampled execution mode (:mod:`repro.sampling`)."""


class SamplingConflictError(SamplingError):
    """Sampling was requested together with a feature it is unsound under:
    chaos fault injection (whose stochastic draw sequence depends on every
    operation actually executing), delta transfers, or Figure 3's kernel
    verification (which compares real values)."""


class ExtrapolationBoundError(SamplingError):
    """An extrapolated quantity fell outside its declared per-cluster error
    bound.  Raised by the validation path (sampled-vs-full gates, property
    tests) instead of letting a silently-bad number propagate.

    ``quantity``/``expected``/``actual``/``bound`` carry the violated
    comparison for programmatic consumers."""

    def __init__(self, message: str, quantity: str = "",
                 expected: float = 0.0, actual: float = 0.0,
                 bound: float = 0.0):
        self.quantity = quantity
        self.expected = expected
        self.actual = actual
        self.bound = bound
        super().__init__(message)


class ServiceError(ReproError):
    """Fault in the toolchain service layer (:mod:`repro.service`):
    malformed request, unknown operation, or a daemon-side failure that is
    not attributable to the program being served."""


class ServiceProtocolError(ServiceError):
    """The request violates the wire protocol: not a JSON object, missing
    or unknown ``op``, bad field types, or disallowed arguments.  Always
    answered with a typed error payload — a protocol error must never tear
    down the connection or the daemon."""


class VerificationError(ReproError):
    """Raised when a verification run itself cannot proceed (NOT raised for
    detected program errors, which are reported as findings)."""


class ConvergenceError(VerificationError):
    """The interactive optimization loop failed to converge within the
    configured iteration limit.

    ``history`` carries one record per verification round — the findings
    count, the suggestions seen, the edits applied, and whether the round was
    reverted — so a non-converging loop is diagnosable from the exception
    alone."""

    def __init__(self, message: str, history=None):
        self.history = list(history or [])
        super().__init__(message)


# Coarse pipeline stage per error class, most-derived first (CLI one-line
# diagnostics and RunOutcome tagging).
_STAGES = (
    ("LexError", "lex"),
    ("ParseError", "parse"),
    ("PragmaError", "pragma"),
    ("SemanticError", "semantic"),
    ("CompileError", "compile"),
    ("WatchdogTimeout", "watchdog"),
    ("ChaosFault", "chaos"),
    ("TransferCorruptionError", "transfer"),
    ("DeviceMemoryError", "device-memory"),
    ("DeviceError", "device"),
    ("RuntimeFault", "runtime"),
    ("InterpError", "interp"),
    ("ExtrapolationBoundError", "sample"),
    ("SamplingError", "sample"),
    ("ServiceProtocolError", "service"),
    ("ServiceError", "service"),
    ("ConvergenceError", "optimize"),
    ("VerificationError", "verify"),
    ("ReproError", "toolchain"),
)


def error_stage(err: BaseException) -> str:
    """The pipeline stage an error belongs to (``'internal'`` for anything
    outside the :class:`ReproError` hierarchy)."""
    table = {globals()[name]: stage for name, stage in _STAGES}
    for cls in type(err).__mro__:
        stage = table.get(cls)
        if stage is not None:
            return stage
    return "internal"
