"""Counter-name registry completeness.

Two layers: the specific counters each subsystem is contracted to register
(the service cache tiers, the daemon request counters), and a source scan
proving no ``.count("...")`` call site or bare ``CTR_* = "..."`` declaration
anywhere in ``src/repro`` uses a name the registry does not know."""

import re
from pathlib import Path

from repro.obs.metrics import (
    is_registered_counter,
    registered_counter_prefixes,
    registered_counters,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# Call sites like profiler.count("bytes.h2d", n) / metrics.count(CTR_X) —
# only literal-string uses can be scanned; constants resolve via import.
_COUNT_CALL = re.compile(r"\.count\(\s*['\"]([a-z0-9_.]+)['\"]")
# Bare declarations: CTR_FOO = "some.name" (not register_counter("...")).
_BARE_CTR = re.compile(r"^CTR_\w+\s*=\s*['\"]([a-z0-9_.]+)['\"]\s*$",
                       re.MULTILINE)


def _ensure_subsystems_imported():
    """Import every module that registers counters at import time."""
    import repro.runtime.profiler  # noqa: F401
    import repro.service.cache  # noqa: F401
    import repro.service.daemon  # noqa: F401


class TestContractedCounters:
    def setup_method(self):
        _ensure_subsystems_imported()

    def test_cache_tier_counters_registered(self):
        for name in ("cache.tier.mem.hit", "cache.tier.mem.miss",
                     "cache.tier.disk.hit", "cache.tier.disk.miss"):
            assert is_registered_counter(name), name

    def test_service_counters_registered(self):
        assert is_registered_counter("service.requests")
        assert is_registered_counter("service.errors")

    def test_prefixes_cover_dynamic_families(self):
        # Dynamic per-site names (fault.<kind>, queue.<name>...) register
        # as prefixes; the exact set is the subsystems' contract.
        prefixes = registered_counter_prefixes()
        assert any(is_registered_counter(p + "anything") for p in prefixes)


class TestSourceScanCompleteness:
    def setup_method(self):
        _ensure_subsystems_imported()

    def _scan(self, pattern):
        found = {}
        for path in sorted(SRC.rglob("*.py")):
            for name in pattern.findall(path.read_text()):
                found.setdefault(name, path.relative_to(SRC))
        return found

    def test_every_literal_count_site_is_registered(self):
        unregistered = {
            name: str(path)
            for name, path in self._scan(_COUNT_CALL).items()
            if not is_registered_counter(name)
        }
        assert not unregistered, (
            f"counter name(s) used at .count() call sites but never "
            f"registered: {unregistered}")

    def test_every_bare_declaration_is_registered(self):
        unregistered = {
            name: str(path)
            for name, path in self._scan(_BARE_CTR).items()
            if not is_registered_counter(name)
        }
        assert not unregistered, (
            f"bare CTR_* declaration(s) bypassing register_counter: "
            f"{unregistered}")

    def test_registry_is_not_empty(self):
        assert len(registered_counters()) >= 10
