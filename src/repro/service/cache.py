"""Two-tier cross-request pass-result cache for the toolchain service.

The daemon serves near-identical compile/run/verify requests over and over
(the paper's Figure 2 loop, CI re-runs, many users poking the same
benchmark), so compilation results are cached at two tiers:

* **memory tier** — the daemon's single shared
  :class:`~repro.toolchain.CacheRegistry`.  Every request-scoped
  :class:`~repro.toolchain.ToolchainContext` points at it, so the existing
  pass-manager caches (whole-pipeline ``compile`` memo, ``parse`` tree
  cache, per-pass ``passes`` analysis cache — each keyed by AST fingerprint
  + pass name + the option subset that pass reads) become cross-request
  automatically.  Each named cache is a thread-safe LRU with an entry cap
  and a byte budget; evictions are counted (``cache.tier.mem.evict``).

* **disk tier** — a persistent directory of checksummed, versioned
  pickle envelopes (format :data:`CACHE_FORMAT`), written atomically
  (``tmp + fsync + os.replace``), so a reader never sees a torn entry.
  Entries are keyed by (source fingerprint, compiler-option key,
  toolchain version) and hold a fully-analyzed
  :class:`~repro.compiler.driver.CompiledProgram`, so a *fresh daemon* (or
  a repeated CI session) skips parse + every analysis pass and goes
  straight from bytes-on-disk to execution.

Key-safety: the envelope stores the complete key string, and ``get``
compares it against the requested key before accepting the entry — a
filename (truncated-hash) collision therefore degrades to a miss, never to
cross-contamination.  Checksum or format mismatches likewise read as
misses (counted separately) and the stale file is left for ``clear``.

Pickle fidelity: ``CompiledProgram.data_mem`` is keyed by ``id(directive)``
— meaningless across a pickle boundary — so entries are packed together
with their ``(directive, plan)`` pairs.  Pickle preserves object identity
within one blob, so after loading, the pairs' directive objects *are* the
nodes of the unpickled tree and the table can be rebuilt exactly.  The
daemon's equivalence gate (and ``tests/service``) verifies runs from
disk-tier programs are byte-identical to cold compiles.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from typing import Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.obs.metrics import register_counter
from repro.toolchain import ToolchainContext

__all__ = ["CACHE_FORMAT", "DiskTier", "ServiceCache", "compile_key"]

# Disk-entry envelope format tag; bump on any incompatible payload change.
CACHE_FORMAT = "repro.passcache/1"

# Counter names, declared against the obs counter-name registry like every
# other counter family (the registry-completeness test enforces this).
CTR_MEM_HIT = register_counter("cache.tier.mem.hit")
CTR_MEM_MISS = register_counter("cache.tier.mem.miss")
CTR_MEM_EVICT = register_counter("cache.tier.mem.evict")
CTR_DISK_HIT = register_counter("cache.tier.disk.hit")
CTR_DISK_MISS = register_counter("cache.tier.disk.miss")
CTR_DISK_EVICT = register_counter("cache.tier.disk.evict")
CTR_DISK_REJECTED = register_counter("cache.tier.disk.rejected")


def _options_key(options) -> Tuple:
    return tuple(sorted(options.__dict__.items()))


def compile_key(source: str, options) -> Tuple[str, Tuple]:
    """The (fingerprint, option-key) pair under which a compile of
    ``source`` is memoized — identical to the pass manager's key, so the
    memory tier is exactly the shared ``compile`` cache."""
    return (hashlib.sha256(source.encode()).hexdigest(), _options_key(options))


def _key_string(key: Tuple[str, Tuple]) -> str:
    """Stable, version-salted textual form of a compile key (the disk
    tier's logical key; also stored inside the envelope for verification)."""
    from repro import __version__

    return repr((CACHE_FORMAT, __version__, key))


def _pack_compiled(compiled) -> bytes:
    pairs = [(r.directive, compiled.data_mem.get(id(r.directive)))
             for r in compiled.regions.data]
    return pickle.dumps(("compiled", compiled, pairs),
                        protocol=pickle.HIGHEST_PROTOCOL)


def _unpack_compiled(payload: bytes):
    tag, compiled, pairs = pickle.loads(payload)
    if tag != "compiled":
        raise ServiceError(f"unexpected disk-cache payload tag {tag!r}")
    compiled.data_mem = {id(directive): plan for directive, plan in pairs
                         if plan is not None}
    return compiled


class DiskTier:
    """Persistent tier: one checksummed envelope file per entry."""

    SUFFIX = ".pc"

    def __init__(self, root: str, max_bytes: Optional[int] = None):
        self.root = root
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0       # checksum/format/key failures (read as miss)
        self._lock = threading.Lock()
        os.makedirs(root, exist_ok=True)

    def _path(self, key_string: str) -> str:
        name = hashlib.sha256(key_string.encode()).hexdigest()[:40]
        return os.path.join(self.root, name + self.SUFFIX)

    # -- reads --------------------------------------------------------------
    def get(self, key_string: str) -> Optional[bytes]:
        """The payload for ``key_string``, or None.  Every failure mode —
        missing file, unreadable pickle, wrong format version, checksum
        mismatch, key mismatch (filename collision) — is a miss."""
        path = self._path(key_string)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except OSError:
            self.misses += 1
            return None
        except Exception:
            # Unpickling arbitrary corruption raises a zoo of types
            # (UnpicklingError, EOFError, OverflowError, AttributeError...):
            # all of them mean "this entry is unusable", never "crash".
            self.rejected += 1
            self.misses += 1
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("format") != CACHE_FORMAT
                or envelope.get("key") != key_string):
            self.rejected += 1
            self.misses += 1
            return None
        payload = envelope.get("payload")
        if (not isinstance(payload, bytes)
                or hashlib.sha256(payload).hexdigest() != envelope.get("sha256")):
            self.rejected += 1
            self.misses += 1
            return None
        self.hits += 1
        # LRU-ish recency for the byte-budget sweep.
        try:
            os.utime(path, None)
        except OSError:
            pass
        return payload

    # -- writes -------------------------------------------------------------
    def put(self, key_string: str, payload: bytes) -> str:
        """Atomically persist one entry (tmp + fsync + ``os.replace``): a
        concurrent reader sees the old complete file or the new complete
        file, never a torn write."""
        path = self._path(key_string)
        envelope = {
            "format": CACHE_FORMAT,
            "key": key_string,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as err:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise ServiceError(
                f"cannot write pass-cache entry {path!r}: {err}") from err
        if self.max_bytes is not None:
            self._enforce_budget()
        return path

    def _enforce_budget(self) -> None:
        """Evict oldest-by-mtime entries until the directory fits."""
        with self._lock:
            entries = []
            total = 0
            for name in os.listdir(self.root):
                if not name.endswith(self.SUFFIX):
                    continue
                path = os.path.join(self.root, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, path))
                total += st.st_size
            entries.sort()
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                self.evictions += 1

    # -- maintenance ---------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        for name in os.listdir(self.root):
            if name.endswith(self.SUFFIX):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, int]:
        entries = 0
        nbytes = 0
        try:
            for name in os.listdir(self.root):
                if name.endswith(self.SUFFIX):
                    entries += 1
                    try:
                        nbytes += os.stat(os.path.join(self.root, name)).st_size
                    except OSError:
                        pass
        except OSError:
            pass
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "rejected": self.rejected,
                "entries": entries, "bytes_held": nbytes}


class ServiceCache:
    """The daemon's two-tier compile cache.

    ``registry`` is the shared memory tier (every request context points at
    it); ``disk`` is the optional persistent tier.  ``metrics``, when set,
    receives the ``cache.tier.{mem,disk}.{hit,miss,evict}`` counters.
    """

    def __init__(self, registry, disk: Optional[DiskTier] = None,
                 metrics=None):
        self.registry = registry
        self.disk = disk
        self.metrics = metrics
        if metrics is not None:
            registry.on_evict = (
                lambda _name, n: metrics.count(CTR_MEM_EVICT, n))

    def _count(self, name: str, delta: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, delta)

    def ensure_compiled(self, source: str, options,
                        ctx: ToolchainContext) -> Tuple[object, str]:
        """The compiled program for ``source``; returns ``(compiled,
        tier)`` where tier is ``"mem"``, ``"disk"``, or ``"cold"``.

        Resolution order: shared memory tier → persistent disk tier
        (promoted into memory on hit) → cold compile through ``ctx``'s pass
        manager (persisted to disk).  ``ctx.caches`` must be the shared
        registry, so a cold compile lands in the memory tier as a side
        effect of normal pass-manager caching.
        """
        key = compile_key(source, options)
        mem = self.registry.get("compile")
        compiled = mem.peek(key)
        if compiled is not None:
            self._count(CTR_MEM_HIT)
            return compiled, "mem"
        self._count(CTR_MEM_MISS)

        key_string = _key_string(key)
        if self.disk is not None:
            payload = self.disk.get(key_string)
            if payload is not None:
                # A concurrent cold compile lands in memory before it
                # persists, so a disk hit racing one finds the entry there
                # too: serve it rather than unpickling a duplicate.
                compiled = mem.peek(key)
                if compiled is not None:
                    return compiled, "mem"
                try:
                    compiled = _unpack_compiled(payload)
                except Exception:
                    # Unpicklable under this build (e.g. written by a newer
                    # tree): treat as a miss and recompile.
                    self.disk.rejected += 1
                    self._count(CTR_DISK_REJECTED)
                else:
                    self._count(CTR_DISK_HIT)
                    mem.put(key, compiled, cost=len(payload))
                    return compiled, "disk"
            if payload is None:
                self._count(CTR_DISK_MISS)

        compiled = ctx.passes.compile_source(source, options)
        if self.disk is not None:
            payload = _pack_compiled(compiled)
            self.disk.put(key_string, payload)
            # Refresh the memory entry's cost with the true pickled size.
            mem.put(key, compiled, cost=len(payload))
        return compiled, "cold"

    def warm(self, source: str, options, ctx: ToolchainContext) -> str:
        """Pre-populate both tiers for ``source``; returns the tier that
        already held it (``"mem"``/``"disk"``) or ``"cold"`` if compiled."""
        if self.disk is None:
            raise ServiceError("cache warm requires a persistent cache dir")
        _, tier = self.ensure_compiled(source, options, ctx)
        if tier == "mem":
            # Memory-resident but possibly missing on disk (e.g. disk tier
            # cleared since): make the persistent entry exist regardless.
            key = compile_key(source, options)
            key_string = _key_string(key)
            if self.disk.get(key_string) is None:
                compiled = self.registry.get("compile").peek(key)
                self.disk.put(key_string, _pack_compiled(compiled))
        return tier

    def clear(self, tier: str = "all") -> Dict[str, int]:
        """Clear one or both tiers; returns per-tier removal counts."""
        removed = {"mem": 0, "disk": 0}
        if tier in ("mem", "all"):
            for name in self.registry.names():
                cache = self.registry.get(name)
                removed["mem"] += len(cache)
                cache.clear()
        if tier in ("disk", "all") and self.disk is not None:
            removed["disk"] = self.disk.clear()
        return removed

    def stats(self) -> Dict[str, object]:
        return {
            "mem": self.registry.stats(),
            "disk": self.disk.stats() if self.disk is not None else None,
        }
