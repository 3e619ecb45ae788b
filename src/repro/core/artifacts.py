"""Content-addressed artifact store for pipeline stage outputs.

Every stage output is addressed by a key that hashes the stage's own
identity (name + version), the configuration fields it reads, and the
keys of its upstream artifacts.  Two runs that share a prefix of the
stage graph therefore share the prefix's keys — and with a common store
the expensive work (training, characterization) happens exactly once.

The store has two layers:

* an in-memory dict, always on — repeated lookups within a process
  return the *same object* instantly;
* an optional persistent layer behind the :class:`StorageBackend`
  seam.  The built-in :class:`LocalDirStorage` keeps one pickle per
  key in a local directory (written atomically via rename), so
  separate processes and separate runs share artifacts.  Other
  backends (an object store for a multi-node worker fleet) plug in
  through :func:`register_storage_scheme` / :func:`storage_from_url`
  without the store — or any of its callers — changing; everything
  that today passes a ``cache_dir`` path can pass a
  ``scheme://bucket/prefix`` URL instead.

Membership is defined by *readability*: ``key in store`` is true
exactly when :meth:`ArtifactStore.get` would return the artifact.  A
truncated or corrupt persistent entry (a writer killed mid-dump) is
evicted on first contact and reported as a miss, never as a phantom
hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Union
from urllib.parse import parse_qs

import numpy as np

__all__ = [
    "ArtifactStore",
    "ChaosStorage",
    "LocalDirStorage",
    "StorageBackend",
    "StorageFault",
    "hash_key",
    "register_storage_scheme",
    "storage_from_url",
]


def _jsonable(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-encodable primitives."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly and avoids 825 vs 825.0 drift
        return f"f:{value!r}"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _jsonable(float(value))
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    payload = getattr(value, "key_payload", None)
    if callable(payload):
        # Spec objects (HardwareBackend, AcceleratorSpec, ...) reduce to
        # their declared key payload, tagged with the type name so two
        # spec kinds with identical fields cannot collide.
        return {"__spec__": type(value).__name__,
                "payload": _jsonable(payload())}
    raise TypeError(
        f"cannot build a stable artifact key from {type(value).__name__}"
    )


def hash_key(payload: Any) -> str:
    """Deterministic content hash of a key payload (nested primitives)."""
    canonical = json.dumps(_jsonable(payload), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# persistent-layer seam
# ----------------------------------------------------------------------
#: Tmp files older than this are presumed orphaned by a killed writer
#: and safe to sweep; younger ones may belong to a live writer whose
#: atomic rename must not be sabotaged.
STALE_TMP_MAX_AGE_S = 3600.0


class StorageBackend:
    """Byte-level persistent layer under :class:`ArtifactStore`.

    Implementations deal in opaque ``(key, bytes)`` pairs — the store
    owns (un)pickling and corruption handling.  ``LocalDirStorage`` is
    the built-in local-directory backend; an object-storage backend
    (S3 and friends) implements the same five methods and registers a
    URL scheme via :func:`register_storage_scheme`.
    """

    def read(self, key: str) -> bytes:
        """The stored bytes of ``key``; raises ``KeyError`` on a miss."""
        raise NotImplementedError

    def write(self, key: str, data: bytes) -> None:
        """Durably store ``data`` under ``key`` (atomic per key)."""
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        """Cheap existence probe (may be optimistic about readability)."""
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Remove ``key``; missing entries are not an error."""
        raise NotImplementedError

    def sweep_stale_tmp(self, max_age_s: float = STALE_TMP_MAX_AGE_S,
                        prefix: Optional[str] = None) -> int:
        """Remove write-leftovers older than ``max_age_s`` seconds.

        Backends whose writes cannot leave partial litter (true object
        stores) keep this default no-op.  Returns the removal count.
        """
        return 0

    def describe(self) -> str:
        """Human-readable location (for logs and the health endpoint)."""
        return type(self).__name__


#: mkstemp litter of :class:`LocalDirStorage`: ``.<key[:16]>-<random>``.
_TMP_NAME = re.compile(r"^\.[0-9a-f]{16}-")


class LocalDirStorage(StorageBackend):
    """One ``<key>.pkl`` file per artifact in a local directory.

    Writes go through ``mkstemp`` + ``os.replace`` so parallel writers
    race safely; a writer killed between the two leaves a
    ``.<key[:16]>-*`` tmp file that :meth:`sweep_stale_tmp` reclaims.
    """

    scheme = "file"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ValueError(
                f"cache_dir {str(self.root)!r} exists and is not "
                f"a directory")

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def read(self, key: str) -> bytes:
        path = self._path(key)
        if not path.is_file():
            raise KeyError(key)
        try:
            return path.read_bytes()
        except OSError:
            raise KeyError(key) from None

    def write(self, key: str, data: bytes) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root,
                                        prefix=f".{key[:16]}-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, self._path(key))  # atomic rename
        except Exception:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def contains(self, key: str) -> bool:
        return self._path(key).is_file()

    def delete(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def _tmp_files(self, prefix: Optional[str]) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for entry in self.root.iterdir():
            name = entry.name
            if not _TMP_NAME.match(name):
                continue
            if prefix is not None and not name.startswith(f".{prefix}-"):
                continue
            yield entry

    def sweep_stale_tmp(self, max_age_s: float = STALE_TMP_MAX_AGE_S,
                        prefix: Optional[str] = None) -> int:
        """Unlink orphaned write-tmp files older than ``max_age_s``.

        ``prefix`` (the first 16 hex chars of a key) narrows the sweep
        to one key's litter — used when a corrupt entry proves that a
        writer of that key died mid-write.
        """
        cutoff = time.time() - max_age_s
        removed = 0
        for entry in self._tmp_files(prefix):
            try:
                if entry.stat().st_mtime <= cutoff:
                    entry.unlink()
                    removed += 1
            except OSError:
                continue  # a live writer renamed/removed it first
        return removed

    def describe(self) -> str:
        return f"local dir {str(self.root)!r}"


#: URL scheme -> factory taking the ``scheme://...`` URL.  ``file`` is
#: built in; deployments register object-storage schemes here.
_STORAGE_SCHEMES: Dict[str, Callable[[str], StorageBackend]] = {}


def register_storage_scheme(scheme: str,
                            factory: Callable[[str], StorageBackend]
                            ) -> None:
    """Register ``factory`` for ``scheme://...`` artifact-store URLs.

    The factory receives the full URL and returns a
    :class:`StorageBackend`.  This is the seam an S3/GCS backend plugs
    into: once registered, every ``cache_dir`` argument in the repo
    (CLI flags, sweep specs, service config) accepts its URLs.
    """
    _STORAGE_SCHEMES[str(scheme).lower()] = factory


def _file_storage(url: str) -> StorageBackend:
    return LocalDirStorage(url[len("file://"):] or "/")


register_storage_scheme("file", _file_storage)


class StorageFault(OSError):
    """An injected storage fault (raised only by :class:`ChaosStorage`).

    Deliberately *not* a ``KeyError``: the store must treat it as an
    unreliable backend, not as a clean miss.
    """


class ChaosStorage(StorageBackend):
    """Fault-injecting decorator around any :class:`StorageBackend`.

    The harness the durability tests and the CI chaos smoke run the
    service under: reads and writes fail with configurable
    probabilities, and reads can return *corrupted* (truncated) bytes
    so the store's corrupt-eviction path fires on a live backend.  A
    seeded RNG makes every drill reproducible.

    Args:
        inner: The real backend taking the traffic.
        read_fault_rate: Probability a ``read`` raises
            :class:`StorageFault` instead of delegating.
        write_fault_rate: Probability a ``write`` raises after
            *not* touching the inner backend.
        corrupt_rate: Probability a successful ``read``'s bytes come
            back truncated (simulating a torn write surviving on disk).
        seed: RNG seed; ``None`` draws a nondeterministic one.
    """

    scheme = "chaos"

    def __init__(self, inner: StorageBackend,
                 read_fault_rate: float = 0.0,
                 write_fault_rate: float = 0.0,
                 corrupt_rate: float = 0.0,
                 seed: Optional[int] = None) -> None:
        for name, rate in (("read_fault_rate", read_fault_rate),
                           ("write_fault_rate", write_fault_rate),
                           ("corrupt_rate", corrupt_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], "
                                 f"got {rate!r}")
        self.inner = inner
        self.read_fault_rate = read_fault_rate
        self.write_fault_rate = write_fault_rate
        self.corrupt_rate = corrupt_rate
        self._rng = random.Random(seed)
        self.injected_read_faults = 0
        self.injected_write_faults = 0
        self.injected_corruptions = 0

    @property
    def root(self):
        """The inner backend's local root, if it has one — so path
        resolution (e.g. the service's job-store location) still
        works through the chaos wrapper."""
        return getattr(self.inner, "root", None)

    def read(self, key: str) -> bytes:
        if self._rng.random() < self.read_fault_rate:
            self.injected_read_faults += 1
            raise StorageFault(f"injected read fault for {key!r}")
        data = self.inner.read(key)
        if self.corrupt_rate and self._rng.random() < self.corrupt_rate:
            self.injected_corruptions += 1
            return data[:max(1, len(data) // 2)]
        return data

    def write(self, key: str, data: bytes) -> None:
        if self._rng.random() < self.write_fault_rate:
            self.injected_write_faults += 1
            raise StorageFault(f"injected write fault for {key!r}")
        self.inner.write(key, data)

    def contains(self, key: str) -> bool:
        return self.inner.contains(key)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def sweep_stale_tmp(self, max_age_s: float = STALE_TMP_MAX_AGE_S,
                        prefix: Optional[str] = None) -> int:
        return self.inner.sweep_stale_tmp(max_age_s, prefix)

    def counters(self) -> Dict[str, int]:
        return {
            "injected_read_faults": self.injected_read_faults,
            "injected_write_faults": self.injected_write_faults,
            "injected_corruptions": self.injected_corruptions,
        }

    def describe(self) -> str:
        return (f"chaos(read={self.read_fault_rate}, "
                f"write={self.write_fault_rate}, "
                f"corrupt={self.corrupt_rate}) over "
                f"{self.inner.describe()}")


def _chaos_storage(url: str) -> StorageBackend:
    """``chaos://<dir>?read=&write=&corrupt=&seed=`` fault injection.

    The path component is the local directory of the wrapped
    :class:`LocalDirStorage`; query parameters set the fault rates.
    Example: ``chaos:///tmp/cache?read=0.1&corrupt=0.05&seed=7``.
    """
    rest = url[len("chaos://"):]
    path, _, query = rest.partition("?")
    if not path:
        raise ValueError(f"chaos:// URL needs a directory path: {url!r}")
    params = parse_qs(query, keep_blank_values=False)

    def _rate(name: str) -> float:
        return float(params[name][0]) if name in params else 0.0

    seed = int(params["seed"][0]) if "seed" in params else None
    return ChaosStorage(LocalDirStorage(path),
                        read_fault_rate=_rate("read"),
                        write_fault_rate=_rate("write"),
                        corrupt_rate=_rate("corrupt"),
                        seed=seed)


register_storage_scheme("chaos", _chaos_storage)


def storage_from_url(location: Union[str, Path]) -> StorageBackend:
    """A :class:`StorageBackend` from a path or ``scheme://...`` URL."""
    text = str(location)
    match = re.match(r"^([A-Za-z][A-Za-z0-9+.-]*)://", text)
    if match is None:
        return LocalDirStorage(text)
    scheme = match.group(1).lower()
    factory = _STORAGE_SCHEMES.get(scheme)
    if factory is None:
        known = ", ".join(sorted(_STORAGE_SCHEMES))
        raise ValueError(
            f"no artifact storage backend registered for "
            f"{scheme}:// URLs (known: {known}); see "
            f"register_storage_scheme")
    return factory(text)


class ArtifactStore:
    """Two-layer (memory + optional persistent) content-addressed store.

    Args:
        cache_dir: Location of the persistent layer — a directory path
            (created on first write) or a ``scheme://...`` URL
            resolved via :func:`storage_from_url`.  ``None`` keeps the
            store memory-only.
        storage: An explicit :class:`StorageBackend` (mutually
            exclusive with ``cache_dir``).

    Attributes:
        hits / misses: Lookup counters (``get_or_compute`` only).
        disk_hits: Subset of ``hits`` served from the persistent layer.
        corrupt_evictions: Persistent entries evicted because they
            failed to unpickle (truncated by a killed writer).
        read_faults / write_faults: Backend I/O errors survived — a
            failed read degrades to a miss (the artifact is
            recomputed), a failed write leaves the artifact
            memory-only.  A flaky backend costs recomputation, never
            correctness.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None,
                 storage: Optional[StorageBackend] = None) -> None:
        if storage is not None and cache_dir is not None:
            raise ValueError("pass cache_dir or storage, not both")
        if storage is None and cache_dir is not None:
            storage = storage_from_url(cache_dir)
        self.storage = storage
        self.cache_dir = getattr(storage, "root", None)
        self._memory: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt_evictions = 0
        self.read_faults = 0
        self.write_faults = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _read_disk(self, key: str) -> Any:
        """Unpickle ``key`` from the persistent layer.

        A corrupt entry (truncated pickle from a killed writer) is
        *evicted* — together with that key's stale write-tmp litter —
        and reported as a ``KeyError`` miss, so membership, ``get``
        and ``get_or_compute`` all agree that it does not exist.
        """
        if self.storage is None:
            raise KeyError(key)
        try:
            data = self.storage.read(key)
        except KeyError:
            raise
        except Exception:
            # A flaky backend (network blip, injected chaos fault) is
            # a *miss*, not a crash: the caller recomputes through the
            # normal path and the run survives.
            self.read_faults += 1
            raise KeyError(key) from None
        try:
            return pickle.loads(data)
        except Exception:
            self.corrupt_evictions += 1
            try:
                self.storage.delete(key)
            except Exception:
                pass
            try:
                self.storage.sweep_stale_tmp(prefix=key[:16])
            except Exception:
                pass
            raise KeyError(key) from None

    def _write_disk(self, key: str, value: Any) -> None:
        if self.storage is None:
            return
        try:
            self.storage.write(
                key,
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            # The artifact stays memory-only; the next process that
            # needs it recomputes.  Losing cache persistence must
            # never lose the computed result in hand.
            self.write_faults += 1

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        """True iff :meth:`get` would return the artifact.

        Persistent entries are actually *read* (and promoted into the
        memory layer), not just stat-ed — a truncated on-disk pickle
        must not report itself as present and then miss on ``get``
        (the sweep progress banner counts "already cached" points
        through this very check).
        """
        if key in self._memory:
            return True
        try:
            value = self._read_disk(key)
        except KeyError:
            return False
        self._memory[key] = value
        return True

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, key: str, default: Any = None) -> Any:
        """Fetch without computing (memory first, then persistent)."""
        if key in self._memory:
            return self._memory[key]
        try:
            value = self._read_disk(key)
        except KeyError:
            return default
        self._memory[key] = value
        return value

    def put(self, key: str, value: Any) -> Any:
        """Store in memory and (when configured) persistently."""
        self._memory[key] = value
        self._write_disk(key, value)
        return value

    def get_or_compute(self, key: str, compute: Callable[[], Any],
                       persist: bool = True) -> Any:
        """Return the cached artifact or compute-and-store it.

        Args:
            key: Content-addressed artifact key.
            compute: Producer invoked on a miss.
            persist: When ``False`` the artifact stays in the memory
                layer only — for outputs that are large, deterministic
                and regenerated once per process by their producer's
                own memo (e.g. synthetic datasets via ``load_dataset``).
        """
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        if persist:
            try:
                value = self._read_disk(key)
            except KeyError:
                pass
            else:
                self.hits += 1
                self.disk_hits += 1
                self._memory[key] = value
                return value
        self.misses += 1
        value = compute()
        if persist:
            return self.put(key, value)
        self._memory[key] = value
        return value

    def sweep_stale_tmp(self,
                        max_age_s: float = STALE_TMP_MAX_AGE_S) -> int:
        """Reclaim write-tmp litter left by killed writers (count)."""
        if self.storage is None:
            return 0
        return self.storage.sweep_stale_tmp(max_age_s)

    def counters(self) -> Dict[str, int]:
        """Structured lookup/eviction counters (service telemetry)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "corrupt_evictions": self.corrupt_evictions,
            "read_faults": self.read_faults,
            "write_faults": self.write_faults,
        }

    def clear_memory(self) -> None:
        """Drop the in-memory layer (persistent entries survive)."""
        self._memory.clear()
