"""Content-addressed on-disk cache for simulation results.

Every cell of an evaluation grid is a pure function of (system
configuration, workload contents, contention-manager name) — the
workload contents already encode scale and seed, and ``config.seed``
covers the simulator-side randomness.  This module hashes exactly that
tuple (plus the package version and a digest of the package sources, so
stale results can never survive a code change) into a key, and stores
the pickled :class:`~repro.sim.stats.Stats` under it.  A cache hit
skips the simulation entirely.  The key still needs the workload's
fingerprint: :func:`cached_run_workload` builds and hashes the workload
(about 11 ms for a scale-1.0 STAMP input on a 2-vCPU VM), while the
sweep executor (:func:`repro.analysis.parallel.run_tasks_resilient`)
reuses the fingerprint a worker reported earlier in the process, so a
warm sweep cell there costs one file read (0.16 ms on the same VM).

Layout: ``<root>/<key[:2]>/<key>.pkl`` with atomic writes (tempfile +
``os.replace``), so concurrent sweep workers can share one cache
directory safely.

Entries are checksummed on disk (``RPRC1`` magic + sha256 of the
pickle payload): a truncated or bit-rotted entry is detected on read,
*quarantined* to ``<name>.pkl.corrupt`` for post-mortem inspection,
and treated as a plain miss — a multi-hour sweep recomputes the cell
instead of dying mid-grid on an unpickling error.

Escape hatches:

* ``REPRO_NO_CACHE=1`` (env) disables the default cache globally,
* ``--no-cache`` on the CLI sets the same variable for the process,
* ``REPRO_CACHE_DIR`` relocates the cache (default:
  ``.repro-cache/`` under the current working directory).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.sim.config import SystemConfig
from repro.sim.stats import Stats
from repro.workloads.base import Gap, NonTxOp, TxInstance, Workload

ENV_DISABLE = "REPRO_NO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
DEFAULT_DIRNAME = ".repro-cache"

# Anything in CacheLike except an explicit ResultCache means "resolve
# it": True -> process default, None/False -> disabled, path -> there.
CacheLike = Union[None, bool, str, Path, "ResultCache"]

# On-disk entry format: magic + hex sha256 of payload + newline + payload.
_MAGIC = b"RPRC1\n"
_DIGEST_LEN = 64  # hex sha256


class CacheCorruption(Exception):
    """A cache entry failed its integrity check."""


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set (to anything but 0/empty)."""
    return os.environ.get(ENV_DISABLE, "") in ("", "0")


# ---------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------

_source_digest_memo: Optional[str] = None


def _source_digest() -> str:
    """Digest of every ``repro`` source file (memoized per process).

    Folding the sources into the key makes the cache self-invalidating:
    any change to the simulator produces fresh keys, so a stale result
    can never satisfy a run of different code — even without a version
    bump during development.
    """
    global _source_digest_memo
    if _source_digest_memo is None:
        import repro
        pkg = Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(pkg.rglob("*.py")):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
        _source_digest_memo = h.hexdigest()
    return _source_digest_memo


def source_digest() -> str:
    """Public alias of the memoized package-source digest."""
    return _source_digest()


def config_fingerprint(config: SystemConfig) -> str:
    """Stable digest over every (nested) config dataclass field."""
    fields = dataclasses.asdict(config)
    canon = repr(sorted(fields.items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def workload_fingerprint(workload: Workload) -> str:
    """Stable digest of a workload's full operational content.

    Covers the name and every program item (ops with address / think /
    pc), so generator ``scale`` and ``seed`` changes — which alter the
    emitted programs — change the fingerprint, while two factories that
    happen to emit identical traces share one.
    """
    h = hashlib.sha256()
    h.update(f"{workload.name}|{workload.num_static_txs}".encode())
    for prog in workload.programs:
        h.update(b"|P")
        for item in prog:
            if isinstance(item, TxInstance):
                h.update(f"T{item.static_id},{item.instance_id}".encode())
                for op in item.ops:
                    h.update(
                        f"{int(op.is_write)},{op.addr},{op.think},{op.pc};"
                        .encode())
            elif isinstance(item, NonTxOp):
                h.update(f"N{int(item.is_write)},{item.addr},"
                         f"{item.think},{item.pc}".encode())
            elif isinstance(item, Gap):
                h.update(f"G{item.cycles}".encode())
            else:  # pragma: no cover - validate_program rejects these
                raise TypeError(f"unknown program item {item!r}")
    return h.hexdigest()


def cell_key(config: SystemConfig, cm: str, fingerprint: str) -> str:
    """The content address of one simulation cell whose workload has
    :func:`workload_fingerprint` ``fingerprint``.

    The run's ``max_cycles`` budget and ``audit`` flag are left out on
    purpose: both only ever raise (a budget overrun, a failed audit)
    and never change a completed run's Stats, and a run that raises is
    never stored.  So a cell finished under one budget or audit setting
    is a valid answer under any other."""
    from repro import __version__
    h = hashlib.sha256()
    h.update(__version__.encode())
    h.update(_source_digest().encode())
    h.update(config_fingerprint(config).encode())
    h.update(cm.encode())
    h.update(fingerprint.encode())
    return h.hexdigest()


def cache_key(config: SystemConfig, workload: Workload, cm: str) -> str:
    """The content address of one simulation cell."""
    return cell_key(config, cm, workload_fingerprint(workload))


# ---------------------------------------------------------------------
# checksummed pickle I/O
# ---------------------------------------------------------------------

def write_checked_pickle(path: Path, obj: object) -> None:
    """Atomically write ``obj`` as a checksummed pickle entry."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_MAGIC)
            f.write(digest)
            f.write(b"\n")
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_checked_pickle(path: Path) -> object:
    """Read a checksummed entry; raises :class:`CacheCorruption` on any
    integrity failure (bad magic, truncation, checksum mismatch) and
    lets ``FileNotFoundError`` propagate for plain misses."""
    data = path.read_bytes()
    header_len = len(_MAGIC) + _DIGEST_LEN + 1
    if not data.startswith(_MAGIC) or len(data) < header_len:
        raise CacheCorruption(f"{path}: missing or malformed header")
    digest = data[len(_MAGIC):len(_MAGIC) + _DIGEST_LEN]
    if data[header_len - 1:header_len] != b"\n":
        raise CacheCorruption(f"{path}: malformed header terminator")
    payload = data[header_len:]
    actual = hashlib.sha256(payload).hexdigest().encode("ascii")
    if actual != digest:
        raise CacheCorruption(f"{path}: checksum mismatch "
                              f"(truncated or bit-rotted entry)")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        # checksum-valid but unpicklable: written by incompatible code
        raise CacheCorruption(f"{path}: {exc!r}") from exc


def quarantine(path: Path) -> Optional[Path]:
    """Move a corrupt entry aside as ``<name>.corrupt`` (for
    post-mortem inspection) so it can never satisfy another read;
    returns the quarantine path, or None if the move failed (the entry
    is unlinked instead)."""
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
        return target
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


# ---------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------

class ResultCache:
    """Filesystem-backed store of pickled :class:`Stats` by key."""

    def __init__(self, root: Union[None, str, Path] = None):
        if root is None:
            root = os.environ.get(ENV_DIR) or DEFAULT_DIRNAME
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Stats]:
        """The cached Stats for ``key``, or None.  Truncated/corrupt
        entries are quarantined to ``*.corrupt`` and count as misses —
        never an exception mid-sweep."""
        path = self._path(key)
        try:
            stats = read_checked_pickle(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        except CacheCorruption:
            quarantine(path)
            self.quarantined += 1
            self.misses += 1
            return None
        if not isinstance(stats, Stats):
            # integrity-valid but not ours (foreign writer?): move aside
            quarantine(path)
            self.quarantined += 1
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(self, key: str, stats: Stats) -> None:
        """Atomically store ``stats`` under ``key`` (checksummed).
        ``stats.tracer`` is detached for the write only: tracers are
        never persisted, and the caller keeps its own."""
        tracer, stats.tracer = stats.tracer, None
        try:
            write_checked_pickle(self._path(key), stats)
        finally:
            stats.tracer = tracer
        self.stores += 1

    def clear(self) -> int:
        """Remove every cached entry; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for p in self.root.rglob("*.pkl"):
                try:
                    p.unlink()
                    n += 1
                except OSError:
                    pass
        return n

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores}, "
                f"quarantined={self.quarantined})")


def default_cache() -> Optional[ResultCache]:
    """The process-default cache, or None when disabled by env."""
    if not cache_enabled():
        return None
    return ResultCache()


def resolve_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Normalize the ``cache=`` argument accepted across the stack.

    ``True`` -> the process default (None when ``REPRO_NO_CACHE`` is
    set); ``None``/``False`` -> no caching; a path -> a cache rooted
    there (still subject to ``REPRO_NO_CACHE``); a :class:`ResultCache`
    -> itself, unconditionally.
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is None or cache is False:
        return None
    if cache is True:
        return default_cache()
    if not cache_enabled():
        return None
    return ResultCache(cache)


# ---------------------------------------------------------------------
# cached run harness
# ---------------------------------------------------------------------

def cached_run_workload(config: SystemConfig, workload: Workload,
                        cm: str = "baseline",
                        max_cycles: Optional[int] = None,
                        audit: bool = True,
                        cache: CacheLike = True,
                        fingerprint: Optional[str] = None):
    """:func:`repro.system.run_workload` with result caching.

    On a hit the returned :class:`~repro.system.RunResult` carries the
    cached Stats, ``wall_seconds == 0`` and ``extras["cache_hit"] == 1``.
    Only string ``cm`` names are cacheable (a live ContentionManager
    instance has no stable identity); those fall through to a plain run.
    ``fingerprint``, when given, must be ``workload_fingerprint(workload)``;
    it spares a caller that already holds it a second hash.
    """
    from repro.sanitize import sanitize_enabled
    from repro.system import RunResult, run_workload
    resolved = resolve_cache(cache) if isinstance(cm, str) else None
    if resolved is not None and sanitize_enabled():
        # A sanitized run must actually simulate (a cache hit would
        # check nothing), and its Stats must not poison the cache for
        # later unsanitized sweeps.
        resolved = None
    if resolved is None:
        return run_workload(config, workload, cm=cm,
                            max_cycles=max_cycles, audit=audit)
    if fingerprint is None:
        fingerprint = workload_fingerprint(workload)
    key = cell_key(config, cm, fingerprint)
    stats = resolved.get(key)
    if stats is not None:
        return RunResult(stats, config, workload.name, cm,
                         wall_seconds=0.0, extras={"cache_hit": 1.0})
    result = run_workload(config, workload, cm=cm,
                          max_cycles=max_cycles, audit=audit)
    resolved.put(key, result.stats)
    return result
