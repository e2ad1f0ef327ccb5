"""Unit tests for the on-disk result cache."""

from __future__ import annotations

import pytest

from repro.sim.config import small_config
from repro.sim.resultcache import (
    CacheCorruption,
    ResultCache,
    cache_enabled,
    cache_key,
    cached_run_workload,
    config_fingerprint,
    default_cache,
    quarantine,
    read_checked_pickle,
    resolve_cache,
    workload_fingerprint,
    write_checked_pickle,
)
from repro.sim.stats import Stats
from repro.sim.trace import Tracer
from repro.workloads.synthetic import make_synthetic_workload


def _tiny_workload(seed=3, instances=4):
    return make_synthetic_workload(num_nodes=4, instances=instances,
                                   shared_lines=16, tx_reads=4,
                                   tx_writes=1, seed=seed)


@pytest.fixture
def cfg():
    return small_config(4)


# ---------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------

def test_key_is_stable_for_identical_inputs(cfg):
    a = cache_key(cfg, _tiny_workload(), "baseline")
    b = cache_key(small_config(4), _tiny_workload(), "baseline")
    assert a == b


def test_key_changes_with_config(cfg):
    wl = _tiny_workload()
    base = cache_key(cfg, wl, "baseline")
    assert cache_key(small_config(4, seed=2), wl, "baseline") != base
    assert cache_key(cfg.with_puno(), wl, "baseline") != base


def test_key_changes_with_workload_seed_and_scale(cfg):
    base = cache_key(cfg, _tiny_workload(seed=3), "baseline")
    assert cache_key(cfg, _tiny_workload(seed=4), "baseline") != base
    assert cache_key(cfg, _tiny_workload(instances=5), "baseline") != base


def test_key_changes_with_cm(cfg):
    wl = _tiny_workload()
    assert (cache_key(cfg, wl, "baseline")
            != cache_key(cfg, wl, "backoff"))


def test_workload_fingerprint_covers_ops():
    wa = _tiny_workload(seed=3)
    wb = _tiny_workload(seed=3)
    assert workload_fingerprint(wa) == workload_fingerprint(wb)
    assert (workload_fingerprint(wa)
            != workload_fingerprint(_tiny_workload(seed=9)))


def test_config_fingerprint_covers_nested_fields(cfg):
    assert (config_fingerprint(cfg)
            != config_fingerprint(cfg.with_puno(txlb_entries=8)))


# ---------------------------------------------------------------------
# hit / miss / store
# ---------------------------------------------------------------------

def test_miss_then_hit_returns_identical_stats(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    wl = _tiny_workload()
    first = cached_run_workload(cfg, wl, cm="baseline",
                                max_cycles=5_000_000, cache=cache)
    assert cache.misses == 1 and cache.stores == 1
    assert "cache_hit" not in first.extras

    second = cached_run_workload(cfg, _tiny_workload(), cm="baseline",
                                 max_cycles=5_000_000, cache=cache)
    assert cache.hits == 1
    assert second.extras.get("cache_hit") == 1.0
    assert second.wall_seconds == 0.0
    assert first.stats.snapshot() == second.stats.snapshot()


def test_config_change_misses(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    wl = _tiny_workload()
    cached_run_workload(cfg, wl, cm="baseline", max_cycles=5_000_000,
                        cache=cache)
    cached_run_workload(small_config(4, seed=7), _tiny_workload(),
                        cm="baseline", max_cycles=5_000_000, cache=cache)
    assert cache.hits == 0 and cache.misses == 2 and cache.stores == 2


def test_seed_change_misses(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    cached_run_workload(cfg, _tiny_workload(seed=3), cm="baseline",
                        max_cycles=5_000_000, cache=cache)
    cached_run_workload(cfg, _tiny_workload(seed=4), cm="baseline",
                        max_cycles=5_000_000, cache=cache)
    assert cache.hits == 0 and cache.misses == 2


def test_corrupt_entry_is_a_miss(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    wl = _tiny_workload()
    key = cache_key(cfg, wl, "baseline")
    cached_run_workload(cfg, wl, cm="baseline", max_cycles=5_000_000,
                        cache=cache)
    path = cache._path(key)
    assert path.is_file()
    path.write_bytes(b"not a pickle")
    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.misses == 1
    assert fresh.quarantined == 1
    assert not path.exists()  # corrupt file moved aside, never re-read
    assert path.with_name(path.name + ".corrupt").is_file()


def test_truncated_entry_is_quarantined_not_raised(tmp_path, cfg):
    """A checksummed entry cut short mid-payload (the crash-during-
    write shape) is a quarantined miss, never an exception."""
    cache = ResultCache(tmp_path)
    wl = _tiny_workload()
    key = cache_key(cfg, wl, "baseline")
    cached_run_workload(cfg, wl, cm="baseline", max_cycles=5_000_000,
                        cache=cache)
    path = cache._path(key)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 16])  # valid magic, short payload
    fresh = ResultCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.quarantined == 1
    assert path.with_name(path.name + ".corrupt").is_file()


def test_checksum_valid_foreign_object_is_quarantined(tmp_path, cfg):
    """An entry that passes the integrity check but doesn't hold a
    Stats object (foreign writer) is moved aside like corruption."""
    cache = ResultCache(tmp_path)
    key = cache_key(cfg, _tiny_workload(), "baseline")
    path = cache._path(key)
    write_checked_pickle(path, {"not": "stats"})
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert path.with_name(path.name + ".corrupt").is_file()


# ---------------------------------------------------------------------
# the checksummed on-disk format
# ---------------------------------------------------------------------

def test_checked_pickle_round_trip(tmp_path):
    path = tmp_path / "entry.pkl"
    obj = {"a": [1, 2, 3], "b": "payload"}
    write_checked_pickle(path, obj)
    assert path.read_bytes().startswith(b"RPRC1\n")
    assert read_checked_pickle(path) == obj


def test_checked_pickle_round_trips_stats(tmp_path):
    path = tmp_path / "stats.pkl"
    stats = Stats(4)
    stats.nodes[1].tx_committed = 7
    stats.execution_cycles = 1234
    write_checked_pickle(path, stats)
    clone = read_checked_pickle(path)
    assert isinstance(clone, Stats)
    assert clone.snapshot() == stats.snapshot()


def test_checked_pickle_rejects_bad_magic(tmp_path):
    path = tmp_path / "entry.pkl"
    write_checked_pickle(path, [1, 2])
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(CacheCorruption, match="header"):
        read_checked_pickle(path)


def test_checked_pickle_rejects_flipped_payload_byte(tmp_path):
    path = tmp_path / "entry.pkl"
    write_checked_pickle(path, [1, 2, 3])
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorruption, match="checksum"):
        read_checked_pickle(path)


def test_checked_pickle_missing_file_is_a_plain_miss(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_checked_pickle(tmp_path / "nope.pkl")


def test_quarantine_moves_entry_aside(tmp_path):
    path = tmp_path / "entry.pkl"
    path.write_bytes(b"garbage")
    target = quarantine(path)
    assert target == tmp_path / "entry.pkl.corrupt"
    assert not path.exists() and target.is_file()
    assert target.read_bytes() == b"garbage"  # kept for post-mortem


def test_put_keeps_the_callers_tracer(tmp_path):
    """Tracers are never persisted, and the caller keeps its own."""
    cache = ResultCache(tmp_path)
    stats = Stats(4)
    tracer = stats.tracer = Tracer()
    cache.put("k" * 64, stats)
    assert stats.tracer is tracer
    assert cache.get("k" * 64).tracer is None


def test_clear_and_len(tmp_path, cfg):
    cache = ResultCache(tmp_path)
    cached_run_workload(cfg, _tiny_workload(), cm="baseline",
                        max_cycles=5_000_000, cache=cache)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


# ---------------------------------------------------------------------
# enable/disable plumbing
# ---------------------------------------------------------------------

def test_repro_no_cache_disables_default(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert cache_enabled()
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not cache_enabled()
    assert default_cache() is None
    assert resolve_cache(True) is None
    assert resolve_cache("/tmp/somewhere") is None


def test_resolve_cache_forms(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    explicit = ResultCache(tmp_path)
    assert resolve_cache(explicit) is explicit
    from_path = resolve_cache(tmp_path)
    assert isinstance(from_path, ResultCache)
    assert from_path.root == tmp_path
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache(True).root == tmp_path / "env"


def test_cache_false_always_runs(cfg):
    wl = _tiny_workload()
    r = cached_run_workload(cfg, wl, cm="baseline",
                            max_cycles=5_000_000, cache=False)
    assert r.stats.tx_committed > 0
    assert "cache_hit" not in r.extras
