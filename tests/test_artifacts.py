"""Tests for the persistent content-addressed golden-artifact store.

Covers the store's robustness contract (truncated / corrupted / foreign /
future-versioned / mis-keyed blobs and racing writers all degrade to a clean
re-record -- never a crash, never stale state), the two-tier
:class:`GoldenRunCache`, the warm-vs-cold bit-exactness property on both
cores, and the executor layer's small-plan serial fallback and static
shard dispatch.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    EngineConfig,
    GoldenArtifactStore,
    GoldenRunCache,
    InjectionEngine,
    ParallelExecutor,
    SerialExecutor,
    artifact_digest,
    cache_for_artifact_dir,
    golden_run_key,
)
from repro.engine.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_SUFFIX,
    ARTIFACT_VERSION,
    digest_of_key,
)
from repro.engine.checkpoint import resolve_golden_cache
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.workloads import workload_by_name

CORE_CLASSES = (InOrderCore, OutOfOrderCore)


@pytest.fixture(scope="module")
def program():
    return workload_by_name("vpr").program()


@pytest.fixture()
def store(tmp_path):
    return GoldenArtifactStore(tmp_path / "artifacts")


def _save_one(store, program, core=None):
    core = core or InOrderCore()
    cache = GoldenRunCache(store=store)
    artifact = cache.get(core, program)
    digest = artifact_digest(core, program)
    assert store.path_for(digest).exists()
    return digest, artifact


# --------------------------------------------------------------------- digests
class TestContentAddressing:
    def test_digest_is_deterministic(self, program):
        core = InOrderCore()
        assert artifact_digest(core, program) == artifact_digest(core, program)

    def test_digest_depends_on_recording_knobs(self, program):
        core = InOrderCore()
        base = artifact_digest(core, program)
        assert artifact_digest(core, program, interval=17) != base
        assert artifact_digest(core, program, max_checkpoints=3) != base
        assert artifact_digest(core, program, fingerprint_interval=9) != base

    def test_digest_distinguishes_cores(self, program):
        assert (artifact_digest(InOrderCore(), program)
                != artifact_digest(OutOfOrderCore(), program))

    def test_default_knobs_normalise_to_explicit_defaults(self, program):
        """None budget knobs hash identically to their explicit defaults, so
        the disk tier and the memory tier agree about key identity."""
        from repro.engine.checkpoint import (DEFAULT_MAX_CHECKPOINTS,
                                             DEFAULT_MAX_FINGERPRINTS)
        from repro.microarch.core import DEFAULT_MAX_CYCLES

        core = InOrderCore()
        assert artifact_digest(core, program) == artifact_digest(
            core, program, max_checkpoints=DEFAULT_MAX_CHECKPOINTS,
            max_cycles=DEFAULT_MAX_CYCLES,
            max_fingerprints=DEFAULT_MAX_FINGERPRINTS)

    def test_digest_of_key_matches(self, program):
        core = InOrderCore()
        assert digest_of_key(golden_run_key(core, program)) == \
            artifact_digest(core, program)


# ------------------------------------------------------------------- integrity
class TestBlobIntegrity:
    def test_round_trip(self, store, program):
        digest, artifact = _save_one(store, program)
        loaded = store.load(digest)
        assert pickle.dumps(loaded) == pickle.dumps(artifact)
        assert store.stats().errors == 0

    def test_missing_blob_is_plain_miss(self, store):
        assert store.load("0" * 40) is None
        assert store.stats().errors == 0

    def test_truncated_blob_re_records(self, store, program):
        digest, _ = _save_one(store, program)
        path = store.path_for(digest)
        path.write_bytes(path.read_bytes()[:100])
        assert store.load(digest) is None
        assert store.stats().errors == 1
        # The cache degrades to re-recording and heals the blob in place.
        cache = GoldenRunCache(store=store)
        healed = cache.get(InOrderCore(), program)
        assert healed is not None
        assert store.load(digest) is not None

    def test_corrupted_payload_re_records(self, store, program):
        digest, _ = _save_one(store, program)
        path = store.path_for(digest)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load(digest) is None
        assert store.stats().errors == 1

    def test_version_mismatch_re_records(self, store, program):
        # Older blobs matter as much as newer ones: a stale grid recorded
        # under a previous digest encoding would never match a probe.
        digest, artifact = _save_one(store, program)
        payload = pickle.dumps(artifact, protocol=4)
        import hashlib

        stale_versions = (ARTIFACT_VERSION + 1, ARTIFACT_VERSION - 1)
        for errors, version in enumerate(stale_versions, start=1):
            store.path_for(digest).write_bytes(pickle.dumps({
                "format": ARTIFACT_FORMAT, "version": version,
                "key": digest, "payload": payload,
                "payload_digest": hashlib.blake2b(payload,
                                                  digest_size=16).digest(),
            }, protocol=4))
            assert store.load(digest) is None
            assert store.stats().errors == errors

    def test_foreign_pickle_re_records(self, store, program):
        digest = artifact_digest(InOrderCore(), program)
        store.root.mkdir(parents=True, exist_ok=True)
        store.path_for(digest).write_bytes(pickle.dumps({"surprise": 1}))
        assert store.load(digest) is None
        assert store.stats().errors == 1

    def test_renamed_blob_key_mismatch(self, store, program):
        digest, _ = _save_one(store, program)
        other = "f" * 40
        store.path_for(digest).rename(store.path_for(other))
        assert store.load(other) is None
        assert store.stats().errors == 1

    def test_unusable_root_degrades_to_recording(self, tmp_path, program):
        # A plain file where the store directory should be: every mkdir and
        # read below it fails, the cache still serves recordings.
        root = tmp_path / "blocker"
        root.write_text("not a directory")
        store = GoldenArtifactStore(root)
        cache = GoldenRunCache(store=store)
        artifact = cache.get(InOrderCore(), program)
        assert artifact is not None
        assert store.stats().saved == 0
        assert store.stats().errors >= 1
        assert cache.stats().artifacts_saved == 0

    def test_concurrent_writers_race_cleanly(self, store, program):
        """Two stores racing on one key both publish complete blobs; the
        last rename wins and the loser's artifact stays usable."""
        core = InOrderCore()
        key = golden_run_key(core, program)
        first = GoldenRunCache(store=store)
        artifact_a = first.get(core, program)
        # Second writer saves the same content-addressed key again (what a
        # losing racer does after the winner already renamed into place).
        other = GoldenArtifactStore(store.root)
        assert other.save_key(key, artifact_a) is not None
        assert len(store) == 1
        reloaded = other.load_key(key)
        assert pickle.dumps(reloaded) == pickle.dumps(artifact_a)
        # No leftover scratch files from either writer.
        assert not list(store.root.glob(".*.tmp"))

    def test_store_census(self, store, program):
        _save_one(store, program)
        stats = store.stats()
        assert stats.entries == len(store) == 1
        assert stats.size_bytes > 0
        assert stats.saved == 1


# ------------------------------------------------------------- two-tier cache
class TestTwoTierCache:
    def test_warm_cache_loads_instead_of_recording(self, store, program):
        core = InOrderCore()
        cold = GoldenRunCache(store=store)
        cold.get(core, program)
        assert cold.stats().artifacts_saved == 1
        assert cold.stats().recorded == 1
        warm = GoldenRunCache(store=store)
        warm.get(core, program)
        stats = warm.stats()
        assert stats.artifacts_loaded == 1
        assert stats.recorded == 0
        assert stats.misses == 1  # disk load still counts as a memory miss

    def test_memory_tier_shortcuts_disk(self, store, program):
        core = InOrderCore()
        cache = GoldenRunCache(store=store)
        cache.get(core, program)
        cache.get(core, program)
        assert cache.stats().hits == 1
        assert store.stats().loaded == 0

    def test_storeless_cache_unchanged(self, program):
        cache = GoldenRunCache()
        cache.get(InOrderCore(), program)
        stats = cache.stats()
        assert (stats.artifacts_loaded, stats.artifacts_saved) == (0, 0)
        assert stats.recorded == 1

    def test_stats_merge_across_fleet(self):
        from repro.engine import GoldenCacheStats

        a = GoldenCacheStats(hits=2, misses=3, entries=3, max_entries=8,
                             artifacts_loaded=1, artifacts_saved=2)
        b = GoldenCacheStats(hits=1, misses=1, entries=1, max_entries=8,
                             artifacts_loaded=1, artifacts_saved=0)
        merged = a.merged_with(b)
        assert (merged.hits, merged.misses) == (3, 4)
        assert merged.artifacts_loaded == 2
        assert merged.recorded == 2

    def test_cache_for_artifact_dir_is_shared_per_root(self, tmp_path):
        first = cache_for_artifact_dir(tmp_path / "store")
        again = cache_for_artifact_dir(tmp_path / "store")
        other = cache_for_artifact_dir(tmp_path / "elsewhere")
        assert first is again
        assert first is not other

    def test_resolve_attaches_store_to_explicit_cache(self, tmp_path):
        cache = GoldenRunCache()
        resolved = resolve_golden_cache(cache, None,
                                        artifact_dir=tmp_path / "store")
        assert resolved is cache
        assert cache.store is not None
        with pytest.raises(ValueError):
            resolve_golden_cache(cache, 4)


# ------------------------------------------------------ executor-layer pieces
class TestSerialFallback:
    def test_small_plan_falls_back_to_serial(self, program):
        engine = InjectionEngine(InOrderCore(), program, seed=1,
                                 config=EngineConfig(workers=2))
        assert isinstance(engine._select_executor(30), SerialExecutor)
        assert isinstance(engine._select_executor(64), ParallelExecutor)

    def test_threshold_zero_disables_fallback(self, program):
        engine = InjectionEngine(InOrderCore(), program, seed=1,
                                 config=EngineConfig(workers=2,
                                                     parallel_threshold=0))
        assert isinstance(engine._select_executor(2), ParallelExecutor)

    def test_explicit_executor_is_honoured(self, program):
        executor = ParallelExecutor(workers=2)
        engine = InjectionEngine(InOrderCore(), program, seed=1,
                                 config=EngineConfig(workers=2),
                                 executor=executor)
        assert engine._select_executor(2) is executor

    def test_parallel_chunk_fills_a_wavefront(self, program):
        """Derived chunk sizes never drop below the lockstep batch width."""
        engine = InjectionEngine(InOrderCore(), program, seed=1,
                                 config=EngineConfig(workers=2,
                                                     batch_width=16))
        assert engine._chunk_size(40, ParallelExecutor(workers=2)) >= 16

    def test_parallel_stream_yields_every_shard_once(self):
        """The pool yields every shard result exactly once
        (order-insensitively), including with more shards than workers."""
        from repro.engine import ChunkSpec

        payload = {"scale": 10}
        shards = [ChunkSpec(index=i, planned=[], seed=i) for i in range(9)]
        executor = ParallelExecutor(workers=2)
        got = sorted(r.index for r in
                     executor.stream(payload, shards, _echo_shard))
        assert got == [shard.index for shard in shards]


def _echo_shard(payload, shard):
    return shard


# ----------------------------------------------------- warm/cold bit-exactness
class TestWarmColdEquivalence:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    @pytest.mark.parametrize("core_class", CORE_CLASSES)
    def test_campaigns_bit_identical_warm_vs_cold(self, core_class, seed,
                                                  tmp_path_factory, program):
        """Store on/off x cold/warm: outcome counts and per-site tallies are
        bit-identical -- a loaded artifact is interchangeable with a fresh
        recording."""
        root = tmp_path_factory.mktemp("artifacts")
        core = core_class()

        def campaign(cache):
            engine = InjectionEngine(core, program, seed=seed,
                                     golden_cache=cache)
            return engine.run(injections=12)

        storeless = campaign(GoldenRunCache())
        cold_cache = GoldenRunCache(store=GoldenArtifactStore(root))
        cold = campaign(cold_cache)
        assert cold_cache.stats().artifacts_saved == 1
        warm_cache = GoldenRunCache(store=GoldenArtifactStore(root))
        warm = campaign(warm_cache)
        assert warm_cache.stats().artifacts_loaded == 1
        assert warm_cache.stats().recorded == 0
        for result in (cold, warm):
            assert result.outcomes.as_dict() == storeless.outcomes.as_dict()
            assert result.per_site == storeless.per_site

    @pytest.mark.parametrize("core_class", CORE_CLASSES)
    def test_batched_and_parallel_paths_match_warm(self, core_class, tmp_path,
                                                   program):
        """Store x serial/parallel x batch on/off all agree on a warm start."""
        core = core_class()
        reference = InjectionEngine(core, program, seed=9,
                                    golden_cache=GoldenRunCache()).run(
            injections=40)
        variants = [
            EngineConfig(artifact_dir=tmp_path),
            EngineConfig(artifact_dir=tmp_path, batch_width=8),
            EngineConfig(artifact_dir=tmp_path, workers=2,
                         parallel_threshold=0),
            EngineConfig(artifact_dir=tmp_path, workers=2,
                         parallel_threshold=0, batch_width=8),
        ]
        for config in variants:
            result = InjectionEngine(core, program, seed=9, config=config,
                                     golden_cache=GoldenRunCache(
                                         store=GoldenArtifactStore(tmp_path))
                                     ).run(injections=40)
            assert result.outcomes.as_dict() == reference.outcomes.as_dict()
            assert result.per_site == reference.per_site
