"""Durable checkpoint stores: framing, atomicity, generations, fallback.

Covers the :mod:`repro.runtime.durability` layer in isolation: CRC32
frame integrity, generation keep/GC, atomic-write crash
windows (including a crash *between* the temp write and the rename),
corruption fallback, cross-process resume, and the store fault injection
in :mod:`repro.runtime.faults`.  Pipeline-level corruption recovery is
in ``tests/test_durability_chaos.py``.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.core.tracing import Tracer
from repro.runtime import (
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    CheckpointCorruptError,
    DiskCheckpointStore,
    FaultyStore,
    InMemoryStore,
    TransientStoreError,
)
from repro.runtime.durability import _decode_frame, _encode_frame, StoredCheckpoint

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "424242"))


def make_stores(tmp_path):
    return {
        "memory": InMemoryStore(keep=3),
        "disk": DiskCheckpointStore(tmp_path / "disk", keep=3),
    }


# ----------------------------------------------------------------------
# frame format


class TestFrameFormat:
    def test_roundtrip_preserves_everything(self):
        original = StoredCheckpoint(
            7, b"payload" * 100, cursor=1234, records_processed=999,
            meta={"counters": {"a": 1}},
        )
        decoded = _decode_frame(_encode_frame(original), "test")
        assert decoded.generation == 7
        assert decoded.blob == original.blob
        assert decoded.cursor == 1234
        assert decoded.records_processed == 999
        assert decoded.meta == {"counters": {"a": 1}}

    def test_frame_leads_with_magic_and_version(self):
        frame = _encode_frame(StoredCheckpoint(0, b"x", cursor=0, records_processed=0))
        assert frame[:4] == STORE_MAGIC
        assert int.from_bytes(frame[4:6], "big") == STORE_FORMAT_VERSION

    def test_wrong_magic_rejected(self):
        frame = bytearray(
            _encode_frame(StoredCheckpoint(0, b"x", cursor=0, records_processed=0))
        )
        frame[:4] = b"NOPE"
        with pytest.raises(CheckpointCorruptError, match="magic"):
            _decode_frame(bytes(frame), "test")

    def test_future_version_rejected(self):
        frame = bytearray(
            _encode_frame(StoredCheckpoint(0, b"x", cursor=0, records_processed=0))
        )
        frame[4:6] = (STORE_FORMAT_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(CheckpointCorruptError, match="not supported"):
            _decode_frame(bytes(frame), "test")

    def test_single_bit_flip_detected_anywhere(self):
        # Every byte of the frame is covered by either the header checks
        # or the CRC: flip one bit per region and expect rejection.
        frame = _encode_frame(
            StoredCheckpoint(3, b"blob-bytes" * 20, cursor=50, records_processed=40)
        )
        rng = random.Random(FUZZ_SEED)
        for _ in range(100):
            mutated = bytearray(frame)
            position = rng.randrange(len(mutated) * 8)
            mutated[position // 8] ^= 1 << (position % 8)
            with pytest.raises(CheckpointCorruptError):
                _decode_frame(bytes(mutated), "test")

    def test_truncation_detected_at_every_length(self):
        frame = _encode_frame(
            StoredCheckpoint(3, b"blob" * 10, cursor=5, records_processed=5)
        )
        for cut in range(len(frame)):
            with pytest.raises(CheckpointCorruptError):
                _decode_frame(frame[:cut], "test")

    def test_appended_garbage_detected(self):
        frame = _encode_frame(StoredCheckpoint(0, b"x", cursor=0, records_processed=0))
        with pytest.raises(CheckpointCorruptError):
            _decode_frame(frame + b"trailing", "test")


# ----------------------------------------------------------------------
# store behaviour, both implementations


class TestStoreContract:
    def test_save_load_roundtrip(self, tmp_path):
        for name, store in make_stores(tmp_path).items():
            generation = store.save(b"blob-a", cursor=10, records_processed=8)
            loaded = store.load(generation)
            assert loaded.blob == b"blob-a", name
            assert loaded.cursor == 10
            assert loaded.records_processed == 8

    def test_keep_bound_garbage_collects_oldest(self, tmp_path):
        for name, store in make_stores(tmp_path).items():
            generations = [
                store.save(f"b{i}".encode(), cursor=i * 10, records_processed=i * 9)
                for i in range(5)
            ]
            assert store.generations() == generations[-3:], name
            with pytest.raises(KeyError):
                store.load(generations[0])

    def test_load_latest_falls_back_past_corruption(self, tmp_path):
        for name, store in make_stores(tmp_path).items():
            tracer = Tracer()
            store.tracer = tracer
            g0 = store.save(b"good-old", cursor=0, records_processed=0)
            g1 = store.save(b"good-mid", cursor=10, records_processed=10)
            g2 = store.save(b"torn-new", cursor=20, records_processed=20)
            store.corrupt(g2, truncate_to=store.frame_size(g2) // 2)
            loaded = store.load_latest()
            assert loaded.generation == g1, name
            assert loaded.blob == b"good-mid"
            assert tracer.value("durability.fallbacks") == 1
            assert tracer.value("durability.corrupt_generations") == 1
            # Two corrupt generations: fall back all the way.
            store.corrupt(g1, flip_bit=200)
            assert store.load_latest().generation == g0, name
            # All corrupt: nothing loadable.
            store.corrupt(g0, flip_bit=77)
            assert store.load_latest() is None, name

    def test_min_generation_bounds_fallback(self, tmp_path):
        for name, store in make_stores(tmp_path).items():
            g0 = store.save(b"previous-run", cursor=0, records_processed=0)
            g1 = store.save(b"this-run", cursor=0, records_processed=0)
            store.corrupt(g1, flip_bit=99)
            # A fresh run must not restore another run's generation.
            assert store.load_latest(min_generation=g1) is None, name
            assert store.load_latest().generation == g0

    def test_generation_mismatch_detected(self, tmp_path):
        # A frame that passes its CRC but claims another generation
        # (e.g. a misplaced file) is corruption, not silently accepted.
        store = DiskCheckpointStore(tmp_path / "d", keep=3)
        g0 = store.save(b"a", cursor=0, records_processed=0)
        g1 = store.save(b"b", cursor=5, records_processed=5)
        os.replace(store._path(g0), store._path(g1))
        with pytest.raises(CheckpointCorruptError, match="claims"):
            store.load(g1)

    def test_tracer_counts_saves_loads_gc(self, tmp_path):
        for name, store in make_stores(tmp_path).items():
            tracer = Tracer()
            store.tracer = tracer
            for i in range(4):
                store.save(b"x" * 10, cursor=i, records_processed=i)
            store.load_latest()
            assert tracer.value("durability.saves") == 4, name
            assert tracer.value("durability.loads") == 1
            assert tracer.value("durability.gc_collected") == 1
            assert tracer.value("durability.bytes_written") > 0

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError):
            InMemoryStore(keep=0)
        with pytest.raises(ValueError):
            DiskCheckpointStore(tmp_path / "bad", keep=0)


# ----------------------------------------------------------------------
# disk-specific: atomicity, resume


class TestDiskStore:
    def test_resume_from_existing_directory(self, tmp_path):
        store = DiskCheckpointStore(tmp_path / "d", keep=3)
        g_old = store.save(b"first", cursor=10, records_processed=10)
        g_new = store.save(b"second", cursor=20, records_processed=20)
        # A new supervisor (new process) opens the same directory.
        reopened = DiskCheckpointStore(tmp_path / "d", keep=3)
        assert reopened.generations() == [g_old, g_new]
        assert reopened.load_latest().blob == b"second"
        # Numbering resumes past the dead run's generations.
        assert reopened.save(b"third", cursor=30, records_processed=30) > g_new

    def test_crash_between_temp_write_and_rename(self, tmp_path):
        """A full temp file that never got renamed must not shadow or
        corrupt the committed generations, and GC sweeps it away."""
        store = DiskCheckpointStore(tmp_path / "d", keep=3)
        g0 = store.save(b"committed", cursor=10, records_processed=10)
        # Simulate the crash window: the next generation's frame is
        # fully written to the .tmp name, but os.replace never ran.
        doomed = _encode_frame(
            StoredCheckpoint(g0 + 1, b"never-renamed", cursor=20, records_processed=20)
        )
        tmp = store._path(g0 + 1) + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(doomed)

        # A new supervisor sees only the committed generation...
        reopened = DiskCheckpointStore(tmp_path / "d", keep=3)
        assert reopened.generations() == [g0]
        assert reopened.load_latest().blob == b"committed"
        # ...reuses the orphaned number without tripping on the stray...
        g1 = reopened.save(b"replacement", cursor=20, records_processed=20)
        assert g1 == g0 + 1
        assert reopened.load(g1).blob == b"replacement"
        # ...and the stray temp file is gone after the GC sweep.
        assert not any(n.endswith(".tmp") for n in os.listdir(store.directory))

    def test_partial_temp_write_is_ignored(self, tmp_path):
        store = DiskCheckpointStore(tmp_path / "d", keep=3)
        store.save(b"committed", cursor=10, records_processed=10)
        with open(os.path.join(store.directory, "ckpt-x.tmp"), "wb") as handle:
            handle.write(b"half a fra")
        reopened = DiskCheckpointStore(tmp_path / "d", keep=3)
        assert reopened.load_latest().blob == b"committed"

    def test_files_are_ground_truth_over_manifest(self, tmp_path):
        """The frame files are the only index.  Versions up to issue 20
        also wrote a ``MANIFEST`` listing them; a directory that still
        holds one -- stale, or hand-written to hide a generation and
        invent another -- reopens, restores and resumes numbering as if
        it were not there, and the store writes none."""
        store = DiskCheckpointStore(tmp_path / "d", keep=3)
        g0 = store.save(b"alpha", cursor=1, records_processed=1)
        g1 = store.save(b"beta", cursor=2, records_processed=2)
        manifest = os.path.join(store.directory, "MANIFEST")
        assert not os.path.exists(manifest)
        with open(manifest, "w") as handle:
            json.dump(
                {"version": STORE_FORMAT_VERSION, "generations": [g0, g1 + 5]}, handle
            )
        reopened = DiskCheckpointStore(tmp_path / "d", keep=3)
        assert reopened.generations() == [g0, g1]
        assert reopened.load_latest().blob == b"beta"
        assert reopened.save(b"gamma", cursor=3, records_processed=3) == g1 + 1
        with open(manifest) as handle:
            assert json.load(handle)["generations"] == [g0, g1 + 5]  # untouched


# ----------------------------------------------------------------------
# store fault injection (FaultyStore)


class TestFaultyStore:
    def test_torn_write_corrupts_scheduled_save(self, tmp_path):
        for name, inner in make_stores(tmp_path).items():
            store = FaultyStore(inner, torn_write_at=(1,), seed=FUZZ_SEED)
            g0 = store.save(b"good" * 50, cursor=0, records_processed=0)
            g1 = store.save(b"torn" * 50, cursor=10, records_processed=10)
            assert inner.load(g0).blob == b"good" * 50, name
            with pytest.raises(CheckpointCorruptError):
                inner.load(g1)
            assert store.load_latest().generation == g0
            assert store.faults_fired == 1

    def test_bit_flip_corrupts_scheduled_save(self, tmp_path):
        for name, inner in make_stores(tmp_path).items():
            store = FaultyStore(inner, bit_flip_at=(0,), seed=FUZZ_SEED)
            g0 = store.save(b"flipped" * 30, cursor=0, records_processed=0)
            with pytest.raises(CheckpointCorruptError):
                inner.load(g0)

    def test_transient_io_errors_fire_once(self, tmp_path):
        for name, inner in make_stores(tmp_path).items():
            store = FaultyStore(
                inner, io_error_saves=(0,), io_error_loads=(0,), seed=FUZZ_SEED
            )
            with pytest.raises(TransientStoreError):
                store.save(b"x", cursor=0, records_processed=0)
            generation = store.save(b"x", cursor=0, records_processed=0)
            with pytest.raises(TransientStoreError):
                store.load_latest()
            assert store.load_latest().generation == generation, name
            assert store.faults_fired == 2

    def test_transient_error_is_oserror(self):
        # Supervisors retry OSError from the store; the injected fault
        # must be caught by that path.
        assert issubclass(TransientStoreError, OSError)

    def test_delegation_preserves_store_contract(self, tmp_path):
        inner = DiskCheckpointStore(tmp_path / "d", keep=2)
        store = FaultyStore(inner, seed=FUZZ_SEED)
        g = store.save(b"x", cursor=3, records_processed=2)
        assert store.generations() == [g]
        assert store.frame_size(g) == inner.frame_size(g)
        assert store.load(g).blob == b"x"

    def test_seeded_damage_is_deterministic(self, tmp_path):
        sizes = []
        for attempt in range(2):
            inner = InMemoryStore(keep=2)
            store = FaultyStore(inner, torn_write_at=(0,), seed=FUZZ_SEED)
            g = store.save(b"payload" * 64, cursor=0, records_processed=0)
            sizes.append(inner.frame_size(g))
        assert sizes[0] == sizes[1]
