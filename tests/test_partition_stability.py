"""Partition assignment must be reproducible across processes.

The builtin ``hash()`` is salted per process for strings (and anything
containing them), so ``hash(key) % parallelism`` routed the same key to
different partitions in different runs -- a restored keyed pipeline
would have consulted the wrong partition's state.  ``stable_hash``
(zlib.crc32 over a canonical encoding) fixes that; these tests pin the
behaviour, including across ``PYTHONHASHSEED`` values in subprocesses.
"""

import subprocess
import sys

from conftest import subprocess_env
from repro.runtime.partition import stable_hash


class TestStableHash:
    def test_deterministic_for_common_key_types(self):
        # Pinned values: changing the encoding silently would re-route
        # keys on restore, so a change here must be a conscious one.
        assert stable_hash("sensor-17") == stable_hash("sensor-17")
        assert stable_hash(b"sensor-17") == stable_hash(b"sensor-17")
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert stable_hash("sensor-17") == 3769463154

    def test_distinct_types_do_not_collide_by_encoding(self):
        values = [1, "1", b"1", 1.0, True, (1,), ["1"], None]
        encodings = {stable_hash(v) for v in values}
        assert len(encodings) == len(values)

    def test_container_keys(self):
        assert stable_hash(("user", 42)) != stable_hash(("user", 43))
        assert stable_hash(frozenset({1, 2})) == stable_hash(frozenset({2, 1}))

    def test_set_keys_encode_like_frozenset(self):
        # A plain set used to fall through to the repr fallback, whose
        # element order depends on PYTHONHASHSEED -- the same key routed
        # to different shards in different processes.  Sets and
        # frozensets compare equal in Python, so they must hash equal.
        assert stable_hash({1, 2}) == stable_hash({2, 1})
        assert stable_hash({1, 2}) == stable_hash(frozenset({1, 2}))
        assert stable_hash({"a", "b"}) == stable_hash({"b", "a"})
        assert stable_hash({1, 2}) != stable_hash({1, 3})

    def test_dict_keys_encode_by_sorted_items(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})
        assert stable_hash({}) != stable_hash(set())

    def test_namedtuple_keys_encode_as_tuples(self):
        import collections

        Point = collections.namedtuple("Point", "x y")
        # isinstance-based tagging: the old type-keyed lookup raised
        # KeyError for tuple subclasses.
        assert stable_hash(Point(1, 2)) == stable_hash((1, 2))

    def test_fallback_for_unregistered_types(self):
        import enum

        class Color(enum.Enum):
            RED = 1

        assert stable_hash(Color.RED) == stable_hash(Color.RED)

    def test_reasonably_uniform_over_partitions(self):
        parallelism = 8
        counts = [0] * parallelism
        for i in range(4000):
            counts[stable_hash(f"key-{i}") % parallelism] += 1
        expected = 4000 / parallelism
        for count in counts:
            assert 0.7 * expected < count < 1.3 * expected


#: ``keys = ...`` source lines for the subprocesses.
_STRING_KEYS = "keys = [f'key-{i % 97}' for i in range(500)]\n"
_SET_AND_DICT_KEYS = (
    "keys = [{f'tag-{i % 11}', f'tag-{(i * 7) % 13}', i % 5} for i in range(300)]\n"
    "keys += [{'region': f'r{i % 7}', 'tier': i % 3} for i in range(200)]\n"
)


def _routing_in_subprocess(keys_source: str, seed: str) -> str:
    """The shard every key lands on under the routing rule that ships
    (``ShardedPipeline.run``: ``stable_hash(key) % parallelism``),
    computed under a specific PYTHONHASHSEED."""
    code = (
        "from repro.runtime.partition import stable_hash\n"
        + keys_source
        + "print(','.join(str(stable_hash(key) % 5) for key in keys))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(PYTHONHASHSEED=seed),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_partitioning_identical_across_hash_seeds():
    digests = {
        _routing_in_subprocess(_STRING_KEYS, seed) for seed in ("0", "1", "424242")
    }
    assert len(digests) == 1, "partition routing depends on PYTHONHASHSEED"


def test_partitioning_matches_in_process_routing():
    """The parent process routes identically to a fresh subprocess."""
    keys = [f"key-{i % 97}" for i in range(500)]
    local = ",".join(str(stable_hash(key) % 5) for key in keys)
    assert len(set(local.split(","))) == 5  # every shard is hit
    assert local == _routing_in_subprocess(_STRING_KEYS, "7")


def test_set_and_dict_key_routing_identical_across_hash_seeds():
    """The satellite bug: set keys routed via the repr fallback, whose
    iteration order is salted -- routing differed between processes."""
    digests = {
        _routing_in_subprocess(_SET_AND_DICT_KEYS, seed)
        for seed in ("0", "1", "424242")
    }
    assert len(digests) == 1, "set/dict key routing depends on PYTHONHASHSEED"
