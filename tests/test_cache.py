"""Mappings cache: segment policies, wire format, reference equivalence."""

import random

import pytest
from hypothesis import given, strategies as st

from cache_reference import ReferenceCache
from r2o.cache import (
    MAP_HEADER,
    CacheConfig,
    MappingEntry,
    MappingsCache,
    UnsupportedVersion,
)

P = "http://fp.example/fp/photos/{}.png".format
O = "http://off.example/v1/objects/{:016x}".format


def entry(i, hits=0):
    return MappingEntry(pseudo_locator=P(i), offsite_locator=O(i),
                        hit_count=hits)


# -- entry validation -------------------------------------------------------

def test_entry_validation():
    with pytest.raises(ValueError):
        MappingEntry(pseudo_locator="", offsite_locator="x").validate()
    with pytest.raises(ValueError):
        MappingEntry(pseudo_locator="same", offsite_locator="same").validate()
    with pytest.raises(ValueError):
        MappingEntry(pseudo_locator="a", offsite_locator="b",
                     media_class="video").validate()
    with pytest.raises(ValueError):
        MappingEntry(pseudo_locator="a", offsite_locator="b",
                     hit_count=-1).validate()


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(n_frequent=-1)


# -- segment policies -------------------------------------------------------

def test_created_goes_to_frequent_resolved_to_recent():
    cache = MappingsCache()
    cache.record_created(entry(1))
    cache.record_resolved(entry(2))
    frequent, recent = cache.snapshot()
    assert P(1) in frequent and P(1) not in recent
    assert P(2) in recent and P(2) not in frequent


def test_lookup_returns_offsite_and_none():
    cache = MappingsCache()
    cache.record_created(entry(1))
    assert cache.lookup(P(1)) == O(1)
    assert cache.lookup(P(99)) is None
    assert P(1) in cache and P(99) not in cache


def test_repeated_resolution_counts_uses():
    cache = MappingsCache()
    for _ in range(3):
        cache.record_resolved(entry(7, hits=1))
    _, recent = cache.snapshot()
    assert recent[P(7)].hit_count == 3


def test_lookup_bumps_hit_count_and_recency():
    cache = MappingsCache()
    cache.record_created(entry(1))
    before = cache.snapshot()[0][P(1)]
    assert cache.lookup(P(1)) == O(1)
    after = cache.snapshot()[0][P(1)]
    assert after.hit_count == before.hit_count + 1
    assert after.last_used > before.last_used


def test_frequent_evicts_lowest_hit_count():
    cache = MappingsCache(CacheConfig(n_frequent=2, m_recent=8))
    cache.record_created(entry(1, hits=5))
    cache.record_created(entry(2, hits=1))
    cache.record_created(entry(3, hits=3))
    frequent, _ = cache.snapshot()
    assert set(frequent) == {P(1), P(3)}


def test_recent_evicts_least_recently_used():
    cache = MappingsCache(CacheConfig(n_frequent=8, m_recent=2))
    cache.record_resolved(entry(1))
    cache.record_resolved(entry(2))
    assert cache.lookup(P(1)) == O(1)  # refresh 1; 2 is now LRU
    cache.record_resolved(entry(3))
    _, recent = cache.snapshot()
    assert set(recent) == {P(1), P(3)}


def test_zero_capacity_segments_hold_nothing():
    cache = MappingsCache(CacheConfig(n_frequent=0, m_recent=0))
    cache.record_created(entry(1))
    cache.record_resolved(entry(2))
    assert len(cache) == 0
    assert cache.lookup(P(1)) is None


def test_key_in_both_segments_prefers_frequent():
    cache = MappingsCache()
    cache.record_created(MappingEntry(pseudo_locator=P(1),
                                      offsite_locator=O(1)))
    cache.record_resolved(MappingEntry(pseudo_locator=P(1),
                                       offsite_locator=O(2)))
    # both copies exist; the frequent copy answers
    assert cache.lookup(P(1)) == O(1)
    frequent, recent = cache.snapshot()
    assert frequent[P(1)].offsite_locator == O(1)
    assert recent[P(1)].offsite_locator == O(2)


def test_created_entries_are_stamped_by_the_clock():
    cache = MappingsCache()
    cache.record_created(entry(1))
    cache.record_created(entry(2))
    frequent, _ = cache.snapshot()
    assert 0 < frequent[P(1)].last_used < frequent[P(2)].last_used


def test_last_used_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        MappingEntry("a", "b", last_used=5)
    assert MappingEntry("a", "b").last_used is None


# -- wire format ------------------------------------------------------------

def test_export_format_shape():
    cache = MappingsCache()
    cache.record_created(entry(2, hits=9))
    cache.record_resolved(entry(1))
    blob = cache.export_mappings()
    lines = blob.decode().splitlines()
    assert lines[0] == MAP_HEADER
    assert lines[1:] == sorted(lines[1:])
    # counts and timestamps stay private to the instance
    for line in lines[1:]:
        assert line.count("\t") == 2
        assert "9" not in line.split("\t")[2]


def test_export_selections():
    cache = MappingsCache()
    cache.record_created(entry(1))
    cache.record_resolved(entry(2))
    freq = cache.export_mappings("frequent").decode()
    rec = cache.export_mappings("recent").decode()
    assert P(1) in freq and P(2) not in freq
    assert P(2) in rec and P(1) not in rec
    # a prefix filters whichever selection it is given
    assert P(1) in cache.export_mappings(prefix=P(1)).decode()
    assert P(2) not in cache.export_mappings(prefix=P(1)).decode()
    assert P(1) in cache.export_mappings("frequent", prefix=P(1)).decode()
    assert P(1) not in cache.export_mappings("recent", prefix=P(1)).decode()
    for gone in ("by-prefix", "nonsense"):
        with pytest.raises(ValueError):
            cache.export_mappings(gone)


def test_import_round_trip():
    source = MappingsCache()
    for i in range(5):
        source.record_created(entry(i))
    sink = MappingsCache()
    assert sink.import_mappings(source.export_mappings()) == (5, 0)
    for i in range(5):
        assert sink.lookup(P(i)) == O(i)


def test_wire_format_keeps_image_and_text_lines():
    # the codec makes image stand-ins only, but r2o-map/1 still carries
    # both media classes: a shared blob comes back out byte for byte
    blob = (f"{MAP_HEADER}\n{P(1)}\t{O(1)}\timage\n"
            f"{P(2)}\t{O(2)}\ttext\n").encode()
    cache = MappingsCache()
    assert cache.import_mappings(blob) == (2, 0)
    assert cache.export_mappings() == blob


def test_imported_entries_start_unproven():
    # imports land in the recent segment with zero hits: shared mappings
    # must not displace locally created ones on frequency grounds
    sink = MappingsCache()
    sink.import_mappings(
        f"{MAP_HEADER}\n{P(1)}\t{O(1)}\timage\n".encode())
    frequent, recent = sink.snapshot()
    assert not frequent
    assert recent[P(1)].hit_count == 0


def test_import_skips_malformed_lines():
    blob = "\n".join([
        MAP_HEADER,
        f"{P(1)}\t{O(1)}\timage",
        "only-one-field",
        f"{P(2)}\t{P(2)}\timage",      # pseudo == offsite
        f"{P(3)}\t{O(3)}\tvideo",      # unknown media class
        f"{P(4)}\t{O(4)}\timage",
    ]).encode() + b"\n"
    cache = MappingsCache()
    assert cache.import_mappings(blob) == (2, 3)


def test_import_skips_offsite_locators_outside_rfc_3986():
    blob = "\n".join([
        MAP_HEADER,
        f"{P(1)}\t{O(1)}\timage",
        f'{P(2)}\t{O(2)}"onerror="alert(1)\timage',
        f"{P(3)}\t{O(3)}><script>\timage",
        f"{P(4)}\tftp://off.example/4\timage",
    ]).encode() + b"\n"
    cache = MappingsCache()
    assert cache.import_mappings(blob) == (1, 3)
    assert cache.lookup(P(2)) is None


def test_import_rejects_unknown_header():
    cache = MappingsCache()
    with pytest.raises(UnsupportedVersion):
        cache.import_mappings(b"r2o-map/9\n")
    with pytest.raises(UnsupportedVersion):
        cache.import_mappings(b"\xff\xfe\x00")


# -- reference equivalence --------------------------------------------------

def caches_agree(cache, ref):
    frequent, recent = cache.snapshot()
    got = (
        {k: (e.offsite_locator, e.media_class, e.hit_count, e.last_used)
         for k, e in frequent.items()},
        {k: (e.offsite_locator, e.media_class, e.hit_count, e.last_used)
         for k, e in recent.items()},
    )
    return got == ref.state()


def drive_pair(seed, steps, n, m, keys=20):
    rng = random.Random(seed)
    cache = MappingsCache(CacheConfig(n_frequent=n, m_recent=m))
    ref = ReferenceCache(n, m)
    for step in range(steps):
        i = rng.randrange(keys)
        op = rng.random()
        if op < 0.35:
            hits = rng.randrange(4)
            cache.record_created(entry(i, hits=hits))
            ref.record_created(P(i), O(i), hits=hits)
        elif op < 0.70:
            cache.record_resolved(entry(i, hits=1))
            ref.record_resolved(P(i), O(i), hits=1)
        else:
            assert cache.lookup(P(i)) == ref.lookup(P(i))
        if not caches_agree(cache, ref):
            return step
    return None


def test_reference_equivalence_randomized():
    for seed in range(12):
        n = seed % 5
        m = (seed * 7) % 6 + 1
        diverged = drive_pair(seed, 1500, n, m)
        assert diverged is None, f"seed {seed} diverged at step {diverged}"


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(0, 6),
       st.integers(0, 6))
def test_property_reference_equivalence(seed, n, m):
    assert drive_pair(seed, 120, n, m, keys=9) is None


# -- frequent-segment eviction ------------------------------------------------

class MinFrequent:
    """The frequent segment's rule as one min() over every entry."""

    def __init__(self, n):
        self.n, self.tick, self.entries = n, 0, {}

    def record(self, key, hits):
        self.tick += 1
        self.entries[key] = (hits, self.tick)
        while len(self.entries) > self.n:
            del self.entries[min(self.entries,
                                 key=lambda k: (*self.entries[k], k))]

    def lookup(self, key):
        if key in self.entries:
            self.tick += 1
            self.entries[key] = (self.entries[key][0] + 1, self.tick)


@given(st.integers(0, 5),
       st.lists(st.tuples(st.booleans(), st.integers(0, 7),
                          st.integers(0, 3)), max_size=200))
def test_frequent_eviction_matches_min(n, ops):
    cache = MappingsCache(CacheConfig(n_frequent=n, m_recent=0))
    ref = MinFrequent(n)
    for is_record, i, hits in ops:
        if is_record:  # a new key or a re-record, with any start count
            cache.record_created(entry(i, hits=hits))
            ref.record(P(i), hits)
        else:
            cache.lookup(P(i))
            ref.lookup(P(i))
        frequent, _ = cache.snapshot()
        assert {k: (e.hit_count, e.last_used)
                for k, e in frequent.items()} == ref.entries


def test_re_records_leave_the_rank_heap_bounded():
    cache = MappingsCache(CacheConfig(n_frequent=8))
    for i in range(3):
        cache.record_created(entry(i))
    for _ in range(10_000):
        cache.record_created(entry(1))
    assert len(cache._ranks) <= 2 * 8 + 1
    assert sorted(cache.snapshot()[0]) == [P(0), P(1), P(2)]
