"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import CacheGeometry, SetAssociativeCache
from repro.hw.cache import AccessResult, CacheLine
from repro.isa import HOST_DOMAIN, realm_domain
from repro.snap.capture import canon

REALM = realm_domain(1)


def small_cache(ways=2, sets=4, line=64):
    return SetAssociativeCache(
        CacheGeometry("test", line * ways * sets, line, ways)
    )


class TestGeometry:
    def test_n_sets(self):
        geo = CacheGeometry("g", 64 * 1024, 64, 8)
        assert geo.n_sets == 128

    def test_indexing_wraps(self):
        geo = CacheGeometry("g", 64 * 1024, 64, 8)
        assert geo.set_index(0) == geo.set_index(128 * 64)

    def test_tag_differs_for_aliasing_addresses(self):
        geo = CacheGeometry("g", 64 * 1024, 64, 8)
        assert geo.tag(0) != geo.tag(128 * 64)

    @pytest.mark.parametrize(
        "size, line, ways",
        [(1000, 64, 8), (0, 64, 8), (-512, 64, 8), (512, 0, 8), (512, 64, 0)],
        ids=["indivisible", "zero-size", "negative-size", "zero-line", "zero-ways"],
    )
    def test_bad_geometry_rejected(self, size, line, ways):
        with pytest.raises(ValueError):
            CacheGeometry("bad", size, line, ways)


class TestAccess:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x1000, HOST_DOMAIN).hit
        assert cache.access(0x1000, HOST_DOMAIN).hit
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_different_offset_hits(self):
        cache = small_cache()
        cache.access(0x1000, HOST_DOMAIN)
        assert cache.access(0x1030, HOST_DOMAIN).hit  # same 64B line

    def test_lru_eviction_within_set(self):
        cache = small_cache(ways=2, sets=1)
        cache.access(0 * 64, HOST_DOMAIN)
        cache.access(1 * 64, HOST_DOMAIN)
        cache.access(0 * 64, HOST_DOMAIN)  # refresh line 0
        result = cache.access(2 * 64, HOST_DOMAIN)  # evicts line 1 (LRU)
        assert result.evicted is not None
        assert not cache.probe(1 * 64)
        assert cache.probe(0 * 64)

    def test_probe_does_not_fill(self):
        cache = small_cache()
        assert not cache.probe(0x2000)
        assert cache.filled_lines == 0

    def test_eviction_carries_victim_domain(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, REALM)
        result = cache.access(64, HOST_DOMAIN)
        assert result.evicted.domain == REALM


class TestDomainTagging:
    def test_domains_present(self):
        cache = small_cache()
        cache.access(0x0, HOST_DOMAIN)
        cache.access(0x40, REALM)
        assert cache.domains_present() == {HOST_DOMAIN, REALM}

    def test_access_retags_line(self):
        cache = small_cache()
        cache.access(0x0, REALM)
        cache.access(0x0, HOST_DOMAIN)
        assert cache.domains_present() == {HOST_DOMAIN}

    def test_flush_domain_selective(self):
        cache = small_cache()
        cache.access(0x0, HOST_DOMAIN)
        cache.access(0x40, REALM)
        dropped = cache.flush_domain(REALM)
        assert dropped == 1
        assert cache.domains_present() == {HOST_DOMAIN}

    def test_full_flush(self):
        cache = small_cache()
        for i in range(8):
            cache.access(i * 64, HOST_DOMAIN)
        dropped = cache.flush()
        assert dropped == 8
        assert cache.filled_lines == 0

    def test_occupancy_by_domain(self):
        cache = small_cache()
        cache.access(0x0, HOST_DOMAIN)
        cache.access(0x40, HOST_DOMAIN)
        cache.access(0x80, REALM)
        occ = cache.occupancy_by_domain()
        assert occ[HOST_DOMAIN] == 2
        assert occ[REALM] == 1


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = small_cache(ways=2, sets=4)
        for addr in addrs:
            cache.access(addr, HOST_DOMAIN)
        assert cache.filled_lines <= 8
        for idx in range(4):
            assert len(cache.set_occupancy(idx)) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache = small_cache()
        for addr in addrs:
            cache.access(addr, HOST_DOMAIN)
        assert cache.hits + cache.misses == len(addrs)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_accessed_line_is_always_present_after(self, addrs):
        cache = small_cache()
        for addr in addrs:
            cache.access(addr, HOST_DOMAIN)
            assert cache.probe(addr)


class DenseReferenceCache:
    """Reference model: one list per set from construction on, and
    every walk visits every set."""

    def __init__(self, geometry):
        self.geometry = geometry
        self._sets = [[] for _ in range(geometry.n_sets)]
        self._tick = 0

    def access(self, addr, domain):
        self._tick += 1
        set_index = self.geometry.set_index(addr)
        tag = self.geometry.tag(addr)
        lines = self._sets[set_index]
        for line in lines:
            if line.tag == tag:
                line.last_touch = self._tick
                line.domain = domain
                return AccessResult(hit=True, set_index=set_index)
        evicted = None
        if len(lines) >= self.geometry.ways:
            victim = min(lines, key=lambda l: l.last_touch)
            lines.remove(victim)
            evicted = victim
        lines.append(CacheLine(tag=tag, domain=domain, last_touch=self._tick))
        return AccessResult(hit=False, set_index=set_index, evicted=evicted)

    def probe(self, addr):
        set_index = self.geometry.set_index(addr)
        tag = self.geometry.tag(addr)
        return any(line.tag == tag for line in self._sets[set_index])

    def flush(self):
        dropped = sum(len(s) for s in self._sets)
        self._sets = [[] for _ in range(self.geometry.n_sets)]
        return dropped

    def flush_domain(self, domain):
        dropped = 0
        for lines in self._sets:
            keep = [l for l in lines if l.domain != domain]
            dropped += len(lines) - len(keep)
            lines[:] = keep
        return dropped

    def domains_present(self):
        return {line.domain for lines in self._sets for line in lines}

    def set_occupancy(self, set_index):
        return list(self._sets[set_index])

    def occupancy_by_domain(self):
        counts = {}
        for lines in self._sets:
            for line in lines:
                counts[line.domain] = counts.get(line.domain, 0) + 1
        return counts

    @property
    def filled_lines(self):
        return sum(len(s) for s in self._sets)


_DOMAINS = st.sampled_from([HOST_DOMAIN, REALM, realm_domain(2)])
#: four times the small cache's span, so tags alias in every set
_ADDRS = st.integers(min_value=0, max_value=4 * 64 * 2 * 4 - 1)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), _ADDRS, _DOMAINS),
        st.tuples(st.just("probe"), _ADDRS),
        st.tuples(st.just("flush")),
        st.tuples(st.just("flush_domain"), _DOMAINS),
    ),
    max_size=120,
)


class TestSparseMatchesDense:
    @given(_OPS)
    @settings(max_examples=200, deadline=None)
    def test_every_step_matches_the_dense_reference(self, ops):
        cache = small_cache(ways=2, sets=4)
        reference = DenseReferenceCache(cache.geometry)
        for name, *args in ops:
            assert getattr(cache, name)(*args) == getattr(reference, name)(*args)
            assert cache.domains_present() == reference.domains_present()
            assert cache.occupancy_by_domain() == reference.occupancy_by_domain()
            assert cache.filled_lines == reference.filled_lines
            for set_index in range(cache.geometry.n_sets):
                assert cache.set_occupancy(set_index) == (
                    reference.set_occupancy(set_index)
                )
            assert canon(cache._sets) == canon(reference._sets)
