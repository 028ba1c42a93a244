"""Restricted-growth-string enumeration of set partitions."""

from hypothesis import given
from hypothesis import strategies as st

from wspkit.partitions import growth_strings, set_partitions

# Bell numbers: the number of set partitions of an n-element set
BELL = (1, 1, 2, 5, 15, 52, 203, 877)


@given(n=st.integers(0, 7))
def test_growth_strings_count_and_order(n):
    codes = list(growth_strings(n))
    assert len(codes) == BELL[n]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    for code in codes:
        # restricted growth: each value at most one above the running max
        top = -1
        for x in code:
            assert 0 <= x <= top + 1
            top = max(top, x)


@given(n=st.integers(1, 6))
def test_set_partitions_are_partitions(n):
    items = [f"x{i}" for i in range(n)]
    seen = set()
    for blocks in set_partitions(items):
        flat = [x for b in blocks for x in b]
        assert sorted(flat) == sorted(items)
        assert all(b for b in blocks)
        key = frozenset(frozenset(b) for b in blocks)
        assert key not in seen
        seen.add(key)
    assert len(seen) == BELL[n]
