"""Restricted-growth-string enumeration of set partitions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wspkit.partitions import blocks, growth_string, growth_strings

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


@given(n=st.integers(0, 6))
def test_blocks_and_growth_string(n):
    seen = set()
    for code in growth_strings(n):
        parts = blocks(code)
        # the blocks partition range(n), ordered by their first position
        assert sorted(i for b in parts for i in b) == list(range(n))
        assert all(b == sorted(b) for b in parts)
        assert [b[0] for b in parts] == sorted(b[0] for b in parts)
        assert all(code[i] == which for which, b in enumerate(parts) for i in b)
        # a growth string is a fixed point, and any injective relabelling
        # of it has the same growth string
        assert growth_string(code) == code
        relabelled = [f"u{7 * (n - x)}" for x in code]
        assert growth_string(relabelled) == code
        seen.add(frozenset(frozenset(b) for b in parts))
    assert len(seen) == BELL[n]


@given(labels=st.lists(st.integers(-3, 3), max_size=8))
def test_growth_string_of_any_labelling(labels):
    code = growth_string(labels)
    assert growth_string(code) == code
    # positions share a block iff they share a label
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            assert (code[i] == code[j]) == (x == y)


def test_negative_length_refused():
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        list(growth_strings(-1))
