"""Property-based bit-identity: array-kernel Block Purging / Block
Filtering vs the set-based oracle they replaced.

The kernels run on the CSR entity index; the oracle
(``tests/_block_oracles.py``) walks ``Block`` objects and Python sets.
For any clean-clean or dirty collection — Block-born or index-born,
with many equal-size blocks (so the ``(size, position)`` tie-break
decides), profiles indexed by 1, 5, 15 or 25 blocks, zero-comparison blocks
in the input, any ``ratio`` in (0, 1] — both must emit the same blocks
in the same order, and the kernel's index must be exactly the lowering
of those blocks, dtypes included.
"""

from hypothesis import given, settings, strategies as st

from _block_oracles import (
    assert_bit_identical,
    oracle_block_filtering,
    oracle_block_purging,
)
from repro.blocking.base import Block, BlockCollection
from repro.blocking.filtering import block_filtering
from repro.blocking.purging import block_purging

SIDE = 12  # profiles per source; clean-clean E2 ids start here
MAX_BLOCKS = 26

# The keep count is ceil() of the *float64* product: 0.28 * 25 and
# 0.56 * 25 land just above an integer (7.000000000000001), so a hub
# profile in 25 blocks tells the float rule from exact arithmetic.
ratios = st.one_of(
    st.sampled_from([0.8, 0.7, 0.56, 0.3, 0.28, 0.1, 1 / 3, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@st.composite
def collections(draw):
    """A raw collection: small (hence often equal-size) blocks, plus hub
    profiles forced into the first 1, 5, 15 or 25 blocks."""
    clean = draw(st.booleans())
    num_blocks = draw(st.integers(0, MAX_BLOCKS))
    lefts = [
        set(draw(st.sets(st.integers(0, SIDE - 1), max_size=3)))
        for _ in range(num_blocks)
    ]
    rights = [
        set(draw(st.sets(st.integers(SIDE, 2 * SIDE - 1), max_size=3)))
        for _ in range(num_blocks)
    ]
    hubs = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2 * SIDE - 1), st.sampled_from([1, 5, 15, 25])
            ),
            max_size=4,
        )
    )
    for profile, spread in hubs:
        for position in range(min(spread, num_blocks)):
            (lefts if profile < SIDE or not clean else rights)[position].add(
                profile
            )
    blocks = []
    for position, (left, right) in enumerate(zip(lefts, rights)):
        key = f"k{position:02d}"
        if clean:
            blocks.append(Block(key, frozenset(left), frozenset(right)))
        else:
            blocks.append(Block(key, frozenset(left | right)))
    collection = BlockCollection(blocks, clean)
    if draw(st.booleans()):  # the same blocks, index-born
        collection = BlockCollection.from_index(collection.entity_index)
    return collection


class TestKernelsMatchSetOracle:
    @settings(deadline=None, max_examples=300)
    @given(collections(), ratios)
    def test_filtering(self, collection, ratio):
        assert_bit_identical(
            block_filtering(collection, ratio=ratio),
            oracle_block_filtering(collection, ratio=ratio),
        )

    @settings(deadline=None, max_examples=200)
    @given(
        collections(),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.none() | st.integers(0, 12),
    )
    def test_purging(self, collection, ratio, max_comparisons):
        arguments = dict(
            num_profiles=2 * SIDE,
            max_profile_ratio=ratio,
            max_comparisons=max_comparisons,
        )
        assert_bit_identical(
            block_purging(collection, **arguments),
            oracle_block_purging(collection, **arguments),
        )

    @settings(deadline=None, max_examples=150)
    @given(collections(), ratios, st.none() | st.integers(1, 12))
    def test_purge_then_filter(self, collection, ratio, max_comparisons):
        """The pipeline's chain: the filter's input is index-born."""
        purged = block_purging(
            collection, 2 * SIDE, max_comparisons=max_comparisons
        )
        assert_bit_identical(
            block_filtering(purged, ratio=ratio),
            oracle_block_filtering(
                oracle_block_purging(
                    collection, 2 * SIDE, max_comparisons=max_comparisons
                ),
                ratio=ratio,
            ),
        )
