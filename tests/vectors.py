"""Hand-checked 16-element key vectors shared across test modules."""

# Ascending baseline.
SORTED16 = [4, 6, 8, 23, 25, 33, 34, 39, 45, 55, 56, 62, 68, 72, 84, 85]

# SORTED16 with seven adjacent pairs swapped: every element is within
# distance 1 of its sorted slot, 7 inversions, 8 runs.
SWAPPED_PAIRS16 = [6, 4, 23, 8, 33, 25, 39, 34, 45, 56, 55, 62, 72, 68, 85, 84]

# First and second half exchanged: two sorted blocks of 8, every element
# displaced by exactly 8.
HALF_SWAP16 = [45, 55, 56, 62, 68, 72, 84, 85, 4, 6, 8, 23, 25, 33, 34, 39]

# Decomposes into maximal blocks (4)(6,8)(23,25,33,34,39,45)(55,56)(62,68)
# (72)(84)(85), size multiset {6,2,2,2,1,1,1,1}.
BLOCKS16 = [62, 23, 6, 25, 85, 33, 8, 34, 39, 84, 72, 55, 56, 4, 45, 68]
BLOCKS16_MULTISET = (6, 2, 2, 2, 1, 1, 1, 1)
BLOCKS16_BLOCK_KEYS = [
    [4],
    [6, 8],
    [23, 25, 33, 34, 39, 45],
    [55, 56],
    [62, 68],
    [72],
    [84],
    [85],
]

# A placement aiming for blocks of sizes 2,5,2,2,1,3,1 where two block
# boundaries chain (45 follows 39, 72 follows 68), so the actual maximal
# decomposition is the coarser {8,3,2,2,1}.
MERGEABLE16 = [6, 23, 8, 25, 84, 33, 62, 34, 39, 85, 68, 45, 72, 55, 4, 56]
MERGEABLE16_MULTISET = (8, 3, 2, 2, 1)

# Same placement after swapping 45 with 39 and 72 with 68: both boundaries
# are broken and the intended multiset {5,3,2,2,2,1,1} is realized.
REPAIRED16 = [6, 23, 8, 25, 84, 33, 62, 34, 45, 85, 72, 39, 68, 55, 4, 56]
REPAIRED16_MULTISET = (5, 3, 2, 2, 2, 1, 1)

# A permutation of 1..100 found by hill climbing from the reverse order (each
# step swaps two positions or reverses a segment, kept unless the charge
# falls).  select_exact_median charges 1231 comparisons on it, above the
# 11n + 8 = 1108 that the fixed selection batteries stay under.
MEDIAN_CLIMB100 = [
    99, 100, 56, 96, 72, 97, 85, 89, 88, 80, 95, 84, 83, 27, 69, 67, 81, 33, 18, 20, 94, 91,
    28, 61, 54, 77, 98, 86, 82, 76, 74, 38, 73, 71, 9, 50, 93, 90, 30, 34, 66, 36, 53, 4, 29,
    87, 57, 75, 64, 62, 11, 63, 52, 35, 19, 70, 21, 13, 14, 1, 68, 12, 65, 32, 31, 5, 43, 59,
    26, 10, 24, 51, 37, 3, 2, 58, 48, 49, 45, 46, 44, 25, 40, 7, 6, 92, 79, 60, 78, 42, 23, 55,
    47, 15, 16, 39, 41, 22, 8, 17,
]
