"""The ten rings the seeded tests draw from, in the order they draw them:
the orthants of rank 1 to 4, the Veronese rings V(2, 2), V(3, 2) and
V(2, 3), the square cone, the index-5 cone and cone((1, 0), (1, 2))."""

from tauideal.lattice import orthant_ring, toric_ring
from tauideal.tau import veronese_ring

TEST_RINGS = [orthant_ring(d) for d in range(1, 5)] + [
    veronese_ring(2, 2), veronese_ring(3, 2), veronese_ring(2, 3),
    toric_ring([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    toric_ring([(0, 1), (5, -2)]),
    toric_ring([(1, 0), (1, 2)]),
]
