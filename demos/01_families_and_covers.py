#!/usr/bin/env python3
"""Tour of the core primitives: bitmask families, covering numbers, the star
operator, and closure to a maximal cross-intersecting pair.

Families live over a ground set [n] with n <= 64; a subset is an int bitmask
(element i <-> bit i-1), so the intersection kernels are single AND+popcount
operations.
"""

from xfam import (
    Family,
    closure_pair,
    covering_number,
    elements_of,
    is_maximal_pair,
    star,
)

print("=" * 64)
print("A family is a k-uniform collection of subsets of [n]")
print("=" * 64)

triangle = Family.from_sets(5, 2, [(1, 2), (1, 3), (2, 3)])
print(f"triangle over [5]: {triangle.to_sets()}")

print()
print("Covering numbers: the smallest T meeting every member in >= t")
print("-" * 64)
cov = covering_number(triangle, 1)
print(f"tau_1(triangle) = {cov.tau}")
print(f"ALL minimum covers: {[elements_of(c) for c in cov.covers]}")
print(f"their union M:     {elements_of(cov.union)}")
print("no single element hits all three edges, so tau is 2, and every")
print("edge itself is a minimum cover.")

print()
print("The star operator: the largest m-uniform family cross-t-intersecting")
print("with a given one")
print("-" * 64)
single = Family.from_sets(4, 2, [(1, 2)])
st = star(single, 2, 1)
print(f"star of {{{{1,2}}}} among 2-sets of [4]: {st.to_sets()}")
print("only {3,4} is missing: it is disjoint from the seed.")

print()
print("Closure: one star each way reaches a maximal pair")
print("-" * 64)
f, g = closure_pair(single, single, 1)
print(f"closure of ({{{{1,2}}}}, {{{{1,2}}}}):")
print(f"  first side : {f.to_sets()}")
print(f"  second side: {g.to_sets()}")
print(f"maximal pair: {is_maximal_pair(f, g, 1)}")
print("the pair cannot grow: adding {1,3} to the first side would clash")
print("with {2,4} on the second.")
