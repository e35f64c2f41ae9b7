"""Anatomy of the join of two resolutions.

The join P*Q is the suspended tensor product: in degree d it collects
P_{k-1} (x) Q_{d-k} over all k, with the degree -1 slot standing in for a
bare copy of the other factor.  Its basis elements are tagged tuples
(k, i, g, j): position k, basis index i of P_{k-1}, a group element g
twisting the right factor, and basis index j of Q_{d-k}.  A chain is a
dict {basis index: nonzero group ring element}, one entry per basis
vector it touches.

Run:  python3 demos/02_join_construction.py
"""

from tatejoin import (GroupRingElement, down_vector, include_cycle_tensor,
                      join, join_rank, norm_element,
                      periodic_cyclic_resolution, validate_resolution)


def main():
    res = periodic_cyclic_resolution(2, 5)
    J = join(res, res, 4)
    print(f"join of {res.label} with itself, depth {J.depth}")
    print(f"group: {J.group.label} (order {J.group.order})")

    print()
    print("ranks by degree, against the closed-form count:")
    for d in range(J.depth + 1):
        formula = join_rank(res, res, d)
        print(f"  degree {d}: rank {J.rank(d)} == {formula}, "
              f"{len(J.bases[d])} tagged basis tuples")
        assert J.rank(d) == formula == len(J.bases[d])

    print()
    print("degree-2 basis tags (k, i, g, j):")
    for tag in J.bases[2]:
        print(f"  {tag}")

    print()
    print("the join is itself a valid resolution (certificates below;")
    print("validation's first read of each differential builds it and")
    print("proves its d o d = 0 line):")
    report = validate_resolution(J)
    for check in report.checks:
        print(f"  {'PASS' if check['passed'] else 'FAIL'} {check['name']}")
    assert report.passed

    print()
    print("a cycle of P_1 tensored with a chain of P_1 includes into")
    print("join degree 3; the inclusion untwists the left coordinates:")
    x = {0: norm_element(res.group)}  # the invariant cycle N.e
    y = {0: GroupRingElement.basis(res.group, 0)}
    vec = include_cycle_tensor(J, x, 1, y, 1)
    for pos in sorted(vec):
        print(f"  {J.bases[3][pos]}: {vec[pos]}")
    img = J.apply_differential(3, vec)
    print(f"  boundary is nonzero in the chain complex: {bool(img)}")
    print(f"  but dies after tensoring down: {not down_vector(img)}")


if __name__ == "__main__":
    main()
