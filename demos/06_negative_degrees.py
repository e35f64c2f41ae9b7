"""Negative-degree groups and the norm correspondence.

For a finite group the theory glues cohomology and homology into one
Z-indexed family.  Below degree zero it vanishes at -1 and reproduces
ordinary homology shifted by one: degree -n-1 matches H_n.  The bridge is
the norm map: an invariant cycle is N.y for some chain y, and the class of
y downstairs is the invariant cycle's class.

Run:  python3 demos/06_negative_degrees.py
"""

import random

from tatejoin import (dihedral, homology, is_stably_zero, phi, phi_inverse,
                      random_cycle, syzygy_resolution, tate_group)


def main():
    res = syzygy_resolution(dihedral(4), 6)
    print(f"degrees -6..-1 for {res.group.label}:")
    for k in range(-6, 0):
        print(f"  degree {k}: {tate_group(res, k)}")
    print("(degree -1 always vanishes; -n-1 repeats H_n)")

    print()
    h3 = homology(res, 3)
    z = h3.generators[-1]
    print(f"take the last generator of {h3}")
    x = phi_inverse(res, 3, z)
    print(f"its invariant-cycle avatar has nonzero coordinates {x.vector}")
    print(f"classifying the avatar recovers the class: "
          f"{phi(x)} == {h3.classify(z)}")
    print(f"the slow group-ring-solver path agrees: "
          f"{phi(x, via_solver=True)}")

    print()
    print("stably-zero detection on random degree-3 cycles:")
    rng = random.Random(7)
    for _ in range(6):
        z = random_cycle(res, 3, rng)
        x = phi_inverse(res, 3, z)
        cls = h3.classify(z)
        print(f"  class {cls}: stably zero = {is_stably_zero(x)}")
        assert is_stably_zero(x) == (not any(cls))

    # a boundary is the cleanest zero class: its avatar factors through a
    # projective and the detector says so
    chain = [(-1) ** i * (i + 1) for i in range(res.ranks[4])]
    boundary = res.down_boundary(4, chain)
    cls = h3.classify(boundary)
    x = phi_inverse(res, 3, boundary)
    print(f"  boundary of a degree-4 chain: class {cls}, "
          f"stably zero = {is_stably_zero(x)}")
    assert is_stably_zero(x)


if __name__ == "__main__":
    main()
