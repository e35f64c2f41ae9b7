"""The answers do not depend on which resolution you build.

Any two free resolutions of Z over the same group ring are linked by
comparison chain maps lifting the identity, and those maps carry homology
classes back and forth.  Here the huge generic bar resolution of C_3 and
the minimal 4-term-periodic one produce the same groups and the same
products once classes are transported.

Run:  python3 demos/05_resolution_independence.py
"""

from tatejoin import (ComparisonLift, ProductContext, bar_resolution, cyclic,
                      homology, periodic_cyclic_resolution)


def transport(lift, k, vec):
    # the induced map on the tensored-down complexes, applied to a cycle
    return lift.transport_down(k, {j: c for j, c in enumerate(vec) if c})


def cycle_of(h, coords, res):
    out = [0] * res.ranks[h.degree]
    for c, gen in zip(coords, h.generators):
        if c:
            out = [u + c * v for u, v in zip(out, gen)]
    return out


def main():
    bar = bar_resolution(cyclic(3), 4)
    per = periodic_cyclic_resolution(3, 8)
    print(f"bar ranks:      {bar.ranks}")
    print(f"periodic ranks: {per.ranks}")

    to_per = ComparisonLift(bar, per)
    to_bar = ComparisonLift(per, bar)
    print("comparison maps in both directions: each column is lifted on "
          "first use and certified by multiplying it back in Z[G]")

    print()
    print("homology matches degree by degree:")
    for n in range(0, 4):
        hb = homology(bar, n)
        hp = homology(per, n)
        print(f"  degree {n}: bar {hb.invariant_factors} == "
              f"periodic {hp.invariant_factors}")
        assert hb.invariant_factors == hp.invariant_factors

    print()
    gen_b = homology(bar, 1).generators[0]
    print(f"bar H_1 generator has {sum(1 for v in gen_b if v)} nonzero "
          f"coordinates out of {len(gen_b)}")
    prod_b = ProductContext(bar).join_product(1, gen_b, 1, gen_b)

    hb3 = homology(bar, 3)
    hp1 = homology(per, 1)
    hp3 = homology(per, 3)
    moved = hp3.classify(transport(to_per, 3, cycle_of(hb3, prod_b, bar)))
    rep = cycle_of(hp1, hp1.classify(transport(to_per, 1, gen_b)), per)
    native = ProductContext(per).join_product(1, rep, 1, rep)
    print(f"product over bar, transported to periodic: class {moved}")
    print(f"product computed natively over periodic:   class {native}")
    assert moved == native

    back = hb3.classify(transport(to_bar, 3, cycle_of(hp3, moved, per)))
    print(f"carried back to bar coordinates: {back} == {prod_b}: "
          f"{back == prod_b}")


if __name__ == "__main__":
    main()
