"""One product, two independent constructions.

Negative-degree products are computed here as maps on ordinary homology:
the class pairing H_{n-1} x H_{m-1} -> H_{n+m-1}.  The join pipeline
includes a tensor of cycles into the join of the resolution with itself
and carries it back by a chain map from a contraction of the resolution
(the basic perturbation lemma).  The composition
pipeline lifts one cycle to a chain map shifting degrees by n and composes
it with the other.  The two never share intermediate data, so agreement
is strong evidence that both are right.

Run:  python3 demos/03_two_pipelines.py
"""

from tatejoin import (ProductContext, cyclic, homology,
                      periodic_cyclic_resolution, product_table,
                      syzygy_resolution, symmetric)


def main():
    res = periodic_cyclic_resolution(4, 8)
    ctx = ProductContext(res)
    h1 = homology(res, 1)
    h3 = homology(res, 3)
    a = h1.generators[0]
    print(f"C4: generator of {h1} is the cycle {a}")

    out_join = ctx.join_product(1, a, 1, a)
    out_comp = ctx.composition_product(1, a, 1, a)
    print(f"join pipeline:        class {out_join} in {homology(res, 3)}")
    print(f"composition pipeline: class {out_comp}")
    assert out_join == out_comp
    print(f"order of the product: {h3.class_order(out_join)} "
          f"(a generator of Z/4 again)")

    print()
    print("the pairing in both degree orders, (1,3) next to (3,1):")
    table = product_table(res, [(1, 3), (3, 1)])
    for e in table.entries:
        print(f"  H_{e['n']} x H_{e['m']} gen {e['a']},{e['b']}: "
              f"join {e['join']} composition {e['composition']} "
              f"agree={e['agree']}")

    print()
    print("a noncyclic check, every generator pair of S3 up to degree 7:")
    s3 = syzygy_resolution(symmetric(3), 8)
    pairs = [(n, m) for n in range(1, 6) for m in range(1, 6) if n + m <= 6]
    table = product_table(s3, pairs)
    nonzero = [e for e in table.entries if any(e["join"])]
    print(f"  {len(table.entries)} generator pairs, all agree: "
          f"{table.all_agree}")
    for e in nonzero:
        print(f"  nonzero: H_{e['n']} x H_{e['m']} -> "
              f"H_{e['n'] + e['m'] + 1} class {e['join']}")


if __name__ == "__main__":
    main()
