"""Finite groups as validated multiplication tables, and their integral group rings.

Elements of a group of order w are the indices 0..w-1, with 0 always the
identity.  The enumeration order is fixed at construction and travels with the
group when it is serialized, so element indices are stable across runs.

A group ring element is a dense integer coefficient vector of length w:
coefficient c[g] on the basis element g.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Sequence

from .errors import GroupError, InternalCheckError, SchemaError

# The largest group order whose multiplication table is built.  The table
# has order^2 entries (about a million at this order), so larger requests
# are refused before anything is allocated.
MAX_TABLE_ORDER = 1024


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a][b] is the index of the product a*b.  Index 0 is the identity.
    """

    __slots__ = ("label", "order", "table", "inverse", "_hash")

    def __init__(self, table: Sequence[Sequence[int]], label: str = "G"):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.label = label
        self._check_table()
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == 0:
                    inv[a] = b
                    break
            if inv[a] is None or self.table[inv[a]][a] != 0:
                raise GroupError(f"element {a} of {label!r} has no two-sided inverse")
        self.inverse = tuple(inv)
        self._hash = hash((self.label, self.table))

    def _check_table(self) -> None:
        w = self.order
        if w == 0:
            raise GroupError("empty multiplication table")
        for a, row in enumerate(self.table):
            if len(row) != w:
                raise GroupError(f"row {a} has length {len(row)}, expected {w}")
            if sorted(row) != list(range(w)):
                raise GroupError(f"row {a} is not a permutation of 0..{w - 1}")
        cols = list(zip(*self.table))
        for b, col in enumerate(cols):
            if sorted(col) != list(range(w)):
                raise GroupError(f"column {b} is not a permutation of 0..{w - 1}")
        for a in range(w):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise GroupError("index 0 is not a two-sided identity")
        bad = self.associativity_failure()
        if bad is not None:
            raise GroupError("associativity fails at ({},{},{})".format(*bad))

    def associativity_failure(self) -> tuple[int, int, int] | None:
        """A triple (a, g, c) with (ag)c != a(gc), or None if associative.

        Light's test (Clifford and Preston, 1961): the elements g with
        (ag)c = a(gc) for all a, c are closed under products, so checking g
        over a generating set suffices.  The set is read greedily off the
        table: an element joins it when products of the earlier ones do not
        reach it.  A group needs at most log2(order) of them, so the test
        costs O(order^2 log order) and is exact at every order.
        """
        t, w = self.table, self.order
        gens: list[int] = []
        reached = {0}
        for x in range(w):
            if x in reached:
                continue
            gens.append(x)
            reached, frontier = {0}, [0]
            while frontier:
                nxt = []
                for a in frontier:
                    for g in gens:
                        b = t[a][g]
                        if b not in reached:
                            reached.add(b)
                            nxt.append(b)
                frontier = nxt
        for g in gens:
            tg = t[g]
            for a in range(w):
                ta = t[a]
                tag = t[ta[g]]  # row c -> (ag)c, against a(gc) = ta[tg[c]]
                if tag != tuple(map(ta.__getitem__, tg)):
                    c = next(c for c in range(w) if tag[c] != ta[tg[c]])
                    return a, g, c
        return None

    # -- basic structure ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteGroup)
                and self.table == other.table and self.label == other.label)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"label": self.label, "order": self.order,
                "table": [list(row) for row in self.table]}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteGroup":
        if not isinstance(obj, dict):
            raise SchemaError("group JSON must be an object")
        if not isinstance(obj.get("label", ""), str):
            raise SchemaError("group 'label' must be a string")
        if "table" in obj:
            table = _list(obj["table"], "group 'table'")
            _check_order(len(table), "group 'table'")
            for a, row in enumerate(table):
                _int_list(row, f"group table row {a}")
            label = obj.get("label", "G")
            if "order" in obj and obj["order"] != len(table):
                raise SchemaError("declared order does not match table size")
            try:
                return cls(table, label=label)
            except GroupError as e:
                raise SchemaError(f"invalid group table: {e}") from e
        if "generators" in obj:
            degree = obj.get("degree")
            if degree is None:
                raise SchemaError("permutation group JSON needs a 'degree'")
            if not _is_int(degree) or degree < 0:
                raise SchemaError("permutation group 'degree' must be an "
                                  "integer >= 0")
            gens = _list(obj["generators"], "permutation group 'generators'")
            for t, g in enumerate(gens):
                _int_list(g, f"generator {t}")
            return from_permutations(degree, gens,
                                     label=obj.get("label", "perm"))
        raise SchemaError("group JSON needs either 'table' or 'generators'")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list")
    return value


def _int_list(value, what: str) -> list[int]:
    """value itself if it is a JSON list of integers, else SchemaError."""
    if not all(_is_int(v) for v in _list(value, what)):
        raise SchemaError(f"{what} must be a list of integers")
    return value


def _check_order(order: int, what: str) -> None:
    if order > MAX_TABLE_ORDER:
        raise GroupError(f"{what} has order {order}, above the largest "
                         f"supported table order {MAX_TABLE_ORDER}")


def _read_json(path: str):
    """The parsed contents of a JSON file; SchemaError if it does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise SchemaError(f"{path} is not valid JSON: {e}") from e


# -- named families ---------------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n; element i is t^i."""
    if n < 1:
        raise GroupError("cyclic group order must be >= 1")
    _check_order(n, f"cyclic:{n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, label=f"C{n}")


def trivial() -> FiniteGroup:
    return cyclic(1)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n.  Element i + n*j is r^i s^j (s^2 = 1, srs = r^-1)."""
    if n < 1:
        raise GroupError("dihedral parameter must be >= 1")
    w = 2 * n
    _check_order(w, f"dihedral:{n}")

    def idx(i: int, j: int) -> int:
        return i % n + n * (j % 2)

    table = [[0] * w for _ in range(w)]
    for a in range(n):
        for b in range(2):
            for c in range(n):
                for d in range(2):
                    # (r^a s^b)(r^c s^d) = r^{a + (-1)^b c} s^{b+d}
                    i = a + (c if b == 0 else -c)
                    table[idx(a, b)][idx(c, d)] = idx(i, b + d)
    return FiniteGroup(table, label=f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters, n <= 5, in lexicographic tuple order."""
    if not 1 <= n <= 5:
        raise GroupError("symmetric(n) supports 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    if perms[0] != tuple(range(n)):
        raise InternalCheckError("identity is not the first permutation")
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms]
             for p in perms]
    return FiniteGroup(table, label=f"S{n}")


def quaternion8() -> FiniteGroup:
    """Quaternion group {±1, ±i, ±j, ±k}.  Index order: 1,-1,i,-i,j,-j,k,-k."""
    # axis products: (axis, axis) -> (sign, axis) with axes 0=1, 1=i, 2=j, 3=k
    ax = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
          (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
          (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
          (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}

    def idx(sign: int, axis: int) -> int:
        return 2 * axis + (0 if sign == 1 else 1)

    elems = [(s, a) for a in range(4) for s in (1, -1)]
    table = [[0] * 8 for _ in range(8)]
    for p, (s1, a1) in enumerate(elems):
        for q, (s2, a2) in enumerate(elems):
            s, a = ax[(a1, a2)]
            table[p][q] = idx(s1 * s2 * s, a)
    return FiniteGroup(table, label="Q8")


def from_permutations(degree: int, generators: Iterable[Sequence[int]],
                      label: str = "perm") -> FiniteGroup:
    """Close a set of permutations (0-based image lists) under composition.

    Elements are enumerated in breadth-first order from the identity, so the
    result is deterministic in the generator order.  Composition convention:
    (p*q)(i) = p(q(i)).  The closure acts on the moved points only (the
    orbits longer than 1, ascending), which leaves the element order as is.
    """
    gens = []
    for g in generators:
        g = tuple(g)
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise GroupError(f"{list(g)} is not a permutation of 0..{degree - 1}")
        gens.append(g)
    if not gens:  # nothing of size degree is built for the trivial group
        return FiniteGroup([[0]], label=label)
    # no orbit is longer than the group (orbit-stabilizer), so a long one
    # is refused in O(degree x generators), before any closure
    seen = [False] * degree
    moved = []
    for start in range(degree):
        if seen[start]:
            continue
        seen[start], orbit = True, [start]
        for i in orbit:
            for g in gens:
                if not seen[g[i]]:
                    seen[g[i]] = True
                    orbit.append(g[i])
        if len(orbit) > MAX_TABLE_ORDER:
            raise GroupError(
                f"{label!r} has an orbit of {len(orbit)} points, so its order "
                f"exceeds the largest supported table order {MAX_TABLE_ORDER}")
        if len(orbit) > 1:
            moved.extend(orbit)
    moved.sort()
    pos = {p: t for t, p in enumerate(moved)}
    gens = [tuple(pos[g[p]] for p in moved) for g in gens]
    ident = tuple(range(len(moved)))
    elems, index = [ident], {ident: 0}
    # right[t][p] is the index of p * gens[t]; element e > 0 was first
    # reached as parent[e] = (p, t), so e = elems[p] * gens[t]
    right, parent = [[] for _ in gens], [(0, 0)]
    for pi, p in enumerate(elems):  # grows while it is read: breadth-first
        for t, g in enumerate(gens):
            q = tuple(map(p.__getitem__, g))
            if q not in index:
                if len(elems) == MAX_TABLE_ORDER:
                    raise GroupError(
                        f"closure of {label!r} exceeds the largest supported "
                        f"table order {MAX_TABLE_ORDER}")
                index[q] = len(elems)
                elems.append(q)
                parent.append((pi, t))
            right[t].append(index[q])
    # column e of the table from its parent's: a e = (a elems[p]) gens[t]
    cols = [list(range(len(elems)))]
    for p, t in parent[1:]:
        cols.append(list(map(right[t].__getitem__, cols[p])))
    table = list(zip(*cols))
    return FiniteGroup(table, label=label)


_NAMED = {"q8": quaternion8, "quaternion8": quaternion8, "trivial": trivial}


def build_group(spec) -> FiniteGroup:
    """Build a group from a short string spec, a parsed JSON object, or pass one through.

    String forms: "trivial", "q8", "cyclic:N", "dihedral:N" (order 2N),
    "sym:N" (N <= 5), or "file:PATH" pointing at a group JSON file.
    """
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, dict):
        return FiniteGroup.from_json(spec)
    if not isinstance(spec, str):
        raise SchemaError(f"cannot build a group from {type(spec).__name__}")
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name in _NAMED and not arg:
        return _NAMED[name]()
    if name == "file":
        return FiniteGroup.from_json(_read_json(arg))
    if not arg:
        raise SchemaError(f"unknown group spec {spec!r}")
    try:
        n = int(arg)
    except ValueError:
        raise SchemaError(f"bad numeric parameter in group spec {spec!r}")
    if name in ("cyclic", "c"):
        return cyclic(n)
    if name in ("dihedral", "d"):
        return dihedral(n)
    if name in ("sym", "s", "symmetric"):
        return symmetric(n)
    raise SchemaError(f"unknown group spec {spec!r}")


# -- group ring --------------------------------------------------------------

class GroupRingElement:
    """An element of Z[G], stored as a dense coefficient tuple over the elements of G."""

    __slots__ = ("group", "c", "_supp")

    def __init__(self, group: FiniteGroup, coeffs: Sequence[int]):
        if len(coeffs) != group.order:
            raise ValueError("coefficient vector has wrong length")
        self.group = group
        self.c = tuple(coeffs)
        self._supp = None

    # constructors

    @classmethod
    def zero(cls, group: FiniteGroup) -> "GroupRingElement":
        return cls(group, (0,) * group.order)

    @classmethod
    def one(cls, group: FiniteGroup) -> "GroupRingElement":
        return cls.basis(group, 0)

    @classmethod
    def basis(cls, group: FiniteGroup, g: int, coeff: int = 1) -> "GroupRingElement":
        c = [0] * group.order
        c[g] = coeff
        return cls(group, c)

    # ring structure

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.group,
                                [a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.group,
                                [a - b for a, b in zip(self.c, other.c)])

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, [-a for a in self.c])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return ring_multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, k: int) -> "GroupRingElement":
        return GroupRingElement(self.group, [k * a for a in self.c])

    def augmentation(self) -> int:
        return sum(self.c)

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_invariant(self) -> bool:
        """True when g * self == self for all g, i.e. self is an integer multiple of the norm."""
        first = self.c[0]
        return all(v == first for v in self.c)

    def support(self) -> tuple[tuple[int, int], ...]:
        """The pairs (g, c[g]) with c[g] nonzero; computed once per element."""
        if self._supp is None:
            self._supp = tuple([(g, v) for g, v in enumerate(self.c) if v])
        return self._supp

    def __eq__(self, other) -> bool:
        # group compared by value, not identity: reloaded groups must match
        return (isinstance(other, GroupRingElement)
                and (self.group is other.group or self.group == other.group)
                and self.c == other.c)

    def __hash__(self) -> int:
        return hash(self.c)

    def __repr__(self) -> str:
        terms = []
        for g, v in enumerate(self.c):
            if not v:
                continue
            name = "e" if g == 0 else f"g{g}"
            if v == 1:
                terms.append(name)
            elif v == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{v}*{name}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def ring_multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product: (ab)_h = sum over g*g' = h of a_g b_{g'}."""
    if a.group is not b.group and a.group != b.group:
        raise ValueError("operands live in different group rings")
    acc: dict[int, int] = {}
    col = tuple((0, h, c) for h, c in b.support())
    _accumulate(acc, a.group.table, ((g, ag, col) for g, ag in a.support()))
    return GroupRingElement(a.group,
                            [acc.get(h, 0) for h in range(a.group.order)])


def _accumulate(acc: dict[int, int], table, terms) -> None:
    """Add a_g g * col into the flat dict acc for each term (g, a_g, col).

    ``col`` is a column in the stored form of ``zglinalg``, triples
    (i * |G|, h, c); the term adds a_g c at key i * |G| + g h, and a key
    missing from acc starts at zero.  This is the one convolution of the
    package: ``ring_multiply`` runs it on a one-row column, and
    ``zglinalg`` on the columns of a map.
    """
    get = acc.get
    for g, ag, col in terms:
        row = table[g]
        for base, h, c in col:
            k = base + row[h]
            acc[k] = get(k, 0) + ag * c


def norm_element(group: FiniteGroup) -> GroupRingElement:
    """The norm N = sum of all group elements.  N*g = g*N = N and N*N = |G|*N."""
    return GroupRingElement(group, (1,) * group.order)


def augmentation(a: GroupRingElement) -> int:
    """The ring homomorphism Z[G] -> Z sending every group element to 1."""
    return a.augmentation()
