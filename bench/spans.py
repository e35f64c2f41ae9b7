"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of each tatejoin module and
records, per span name, the number of calls and the self time (the span's
wall time minus the time of the spans it called).  Nothing inside
``src/`` changes: ``install`` replaces every binding of a wrapped function
in every loaded ``tatejoin`` module (several modules import names directly,
so wrapping only the defining module would miss calls) and ``uninstall``
puts the originals back, so untraced passes run the pristine code.

A few size counters ride along with the spans (largest Smith input, cells
of the dense down matrices, join ranks, ...).  Two of them read private
state of the objects they observe, because no public accessor exists:
``Resolution._down`` (was the down matrix already cached?) and
``ComparisonLift._cols`` (was the column already lifted?).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from tatejoin import cli, groups, intlinalg, products, resolutions, tate, zglinalg

# span name -> (owner, attribute).  An owner that is a class is patched on
# the class, which covers every caller; an owner that is a module has the
# function replaced wherever a tatejoin module binds it.
SPANS = {
    "zglinalg.compose": (zglinalg.ZGMatrix, "compose"),
    "zglinalg.column": (zglinalg.ZGMatrix, "column"),
    "zglinalg.z_columns": (zglinalg.ZGMatrix, "z_columns"),
    "zglinalg.solve": (zglinalg.ZGSolver, "solve"),
    "intlinalg.sparse_factors": (intlinalg, "sparse_invariant_factors"),
    "intlinalg.hermite": (intlinalg.IntegerSolver, "__init__"),
    "intlinalg.hermite_solve": (intlinalg.IntegerSolver, "solve"),
    "intlinalg.lattice_add": (intlinalg.IntegerLattice, "add"),
    "intlinalg.lattice_contains": (intlinalg.IntegerLattice, "contains"),
    "intlinalg.lll": (intlinalg, "lll_reduce_rows"),
    "resolutions.bar": (resolutions, "bar_resolution"),
    "resolutions.down_matrix": (resolutions.Resolution, "down_matrix"),
    "resolutions.init": (resolutions.Resolution, "__init__"),
    "resolutions.syzygy": (resolutions, "syzygy_resolution"),
    "resolutions.validate": (resolutions, "validate_resolution"),
    "resolutions.join": (resolutions, "join"),
    "tate.homology": (tate, "homology"),
    "tate.generators": (tate.HomologyGroup, "generators"),
    "tate.classify": (tate.HomologyGroup, "classify"),
    "products.join_product": (products.ProductContext, "join_product"),
    "products.composition_product": (products.ProductContext,
                                     "composition_product"),
    "products.g_lift": (products.ProductContext, "_g_lift"),
    "products.lift_column": (products.ComparisonLift, "column"),
    "cli.emit": (cli, "_emit_json"),
}
# smith_normal_form is one function but two spans, split on `transforms`
SMITH = (intlinalg, "smith_normal_form")
# counted, not timed: called millions of times from inside other spans
COUNTED = {"groups.ring_multiply": (groups, "ring_multiply")}
# hooks that only feed a counter
LIFT_INIT = (products.ComparisonLift, "__init__")

SPAN_NAMES = sorted(list(SPANS) + ["intlinalg.smith", "intlinalg.smith_tx"])

# (metric, unit) reported by the traced run, in BENCHMARK.json order.
# trace.overhead_frac is filled in by run.py, which times both modes.
PER_LAYER = [
    ("groups.ring_multiply.calls", "count"),
    ("zglinalg.compose.calls", "count"),
    ("zglinalg.compose.self_s", "s"),
    ("zglinalg.column.calls", "count"),
    ("zglinalg.column.self_s", "s"),
    ("zglinalg.z_columns.self_s", "s"),
    ("zglinalg.solve.calls", "count"),
    ("zglinalg.solve.self_s", "s"),
    ("intlinalg.smith.calls", "count"),
    ("intlinalg.smith.self_s", "s"),
    ("intlinalg.smith.max_cells", "cells"),
    ("intlinalg.smith_tx.calls", "count"),
    ("intlinalg.smith_tx.self_s", "s"),
    ("intlinalg.smith_tx.max_cells", "cells"),
    ("intlinalg.sparse_factors.self_s", "s"),
    ("intlinalg.sparse_factors.residual_frac", "ratio"),
    ("intlinalg.hermite.calls", "count"),
    ("intlinalg.hermite.self_s", "s"),
    ("intlinalg.hermite_solve.calls", "count"),
    ("intlinalg.hermite_solve.self_s", "s"),
    ("intlinalg.lattice_add.calls", "count"),
    ("intlinalg.lattice_add.self_s", "s"),
    ("intlinalg.lattice_contains.calls", "count"),
    ("intlinalg.lattice_contains.self_s", "s"),
    ("intlinalg.lll.calls", "count"),
    ("intlinalg.lll.self_s", "s"),
    ("resolutions.bar.self_s", "s"),
    ("resolutions.down_matrix.self_s", "s"),
    ("resolutions.down_matrix.cells", "cells"),
    ("resolutions.init.self_s", "s"),
    ("resolutions.syzygy.self_s", "s"),
    ("resolutions.syzygy.rank_sum", "rank"),
    ("resolutions.max_entry_bits", "bits"),
    ("resolutions.validate.self_s", "s"),
    ("resolutions.join.self_s", "s"),
    ("resolutions.join.max_rank", "rank"),
    ("tate.homology.self_s", "s"),
    ("tate.generators.self_s", "s"),
    ("tate.classify.calls", "count"),
    ("tate.classify.self_s", "s"),
    ("products.join_product.self_s", "s"),
    ("products.composition_product.self_s", "s"),
    ("products.g_lift.self_s", "s"),
    ("products.lift_column.calls", "count"),
    ("products.lift_column.lifted", "count"),
    ("products.lift.lifted_frac", "ratio"),
    ("cli.emit.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class Recorder:
    """Calls, self time and size counters for the spans of one pass."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [child seconds, span name]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._originals: list[tuple] = []

    def reset(self) -> None:
        """Forget the pass recorded so far (the wrappers hold these dicts)."""
        for d in (self.stack, self.calls, self.self_s, self.count):
            d.clear()

    def bump_max(self, key: str, value: int) -> None:
        if value > self.count[key]:
            self.count[key] = value

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        stack = self.stack
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            frame = [0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                calls[span] += 1
                self_s[span] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _hook(fn, after):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- size counters -------------------------------------------------------

    def _smith_name(self, args, kwargs) -> str:
        A = args[0]
        tx = kwargs.get("transforms", args[1] if len(args) > 1 else True)
        name = "intlinalg.smith_tx" if tx else "intlinalg.smith"
        cells = A.nrows * A.ncols
        self.bump_max(name + ".max_cells", cells)
        if self.stack and self.stack[-1][1] == "intlinalg.sparse_factors":
            self.count["sparse_factors.residual_cells"] += cells
        return name

    def _sparse_before(self, args, kwargs) -> None:
        cols, nrows = args[0], args[1]
        if hasattr(cols, "__len__"):
            self.count["sparse_factors.input_cells"] += len(cols) * nrows

    def _down_before(self, args, kwargs) -> None:
        res, k = args[0], args[1]
        if k not in res._down:
            self.count["down_matrix.cells"] += res.ranks[k - 1] * res.ranks[k]

    def _syzygy_after(self, args, kwargs, res) -> None:
        self.count["syzygy.rank_sum"] += sum(res.ranks)
        bits = max((abs(v).bit_length() for d in res.diffs
                    for val in d.entries.values() for v in val.c), default=0)
        self.bump_max("max_entry_bits", bits)

    def _join_after(self, args, kwargs, J) -> None:
        self.bump_max("join.max_rank", max(J.ranks))

    def _lift_before(self, args, kwargs) -> None:
        lift, k, j = args[0], args[1], args[2]
        if (k, j) not in lift._cols:
            self.count["lift_column.lifted"] += 1

    def _lift_init_after(self, args, kwargs, out) -> None:
        self.count["lift.basis"] += sum(args[1].ranks)

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, wrapped) -> None:
        original = _entry(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # the same function object bound under any name in any tatejoin module
        for mod in tatejoin_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._originals.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("spans are already installed")
        for name, (owner, attr) in SPANS.items():
            fn = _entry(owner, attr)
            before = after = None
            if name == "resolutions.down_matrix":
                before = self._down_before
            elif name == "intlinalg.sparse_factors":
                before = self._sparse_before
            elif name == "resolutions.syzygy":
                after = self._syzygy_after
            elif name == "resolutions.join":
                after = self._join_after
            elif name == "products.lift_column":
                before = self._lift_before
            if isinstance(fn, property):
                wrapped = property(self._span(name, fn.fget, before, after))
            else:
                wrapped = self._span(name, fn, before, after)
            self._replace(owner, attr, wrapped)
        owner, attr = SMITH
        self._replace(owner, attr,
                      self._span(self._smith_name, _entry(owner, attr)))
        for name, (owner, attr) in COUNTED.items():
            self._replace(owner, attr,
                          self._counter(name, _entry(owner, attr)))
        owner, attr = LIFT_INIT
        self._replace(owner, attr, self._hook(_entry(owner, attr),
                                              self._lift_init_after))
        missed = unwrapped_bindings([o for _, _, o in self._originals])
        if missed:
            self.uninstall()
            raise RuntimeError("entry points left unwrapped: "
                               + ", ".join(missed))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The PER_LAYER values of the pass recorded so far."""
        c, s, n = self.calls, self.self_s, self.count
        full = {"groups.ring_multiply.calls": c["groups.ring_multiply"]}
        for span in SPAN_NAMES:
            full[span + ".calls"] = c[span]
            full[span + ".self_s"] = s[span]
        for span in ("intlinalg.smith", "intlinalg.smith_tx"):
            full[span + ".max_cells"] = n[span + ".max_cells"]
        full["intlinalg.sparse_factors.residual_frac"] = _ratio(
            n["sparse_factors.residual_cells"], n["sparse_factors.input_cells"])
        full["resolutions.down_matrix.cells"] = n["down_matrix.cells"]
        full["resolutions.syzygy.rank_sum"] = n["syzygy.rank_sum"]
        full["resolutions.max_entry_bits"] = n["max_entry_bits"]
        full["resolutions.join.max_rank"] = n["join.max_rank"]
        full["products.lift_column.lifted"] = n["lift_column.lifted"]
        full["products.lift.lifted_frac"] = _ratio(n["lift_column.lifted"],
                                                   n["lift.basis"])
        return {name: full.get(name, 0) for name, _ in PER_LAYER
                if name != "trace.overhead_frac"}


def _entry(owner, attr: str):
    try:
        return owner.__dict__[attr]
    except KeyError:
        raise RuntimeError(f"{owner.__name__}.{attr} no longer exists; "
                           "update bench/spans.py") from None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tatejoin_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tatejoin"
                                  or name.startswith("tatejoin."))]


def unwrapped_bindings(originals) -> list[str]:
    """module.name for every tatejoin binding still holding an original."""
    ids = {id(o) for o in originals}
    return sorted(f"{mod.__name__}.{key}" for mod in tatejoin_modules()
                  for key, val in vars(mod).items() if id(val) in ids)

