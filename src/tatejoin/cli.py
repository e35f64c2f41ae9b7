"""Command-line surface: group/resolution ingestion and reproducible reports.

Four subcommands: ``homology`` and ``tate`` serialize invariant factors and
generator cycles per degree, ``product-table`` runs both product pipelines
over generator pairs, and ``verify`` runs the full invariant battery.  The
same config always produces byte-identical output (sorted keys, fixed
ordering, no timestamps), and output files are written atomically so a
failure never leaves a partial file behind.

Exit codes: 0 success; 2 invalid input (bad flags, malformed files, schema
or exactness failures); 3 size budget exceeded; 4 internal assertion failed
(a bug in the engine, not in the input), including any product-table entry
where the two pipelines disagree and any failing verify check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .errors import (InternalCheckError, SchemaError, SizeBudgetError,
                     TateJoinError)
from .groups import FiniteGroup, build_group
from .products import product_table
from .resolutions import (Resolution, bar_resolution, load_resolution,
                          periodic_cyclic_resolution, syzygy_resolution,
                          write_atomically)
from .selfcheck import run_verify
from .tate import homology, tate_group
from .zglinalg import charge

DEFAULT_MAX_ZRANK = 50000
ENV_MAX_ZRANK = "TATEJOIN_MAX_ZRANK"

EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse_degrees(text: str, budget: int) -> list[int]:
    """Comma-separated degrees; each token is N or an inclusive range A..B.

    A degree of absolute value >= budget needs depth + 1 > budget, so it is
    refused before any range is expanded.
    """
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            lo, dots, hi = tok.partition("..")
            a = int(lo)
            b = int(hi) if dots else a
        except ValueError:
            raise SchemaError(f"bad degree token {tok!r}") from None
        if b < a:
            raise SchemaError(f"empty degree range {tok!r}")
        worst = max(abs(a), abs(b))
        charge(worst + 1, budget, f"degree token {tok!r} at depth >= {worst}")
        out.extend(range(a, b + 1))
    return out


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    """Comma-separated bidegrees NxM with N, M >= 1."""
    out: list[tuple[int, int]] = []
    for tok in text.split(","):
        tok = tok.strip()
        n, sep, m = tok.partition("x")
        if not sep:
            raise SchemaError(f"bad pair token {tok!r} (want NxM)")
        try:
            pair = (int(n), int(m))
        except ValueError:
            raise SchemaError(f"bad pair token {tok!r}") from None
        if pair[0] < 1 or pair[1] < 1:
            raise SchemaError(f"pair degrees must be >= 1, got {tok!r}")
        out.append(pair)
    return out


def _cyclic_parameter(spec: str) -> int | None:
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "trivial":
        return 1
    if name in ("cyclic", "c") and arg:
        try:
            return int(arg)
        except ValueError:
            return None
    return None


def _fixture_fallback(path: str) -> str:
    if os.path.exists(path):
        return path
    shipped = os.path.join(os.path.dirname(__file__), "fixtures", path)
    return shipped if os.path.exists(shipped) else path


def build_resolution(group: FiniteGroup, group_spec: str, choice: str,
                     depth: int, max_zrank: int) -> Resolution:
    """Resolve the --resolution flag: periodic | bar | computed | file:PATH.

    ``auto`` picks the rank-1 periodic resolution for cyclic:N / trivial
    specs and the computed kernel-cover resolution otherwise.  A file
    resolution must already be deep enough; files are never extended.
    Building P_0..P_depth takes at least one pass over the |G| group
    elements per degree, so |G| * (depth + 1) is charged against the budget
    before anything is built: the budget bounds depth as well as rank.
    """
    charge(group.order * (depth + 1), max_zrank, f"depth {depth} "
           f"(|{group.label}| = {group.order} x {depth + 1} degrees)")
    name, _, arg = choice.partition(":")
    name = name.strip().lower()
    if name == "auto":
        m = _cyclic_parameter(group_spec)
        # the rank-1 periodic complex needs order >= 2; C_1 is served by
        # the computed resolution (ranks 1,0,0,...)
        name = "periodic" if m is not None and m >= 2 else "computed"
    if name == "periodic":
        m = _cyclic_parameter(group_spec)
        if m is None:
            raise SchemaError(
                "the periodic resolution needs --group cyclic:N (or trivial)")
        return periodic_cyclic_resolution(m, depth)
    if name == "bar":
        return bar_resolution(group, depth, max_zrank=max_zrank)
    if name == "computed":
        return syzygy_resolution(group, depth, max_zrank=max_zrank)
    if name == "file":
        res = load_resolution(_fixture_fallback(arg), max_zrank=max_zrank)
        if res.group != group:
            raise SchemaError(
                "resolution file is over a different group than --group")
        if res.depth < depth:
            raise SchemaError(
                f"resolution file has depth {res.depth}, need {depth}; "
                "files are not extended")
        return res
    raise SchemaError(f"unknown resolution choice {choice!r}")


def _emit(args, text: str) -> None:
    if args.output:
        write_atomically(args.output, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc) -> None:
    _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _require_json(args) -> None:
    if args.format != "json":
        raise SchemaError(
            f"format {args.format!r} is only available for product-table "
            "(coordinate lists do not flatten losslessly)")


def _emit_degrees(args, degrees: list[int], farthest: int, need: int,
                  group_in) -> int:
    """Resolve to depth >= need and emit one record per degree.

    ``group_in(res, n)`` is the homology or Tate group in degree n; farthest
    is the degree that sets need, named when --depth is too shallow.
    """
    depth = args.depth if args.depth is not None else need
    if depth < need:
        raise SchemaError(f"--depth {depth} cannot reach degree "
                          f"{farthest} (need depth >= {need})")
    _require_json(args)
    group = build_group(args.group)
    res = build_resolution(group, args.group, args.resolution, depth,
                           args.max_zrank)
    doc = []
    for n in degrees:
        h = group_in(res, n)
        doc.append({"group": group.label, "degree": n,
                    "invariant_factors": list(h.invariant_factors),
                    "generators": [list(g) for g in h.generators]})
    _emit_json(args, doc)
    return 0


def cmd_homology(args) -> int:
    degrees = _parse_degrees(args.degrees, args.max_zrank)
    if min(degrees) < 0:
        raise SchemaError("homology degrees must be >= 0 (use the tate "
                          "command for negative degrees)")
    return _emit_degrees(args, degrees, max(degrees), max(degrees) + 1,
                         homology)


def cmd_tate(args) -> int:
    degrees = _parse_degrees(args.degrees, args.max_zrank)
    if max(degrees) > -1:
        raise SchemaError("tate degrees must be <= -1 (degrees >= 0 are out "
                          "of scope)")
    return _emit_degrees(args, degrees, min(degrees), max(1, -min(degrees)),
                         tate_group)


def cmd_product_table(args) -> int:
    pairs = _parse_pairs(args.pairs)
    need = max(n + m + 2 for n, m in pairs)
    depth = args.depth if args.depth is not None else need
    if depth < need:
        raise SchemaError(f"--depth {depth} is too shallow for the requested "
                          f"pairs (need max degree + 2 = {need})")
    group = build_group(args.group)
    res = build_resolution(group, args.group, args.resolution, depth,
                           args.max_zrank)
    table = product_table(res, pairs, max_zrank=args.max_zrank)
    if args.format == "csv":
        _emit(args, table.to_csv())
    else:
        _emit_json(args, table.to_json())
    # disagreement between the two pipelines is an engine bug, not bad input
    return 0 if table.all_agree else EXIT_INTERNAL


def cmd_verify(args) -> int:
    depth = args.depth if args.depth is not None else 6
    if depth < 1:
        raise SchemaError("--depth must be >= 1")
    _require_json(args)
    group = build_group(args.group)
    res = build_resolution(group, args.group, args.resolution, depth,
                           args.max_zrank)
    rep = run_verify(res, seed=args.seed, max_zrank=args.max_zrank)
    passed = sum(1 for c in rep.checks if c["passed"])
    doc = {"group": group.label, "resolution": res.label, "depth": depth,
           "seed": args.seed, "passed": rep.passed,
           "pass_count": passed, "check_count": len(rep.checks),
           "checks": rep.checks}
    _emit_json(args, doc)
    if not args.output:
        for c in rep.checks:
            line = "PASS" if c["passed"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            print(f"{line} {c['name']}{detail}", file=sys.stderr)
        print(f"{passed}/{len(rep.checks)} checks passed", file=sys.stderr)
    return 0 if rep.passed else EXIT_INTERNAL


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--group", required=True,
                     help="trivial | q8 | cyclic:N | dihedral:N | sym:N | "
                          "file:PATH (table or permutation JSON)")
    sub.add_argument("--resolution", default="auto",
                     help="auto | periodic | bar | computed | file:PATH "
                          "(PATH falls back to the shipped fixtures)")
    sub.add_argument("--depth", type=int, default=None,
                     help="resolution depth (default: minimum the command needs)")
    sub.add_argument("--max-zrank", type=int, default=None,
                     help="size budget: largest expanded integer column count, "
                          "also charged |G|*(depth+1) for the resolution's depth "
                          f"(default {DEFAULT_MAX_ZRANK}, env {ENV_MAX_ZRANK})")
    sub.add_argument("--output", default=None,
                     help="output file (atomic write: a failure leaves neither "
                          "it nor a .tmp file behind; default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="csv is available for product-table only")


def _max_zrank(flag: int | None) -> int:
    """The size budget: --max-zrank, else $TATEJOIN_MAX_ZRANK, else the default.

    Anything but a positive integer is invalid input, reported under the
    flag or variable it came from.
    """
    if flag is not None:
        source, raw = "--max-zrank", flag
    else:
        source = ENV_MAX_ZRANK
        raw = os.environ.get(ENV_MAX_ZRANK, DEFAULT_MAX_ZRANK)
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise SchemaError(f"{source} must be a positive integer, got {raw!r}")
    return value


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tatejoin",
        description="Exact integral group homology and negative-degree Tate "
                    "products via joins of resolutions.")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("homology", help="invariant factors and generators "
                                         "of H_n for a degree range")
    _add_common(s)
    s.add_argument("--degrees", required=True,
                   help="e.g. 1..5 or 0,2,4 (inclusive ranges)")
    s.set_defaults(func=cmd_homology)

    s = subs.add_parser("tate", help="negative-degree Tate groups")
    _add_common(s)
    s.add_argument("--degrees", required=True,
                   help="negative degrees, e.g. -6..-1")
    s.set_defaults(func=cmd_tate)

    s = subs.add_parser("product-table",
                        help="generator products by both pipelines")
    _add_common(s)
    s.add_argument("--pairs", required=True,
                   help="bidegrees, e.g. 1x1,1x3,3x3 (record NxM and MxN to "
                        "compare the two orders)")
    s.set_defaults(func=cmd_product_table)

    s = subs.add_parser("verify", help="run the full invariant battery")
    _add_common(s)
    s.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized property sweeps")
    s.set_defaults(func=cmd_verify)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # let "--degrees -6..-1" survive argparse's option detection
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--degrees" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--degrees={argv[i + 1]}"]
        i += 1
    args = make_parser().parse_args(argv)
    try:
        args.max_zrank = _max_zrank(args.max_zrank)
        return args.func(args)
    except SizeBudgetError as e:
        print(f"error: size budget: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as e:
        print(f"error: internal check failed (engine bug): {e}",
              file=sys.stderr)
        return EXIT_INTERNAL
    except TateJoinError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
