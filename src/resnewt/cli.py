"""Command-line front end.

``resnewt compute`` parses a support family, checks essentiality, runs the
selected reconstruction mode (exact, approx, random) and prints the result;
``resnewt generate`` emits random essential input families.  All polytope
data on stdout is exact and deterministically ordered, so identical inputs
and seeds produce byte-identical output; timing lives in the optional stats
block on stderr.

Exit codes: 0 success, 2 unusable input (parse/usage), 3 non-essential
family (the violating blocks are printed), 4 an internal exactness or
call-bound invariant failed (reported on one stderr line, with nothing on
stdout: the call bound is checked on every exact and approx run before the
result is printed).
"""

import argparse
import json
import sys as _sys
import time
from fractions import Fraction
from math import comb
from random import Random
from typing import NamedTuple

from .cayley import (
    _MODE_ALIASES,
    _apply_projection,
    _check_n,
    _projection_spec,
    _read_ints,
    build_cayley,
    check_essential,
    essential_violation,
    family_to_json,
    family_to_text,
    parse_input,
    preprocess,
    unproject,
)
from .errors import InvariantViolation, NotEssential, ParseError, ResnewtError
from .geometry import f_vector, hull_volume
from .kernels import BACKEND
from .reconstruct import (
    compute_pi,
    compute_pi_approx,
    compute_pi_random,
    stats as reconstruct_stats,
)

__all__ = ["RunConfig", "run", "gen_random", "main"]


class RunConfig(NamedTuple):
    """Everything one ``compute`` invocation needs."""

    input_path: str = "-"
    mode: str = "exact"
    threshold: Fraction = Fraction(9, 10)
    directions: int = 0
    projection: str | None = None  # None keeps the input's projection
    seed: int = 0
    fmt: str = "plain"
    no_hash: bool = False
    no_preprocess: bool = False
    unproject: bool = False
    f_vector: bool = False
    stats: bool = False


def _emit_plain(doc, out):
    w = out.write
    w("mode: %s\n" % doc["mode"])
    w("dim: %d\n" % doc["dim"])
    w("ambient: %d\n" % doc["ambient"])
    key = "points" if doc["mode"] == "random" else "vertices"
    pts = doc[key]
    w("%s: %d\n" % (key, len(pts)))
    for p in pts:
        w("v %s\n" % " ".join(str(x) for x in p))
    if "facets" in doc:
        w("facets: %d\n" % len(doc["facets"]))
        for f in doc["facets"]:
            w(
                "f %s <= %d\n"
                % (" ".join(str(x) for x in f["normal"]), f["offset"])
            )
    if "equations" in doc:
        w("equations: %d\n" % len(doc["equations"]))
        for e in doc["equations"]:
            w(
                "e %s = %d\n"
                % (" ".join(str(x) for x in e["normal"]), e["offset"])
            )
    if "f_vector" in doc:
        w("f-vector: %s\n" % " ".join(str(x) for x in doc["f_vector"]))
    if "volume" in doc:
        w("volume: %s\n" % doc["volume"])
    if "sandwich" in doc:
        s = doc["sandwich"]
        w("sandwich:\n")
        w("  inner-volume: %s\n" % s["inner_volume"])
        w("  outer-volume: %s\n" % s["outer_volume"])
        w("  ratio: %s\n" % s["ratio"])
        w("  threshold: %s\n" % s["threshold"])
        w("  reached: %s\n" % ("yes" if s["reached"] else "no"))
    if "directions" in doc:
        w("directions: %d\n" % doc["directions"])
    if "unprojected" in doc:
        w("unprojected: %d\n" % len(doc["unprojected"]))
        for p in doc["unprojected"]:
            w("u %s\n" % " ".join(str(x) for x in p))


def _emit(doc, fmt, out):
    if fmt == "json":
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        _emit_plain(doc, out)


def run(config, stdin=None, stdout=None, stderr=None):
    """Execute one compute invocation; returns the process exit code."""
    out = stdout if stdout is not None else _sys.stdout
    err = stderr if stderr is not None else _sys.stderr
    try:
        if config.input_path and config.input_path != "-":
            with open(config.input_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = stdin if stdin is not None else _sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8
        err.write("error: cannot read input: %s\n" % exc)
        return 2

    try:
        family = parse_input(text)
        if config.projection is not None:
            family = _apply_projection(
                family.n, family.supports, *_projection_spec(config.projection)
            )
        check_essential(family)
        if not config.no_preprocess:
            family = preprocess(family)
        return _compute(config, build_cayley(family), out, err)
    except ParseError as exc:
        err.write("error: %s\n" % exc)
        return 2
    except NotEssential as exc:
        err.write("error: family is not essential; %s\n" % exc)
        return 3
    except InvariantViolation as exc:
        err.write("error: internal invariant violated: %s\n" % exc)
        return 4


def _compute(config, system, out, err):
    """Run the selected mode on a built system and print; the exit code."""
    use_cache = not config.no_hash
    random_mode = config.mode == "random"
    t0 = time.perf_counter()
    sandwich = None
    if random_mode:
        if config.directions < system.m + 1:
            raise ParseError(
                "random mode needs --directions >= m + 1 = %d" % (system.m + 1)
            )
        state = compute_pi_random(
            system, config.directions, seed=config.seed, use_cache=use_cache
        )
    elif config.mode == "approx":
        state, sandwich = compute_pi_approx(
            system, config.threshold, seed=config.seed, use_cache=use_cache
        )
    else:
        state = compute_pi(system, seed=config.seed, use_cache=use_cache)
    wall = time.perf_counter() - t0
    if not random_mode:
        st = reconstruct_stats(state)  # raises on a broken call bound, before output

    doc = {
        "mode": config.mode,
        "dim": state.dim,
        "ambient": state.m,
        "points" if random_mode else "vertices": [list(v) for v in state.vertices()],
    }
    if random_mode:
        doc["volume"] = str(hull_volume(state.hull))
        doc["directions"] = config.directions
    else:
        if state.dim > 0:
            doc["facets"] = [
                {"normal": list(wv), "offset": off} for wv, off in state.facets_x()
            ]
        if state.dim < state.m:
            doc["equations"] = [
                {"normal": list(nrm), "offset": off}
                for nrm, off in sorted(state.equations)
            ]
    if config.f_vector:
        doc["f_vector"] = list(f_vector(state.hull))
    if sandwich is not None:
        doc["sandwich"] = {
            "inner_volume": str(sandwich.inner_volume),
            "outer_volume": str(sandwich.outer_volume),
            "ratio": str(sandwich.ratio),
            "threshold": str(sandwich.threshold),
            "reached": sandwich.reached,
        }
    if config.unproject:
        ref = state.oracle.memo[min(state.oracle.memo)][1]
        try:
            lifted = unproject(system, state.vertices(), ref)
        except ResnewtError as exc:
            err.write("error: cannot unproject: %s\n" % exc)
            return 2
        doc["unprojected"] = [list(p) for p in sorted(lifted)]
    _emit(doc, config.fmt, out)

    if config.stats:
        if random_mode:
            lines = [("oracle calls", state.oracle.pipeline_runs)]
        else:
            lines = [
                ("oracle calls", st["oracle_calls"]),
                ("init calls", st["init_calls"]),
                ("main calls", st["main_calls"]),
                ("vertices", st["vertices"]),
                ("facets", st["facets"]),
            ]
        cs = state.oracle.cache.stats()
        lines += [
            ("backend", BACKEND),
            ("minors cached", cs["entries"]),
            ("pure misses", "%d (hits %d)" % (cs["pure_misses"], cs["pure_hits"])),
            ("hom misses", "%d (hits %d)" % (cs["hom_misses"], cs["hom_hits"])),
            ("cache clears", cs["clears"]),
            ("predicate calls", cs["predicate_calls"]),
            ("predicate time", "%.6fs" % cs["predicate_time"]),
            ("wall time", "%.6fs" % wall),
        ]
        err.write("stats:\n")
        for k, v in lines:
            err.write("  %s: %s\n" % (k, v))
    return 0


# -- random input generation ---------------------------------------------------


def _lattice_size(n, delta, kind):
    # The lattice points of the delta-simplex (dense) or the (delta/2)-cube (sparse).
    if delta < 0:
        return 0
    return comb(delta + n, n) if kind == "dense" else (delta // 2 + 1) ** n


def _lattice_point(n, delta, kind, index):
    # The index-th of those points in lexicographic order, without listing them.
    point = []
    if kind != "dense":  # the index's digits in base delta/2 + 1
        for _ in range(n):
            index, digit = divmod(index, delta // 2 + 1)
            point.append(digit)
        return tuple(reversed(point))
    for r in range(n, 0, -1):
        # comb(delta - v + r, r) points have a first coordinate of v or more:
        # take the largest v with at most ``index`` points before it.
        total = comb(delta + r, r)
        lo, hi = 0, delta
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if total - comb(delta - mid + r, r) <= index:
                lo = mid
            else:
                hi = mid - 1
        index -= total - comb(delta - lo + r, r)
        delta -= lo
        point.append(lo)
    return tuple(point)


def gen_random(n, delta, kind, sizes, seed, mode="full"):
    """Random essential support family, reproducible by seed.

    ``dense`` samples each block from the lattice points of the delta-simplex,
    ``sparse`` from the (delta/2)-cube.  Implicitization mode forces the
    origin into every block; u-resultant mode fixes block 0 to the unit
    simplex.  Refuses a drawn block of one point, which no essential family
    has, then resamples until the family is essential.  A block draws the
    indices of its points in the sorted lattice, so the lattice is never listed.
    """
    _check_n(n)
    if len(sizes) != n + 1:
        raise ParseError("need %d block sizes, got %d" % (n + 1, len(sizes)))
    if any(s < 1 for s in sizes):
        raise ParseError("block sizes must be at least 1")
    if mode not in ("full", "implicitization", "u-resultant"):
        raise ParseError("generate supports full, implicit and u-res modes only")
    if kind not in ("dense", "sparse"):
        raise ParseError("unknown kind %r: generate draws dense or sparse families" % (kind,))
    for i, size in enumerate(sizes):
        if size == 1 and not (mode == "u-resultant" and i == 0):
            raise ParseError("block %d has one point, so no family with it is essential" % i)
    points = _lattice_size(n, delta, kind)
    origin = tuple([0] * n)
    unit_simplex = sorted(
        [origin] + [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    )
    rng = Random(f"{seed}|gen")
    for _ in range(10000):
        supports = []
        for i, size in enumerate(sizes):
            if mode == "u-resultant" and i == 0:
                supports.append(list(unit_simplex))
                continue
            forced = [origin] if mode == "implicitization" else []
            skip = len(forced) if points else 0  # the origin is point 0
            pool = points - skip
            if size - len(forced) > pool:
                raise ParseError(
                    "block %d wants %d points but the lattice has %d"
                    % (i, size, pool + len(forced))
                )
            picks = rng.sample(range(pool), size - len(forced))
            chosen = forced + [_lattice_point(n, delta, kind, j + skip) for j in picks]
            supports.append(sorted(chosen))
        family = _apply_projection(n, supports, mode)
        if essential_violation(family) is None:
            return family
    raise ResnewtError("could not generate an essential family; enlarge delta")


# -- argument parsing ------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="resnewt",
        description="Projected Newton polytopes of sparse resultants, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="reconstruct a projected polytope")
    # Each destination is the name of a RunConfig field, whose default it takes.
    c.add_argument("input_path", nargs="?", metavar="input", help="input file or - for stdin")
    c.add_argument("--mode", choices=["exact", "approx", "random"])
    c.add_argument("--threshold", help="volume-ratio stop for approx mode, in (0,1)")
    c.add_argument("--directions", type=int, help="number of random directions (random mode)")
    c.add_argument(
        "--projection",
        help="override the input's projection line, e.g. 'implicit' or 'custom 0 1, 1 0'",
    )
    c.add_argument("--seed", type=int)
    c.add_argument("--format", dest="fmt", choices=["plain", "json"])
    c.add_argument("--no-hash", action="store_true", help="disable the minor cache")
    c.add_argument("--no-preprocess", action="store_true")
    c.add_argument("--unproject", action="store_true")
    c.add_argument("--f-vector", dest="f_vector", action="store_true")
    c.add_argument("--stats", action="store_true")
    c.set_defaults(**RunConfig._field_defaults)

    g = sub.add_parser("generate", help="emit a random essential input family")
    g.add_argument("n", type=int)
    g.add_argument("delta", type=int)
    g.add_argument("--sizes", required=True, help="block sizes, by commas or spaces")
    g.add_argument("--kind", choices=["dense", "sparse"], default="dense")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument(
        "--projection",
        default="full",
        choices=["full", "implicit", "u-res"],
    )
    g.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "generate":
        try:
            pieces = args.sizes.split(",")
            if len(pieces) > 1 and not all(p.strip() for p in pieces):
                raise ParseError("--sizes has an empty entry")
            sizes = _read_ints([x for p in pieces for x in p.split()], "size", "in --sizes")
            mode = _MODE_ALIASES[args.projection]
            # gen_random draws no u-res block 0 (it is the unit simplex), so
            # its size is checked here; a wrong n or count is gen_random's error.
            simplex = args.n + 1
            if mode == "u-resultant" and len(sizes) == simplex > 1 and sizes[0] != simplex:
                raise ParseError(
                    "block 0 of a u-res family is the unit simplex of n+1 = %d points, not %d"
                    % (simplex, sizes[0])
                )
            family = gen_random(args.n, args.delta, args.kind, sizes, args.seed, mode=mode)
        except ResnewtError as exc:
            _sys.stderr.write("error: %s\n" % exc)
            return 2
        if args.format == "json":
            _sys.stdout.write(family_to_json(family))
        else:
            _sys.stdout.write(family_to_text(family))
        return 0

    try:
        threshold = Fraction(args.threshold)
    except (ValueError, ZeroDivisionError):
        _sys.stderr.write("error: threshold must be a rational in (0,1)\n")
        return 2
    if args.mode == "approx" and not (0 < threshold < 1):
        _sys.stderr.write("error: threshold must lie strictly between 0 and 1\n")
        return 2

    args.threshold = threshold
    return run(RunConfig(**{name: getattr(args, name) for name in RunConfig._fields}))


if __name__ == "__main__":
    raise SystemExit(main())
