"""Acceptance suite: one test per shipped guarantee.

Each test prints exactly one ``CRITERION <n> PASS/FAIL: ...`` line on the real
stdout (bypassing capture) so the result survives in piped logs, then asserts.
Expected values are the frozen ones in tests/golden.py; tolerances are zero
for all exact matches, and wall-clock budgets are hard limits.
"""

import random
import re
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import system_from
from golden import (
    BICUBIC,
    CIRCLE_LINE,
    MINOR_COUNT_COLUMNS,
    MONOMIAL_SURFACE,
    SYLVESTER,
)
import reference
from reference import count_lattice_points

from resnewt import MinorCache, det_bareiss
from resnewt.cayley import build_cayley, family_to_text
from resnewt.cli import RunConfig, gen_random, run
from resnewt.geometry import hull_volume
from resnewt.reconstruct import (
    compute_pi,
    compute_pi_approx,
    compute_pi_random,
    stats,
)


def _report(num, ok, detail):
    print("CRITERION %d %s: %s" % (num, "PASS" if ok else "FAIL", detail),
          file=sys.__stdout__)
    sys.__stdout__.flush()


@contextmanager
def criterion(num):
    rec = {"ok": False, "detail": "no detail recorded"}
    try:
        yield rec
    except Exception as exc:
        _report(num, False, "raised %s: %s" % (type(exc).__name__, exc))
        raise
    _report(num, rec["ok"], rec["detail"])
    assert rec["ok"], "criterion %d: %s" % (num, rec["detail"])


def _sys(golden, mode):
    return system_from(golden["n"], golden["supports"], mode)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# -- 1: quadratic/quadratic resultant, full projection ------------------------------


def test_criterion_1_sylvester():
    with criterion(1) as rec:
        sysd = _sys(SYLVESTER, "full")
        t0 = time.perf_counter()
        state = compute_pi(sysd)
        elapsed = time.perf_counter() - t0
        got = set(state.vertices())
        npoints = count_lattice_points(sorted(got))
        rec["ok"] = (
            got == SYLVESTER["vertices"]
            and npoints == SYLVESTER["lattice_points"]
            and elapsed < 1.0
        )
        rec["detail"] = "vertices %s, %d lattice points, %.3fs (< 1s)" % (
            sorted(got),
            npoints,
            elapsed,
        )


# -- 2: monomial-surface system, full and implicitization projections ---------------


def test_criterion_2_monomial_surface_both_projections():
    with criterion(2) as rec:
        t0 = time.perf_counter()
        full = set(compute_pi(_sys(MONOMIAL_SURFACE, "full")).vertices())
        implicit = set(
            compute_pi(_sys(MONOMIAL_SURFACE, "implicitization")).vertices()
        )
        elapsed = time.perf_counter() - t0
        rec["ok"] = (
            full == MONOMIAL_SURFACE["mode_full_vertices"]
            and implicit == MONOMIAL_SURFACE["mode_implicit_vertices"]
            and elapsed < 1.0
        )
        rec["detail"] = "full %s, implicit %s, %.3fs (< 1s)" % (
            sorted(full),
            sorted(implicit),
            elapsed,
        )


# -- 3: u-resultant of circle and line ---------------------------------------------


def test_criterion_3_u_resultant_triangle():
    with criterion(3) as rec:
        t0 = time.perf_counter()
        got = set(compute_pi(_sys(CIRCLE_LINE, "u-resultant")).vertices())
        elapsed = time.perf_counter() - t0
        rec["ok"] = got == CIRCLE_LINE["vertices"] and elapsed < 1.0
        rec["detail"] = "vertices %s, %.3fs (< 1s)" % (sorted(got), elapsed)


# -- 4: bicubic surface implicitization ---------------------------------------------


def test_criterion_4_bicubic_implicitization():
    with criterion(4) as rec:
        sysd = _sys(BICUBIC, "implicitization")
        t0 = time.perf_counter()
        got = set(compute_pi(sysd).vertices())
        elapsed = time.perf_counter() - t0
        rec["ok"] = got == BICUBIC["vertices"] and elapsed < 10.0
        rec["detail"] = "vertices %s, %.3fs (< 10s)" % (sorted(got), elapsed)


# -- 5: minor-reuse counters ---------------------------------------------------


def test_criterion_5_minor_counts():
    with criterion(5) as rec:
        cache = MinorCache(MINOR_COUNT_COLUMNS)
        cols = (0, 1, 2, 3, 4, 5)
        lifting = (3, 1, 4, 0, 0, 0)
        cache.orientation(cols, lifting)
        first = cache.stats()["pure_misses_by_size"].get(4, 0)
        swapped = (0, 1, 2, 3, 4, 6)  # column 7 replaces column 6
        cache.orientation(swapped, lifting)
        after_swap = cache.stats()["pure_misses_by_size"].get(4, 0)
        pure_before_relift = cache.stats()["pure_misses"]
        hom_before_relift = cache.stats()["hom_misses"]
        cache.orientation(cols, (7, -2, 9, 0, 0, 0))
        pure_after_relift = cache.stats()["pure_misses"]
        hom_after_relift = cache.stats()["hom_misses"]
        new_on_swap = after_swap - first
        new_on_relift = (pure_after_relift - pure_before_relift) + (
            hom_after_relift - hom_before_relift
        )
        rec["ok"] = first == 15 and new_on_swap == 10 and new_on_relift == 0
        rec["detail"] = (
            "first expansion %d minors (want 15), column swap %d new (want 10), "
            "lifting change %d new (want 0)" % (first, new_on_swap, new_on_relift)
        )


# -- 6: determinant route equivalence -----------------------------------------------


def test_criterion_6_determinant_routes_agree():
    with criterion(6) as rec:
        rng = random.Random(60606)
        trials = 10**4
        mismatches = 0
        for _ in range(trials):
            # k + 1 columns in Z^k: the homogeneous minor h = sign * volume
            # expands along its ones row into the k x k pure minors.
            k = rng.randint(1, 5)
            cols = [tuple(rng.randint(-9, 9) for _ in range(k)) for _ in range(k + 1)]
            rows = [[c[r] for c in cols] for r in range(k)] + [[1] * (k + 1)]
            cache, every = MinorCache(cols), range(k + 1)
            if cache.hom_sign(every) * cache.volume_predicate(every) != det_bareiss(rows):
                mismatches += 1
        rec["ok"] = mismatches == 0
        rec["detail"] = (
            "%d random homogeneous matrices, cached Laplace vs Bareiss, %d "
            "mismatches (zero tolerance)" % (trials, mismatches)
        )


# -- shared random-instance pools --------------------------------------------------

# (n, delta, kind, sizes, mode) templates; seeds make 50 distinct instances.
_POOL_TEMPLATES = [
    (1, 3, "dense", (3, 3), "full"),
    (1, 4, "dense", (4, 3), "full"),
    (1, 3, "dense", (3, 2), "implicitization"),
    (2, 2, "dense", (3, 2, 2), "full"),
    (2, 3, "dense", (3, 3, 3), "implicitization"),
    (2, 2, "dense", (3, 2, 3), "u-resultant"),
    (2, 4, "sparse", (3, 3, 2), "full"),
    (3, 2, "dense", (3, 3, 2, 2), "full"),
    (3, 2, "dense", (2, 2, 2, 2), "implicitization"),
    (3, 2, "dense", (4, 2, 2, 2), "u-resultant"),
]


def _pool(count, templates=_POOL_TEMPLATES, seed0=0):
    out = []
    for i in range(count):
        n, delta, kind, sizes, mode = templates[i % len(templates)]
        out.append(gen_random(n, delta, kind, list(sizes), seed0 + i, mode=mode))
    return out


# -- 7: output-sensitive call bound --------------------------------------------


def test_criterion_7_call_bound():
    with criterion(7) as rec:
        cases = [
            _sys(SYLVESTER, "full"),
            _sys(MONOMIAL_SURFACE, "full"),
            _sys(MONOMIAL_SURFACE, "implicitization"),
            _sys(CIRCLE_LINE, "u-resultant"),
            _sys(BICUBIC, "implicitization"),
        ]
        cases += [build_cayley(fam) for fam in _pool(50, seed0=700)]
        worst = None
        violations = 0
        for sysd in cases:
            assert len(sysd.columns) <= 27  # goldens; random ones <= 15
            state = compute_pi(sysd)
            s = stats(state)
            slack = s["vertices"] + s["facets"] - s["main_calls"]
            if s["main_calls"] > s["vertices"] + s["facets"]:
                violations += 1
            if worst is None or slack < worst[0]:
                worst = (slack, s["main_calls"], s["vertices"], s["facets"])
        rec["ok"] = violations == 0
        rec["detail"] = (
            "%d instances, %d bound violations; tightest case: "
            "%d calls vs |V|+|F| = %d+%d" % (
                len(cases), violations, worst[1], worst[2], worst[3],
            )
        )


# -- 8: agreement with brute-force direction sampling -------------------------------


def test_criterion_8_random_hits_match_exact():
    with criterion(8) as rec:
        # Tiny instances only: exponents stay small so every vertex keeps a
        # normal cone wide enough for 10^3 uniform directions to land in.
        templates = [
            (1, 3, "dense", (3, 3), "full"),
            (1, 3, "dense", (2, 3), "full"),
            (1, 3, "dense", (3, 2), "implicitization"),
            (2, 2, "dense", (2, 2, 2), "full"),
            (2, 2, "dense", (3, 2, 2), "full"),
            (2, 3, "dense", (3, 3, 3), "implicitization"),
            (2, 2, "dense", (3, 2, 2), "u-resultant"),
        ]
        fams = _pool(50, templates=templates, seed0=800)
        disagreements = 0
        for i, fam in enumerate(fams):
            exact = set(compute_pi(build_cayley(fam)).vertices())
            report = compute_pi_random(build_cayley(fam), 1000, seed=i)
            # Raw hit set straight from the oracle memo; the hull of the hits
            # is taken by the brute-force extreme-point filter so this route
            # shares no convexity code with the reconstruction under test.
            hits = sorted({pt for (pt, _) in report.oracle.memo.values()})
            sampled = {hits[j] for j in reference.extreme_points(hits)}
            if sampled != exact:
                disagreements += 1
        rec["ok"] = disagreements == 0
        rec["detail"] = (
            "50 instances x 1000 random directions: extreme points of the "
            "oracle hits equal the reconstructed vertex set in %d/50 "
            "(want 50/50)" % (50 - disagreements)
        )


# -- 9: sandwich certification --------------------------------------------------


def test_criterion_9_sandwich_certification():
    with criterion(9) as rec:
        threshold = Fraction(9, 10)
        goldens = [
            _sys(SYLVESTER, "full"),
            _sys(MONOMIAL_SURFACE, "full"),
            _sys(MONOMIAL_SURFACE, "implicitization"),
            _sys(CIRCLE_LINE, "u-resultant"),
            _sys(BICUBIC, "implicitization"),
        ]
        randoms = [build_cayley(fam) for fam in _pool(10, seed0=900)]
        checked = 0
        failures = []
        worst_ratio = None
        for sysd in goldens + randoms:
            mirror = system_from(sysd.n, sysd.family.supports, sysd.family.mode)
            exact_state = compute_pi(mirror)
            exact_volume = hull_volume(exact_state.hull)
            state, report = compute_pi_approx(sysd, threshold=threshold)
            true_ratio = (
                report.inner_volume / exact_volume if exact_volume else Fraction(1)
            )
            if worst_ratio is None or true_ratio < worst_ratio:
                worst_ratio = true_ratio
            inner_ok = set(state.vertices()) <= set(exact_state.vertices())
            outer_ok = True
            # Every certified outer constraint, a superset of Q_o's facets:
            planes = report.outer.constraints
            for v in exact_state.vertices():
                xi = exact_state.xi_of(v)
                if any(_dot(p.normal, xi) > p.offset for p in planes):
                    outer_ok = False
            if not (report.reached and true_ratio >= threshold
                    and inner_ok and outer_ok):
                failures.append(
                    (report.reached, float(true_ratio), inner_ok, outer_ok)
                )
            checked += 1
        rec["ok"] = not failures
        rec["detail"] = (
            "%d instances at threshold 0.9: all certified, worst true "
            "vol(Q)/vol(Pi) = %.4f, inner/outer containment vertexwise; "
            "failures: %s" % (checked, float(worst_ratio), failures or "none")
        )


# -- 10: predicate-time reduction from minor hashing ---------------------------------


def _predicate_cost(text, no_hash):
    """Predicate seconds, minors computed (pure plus hom misses) and stdout
    of one run, from ``--stats``."""
    import io

    config = RunConfig(
        input_path="-",
        mode="exact",
        no_hash=no_hash,
        no_preprocess=True,
        stats=True,
    )
    out, err = io.StringIO(), io.StringIO()
    code = run(config, stdin=text, stdout=out, stderr=err)
    assert code == 0
    stats_text = err.getvalue()
    match = re.search(r"predicate time: ([0-9.]+)s", stats_text)
    assert match, stats_text
    misses = sum(
        int(re.search(r"%s misses: +([0-9]+)" % kind, stats_text).group(1))
        for kind in ("pure", "hom")
    )
    return float(match.group(1)), misses, out.getvalue()


def _alternating_costs(text, runs=3):
    """[(least predicate seconds, minors computed, stdout)] for the hashed
    side, then the ``--no-hash`` side, over ``runs`` runs of each.

    The sides take turns run by run, so a burst of load on the machine
    falls on both sides rather than on every run of one.
    """
    sides = ([], [])
    for _ in range(runs):
        for side, no_hash in zip(sides, (False, True)):
            side.append(_predicate_cost(text, no_hash))
    best = []
    for side in sides:
        assert len({cost[1:] for cost in side}) == 1  # only the clock varies
        best.append((min(cost[0] for cost in side),) + side[0][1:])
    return best


def test_criterion_10_hashing_speedup():
    # Each side's time is its least of 3 runs, taken in turn with the other
    # side's, so that load on the machine cannot fail the gate alone; the
    # count of minors computed does not read the clock at all.
    with criterion(10) as rec:
        cached = uncached = 0.0
        computed = computed_plain = 0
        for seed in (1, 2, 3):
            fam = gen_random(
                2, 6, "dense", [20, 20, 20], seed=seed, mode="implicitization"
            )
            assert sum(len(s) for s in fam.supports) == 60 and sum(map(sum, fam.symbolic)) == 3
            text = family_to_text(fam)
            hashed, plain = _alternating_costs(text)
            t_hash, n_hash, out_hash = hashed
            t_plain, n_plain, out_plain = plain
            assert out_hash == out_plain  # identical geometry either way
            cached += t_hash
            uncached += t_plain
            computed += n_hash
            computed_plain += n_plain
        speedup = uncached / cached if cached else float("inf")
        fewer = computed_plain / computed
        rec["ok"] = speedup >= 5.0 and fewer >= 5.0
        rec["detail"] = (
            "batch of 3 instances (n=2, m=3, |A|=60): predicate time "
            "%.3fs hashed vs %.3fs with --no-hash (least of 3 alternating "
            "runs), %.1fx reduction; %d vs %d minors computed, %.1fx (both >= 5x)"
            % (cached, uncached, speedup, computed, computed_plain, fewer)
        )


# -- 11: dimension formula ------------------------------------------------------


def test_criterion_11_dimension_formula():
    with criterion(11) as rec:
        templates = [
            (1, 3, "dense", (3, 3), "full"),
            (1, 3, "dense", (2, 3), "full"),
            (1, 4, "dense", (2, 2), "full"),
            (1, 4, "dense", (4, 2), "full"),
            (2, 2, "dense", (2, 2, 2), "full"),
            (2, 2, "dense", (3, 2, 2), "full"),
            (2, 3, "dense", (3, 3, 2), "full"),
            (2, 3, "sparse", (2, 2, 3), "full"),
            (3, 2, "dense", (2, 2, 2, 2), "full"),
            (3, 2, "dense", (3, 2, 2, 2), "full"),
        ]
        fams = _pool(50, templates=templates, seed0=1100)
        wrong = 0
        for fam in fams:
            sysd = build_cayley(fam)
            assert sysd.m == len(sysd.columns)  # m = |A| in full mode
            expected = len(sysd.columns) - 2 * sysd.n - 1
            state = compute_pi(sysd)
            if state.dim != expected:
                wrong += 1
        rec["ok"] = wrong == 0
        rec["detail"] = (
            "50 random essential full-projection instances: dim(Pi) = "
            "|A| - 2n - 1 held in %d/50 (want 50/50)" % (50 - wrong)
        )
