"""Workloads of the resnewt benchmark and the layer metrics it reports.

Each workload is one seeded ``resnewt generate`` family run under one
``compute`` mode.  Instance ``i`` of a run with seed ``s`` is
``gen_random(..., seed=s * GEN_SEED_STRIDE + i)``, so a seed fixes every
input and two seeds share none.  The oracle's own tie-breaking seed stays at
the CLI default (0).

Instance counts are sized so that one pass over a workload takes about 12 s
with the pure-Python backend on a 2-core machine, and a run makes two.
Per-instance cost varies by a factor of 3 to 5 between seeds of one family,
so a run needs tens of instances before its totals repeat from seed to seed.
That is why every family here is smaller than the one that first motivated
it (see ``Workload.note``).
"""

from dataclasses import dataclass
from fractions import Fraction

GEN_SEED_STRIDE = 10_000
THRESHOLD = Fraction(9, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # compute --mode
    # resnewt generate n delta --sizes ... --projection ...
    n: int
    delta: int
    sizes: tuple
    projection: str
    count: int
    why: str
    note: str

    def generate_command(self):
        return "generate %d %d --sizes %s --projection %s" % (
            self.n,
            self.delta,
            ",".join(str(s) for s in self.sizes),
            self.projection,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-full",
            mode="exact",
            n=2, delta=3, sizes=(3, 3, 3), projection="full", count=60,
            why="exact mode, full projection: hull insertion and facet maps "
            "(geometry) lead, in the oracle's lifted hull and in the "
            "reconstruction hull",
            note="4,3,3 takes 0.3-1.7 s an instance, so only about 12 fit in "
            "a pass; 4,4,3 takes 12-16 s",
        ),
        Workload(
            name="implicit",
            mode="exact",
            n=2, delta=4, sizes=(6, 6, 6), projection="implicit", count=140,
            why="implicitization: the output polytope is small, so the "
            "oracle's lifted triangulation and minor-cache predicates dominate",
            note="surface implicitization (m = 3); 3 3 5,5,5,5 takes 1-4 s "
            "an instance and spreads too much per run",
        ),
        Workload(
            name="approx",
            mode="approx",
            n=1, delta=6, sizes=(4, 3), projection="full", count=57,
            why="approx mode at 9/10: rebuilds the outer hull by "
            "clip_halfspace and measures both hulls with hull_volume",
            note="1 4 4,4 takes 9-16 s an instance",
        ),
    )
}


def instance_texts(workload, run_seed):
    """[(label, input text)] for one run; needs ``resnewt`` importable."""
    from resnewt.cayley import _MODE_ALIASES, family_to_text
    from resnewt.cli import gen_random

    out = []
    for i in range(workload.count):
        gseed = run_seed * GEN_SEED_STRIDE + i
        family = gen_random(
            workload.n, workload.delta, "dense", list(workload.sizes), gseed,
            mode=_MODE_ALIASES[workload.projection],
        )
        out.append(("%s --seed %d" % (workload.generate_command(), gseed), family_to_text(family)))
    return out


# Per-layer metrics of the traced run: (name, unit, better, end-to-end metric
# it should move, workloads where it should move).  On every other workload
# the prediction is no change.
ALL = ("exact-full", "implicit", "approx")
LAYER_METRICS = (
    ("cayley.setup_s", "s", "lower", "setup_s", ALL),
    ("cayley.columns", "count", "lower", "setup_s", ALL),
    ("oracle.calls", "count", "lower", "wall_s", ALL),
    ("oracle.memo_hit_ratio", "ratio", "higher", "wall_s", ALL),
    ("oracle.call_s_p50", "s", "lower", "wall_s", ("implicit",)),
    ("oracle.call_s_tail", "s", "lower", "wall_s", ("implicit",)),
    ("oracle.triangulation_s", "s", "lower", "wall_s", ("implicit",)),
    ("oracle.rho_s", "s", "lower", "wall_s", ("implicit",)),
    ("kernels.predicate_calls", "count", "lower", "wall_s", ("implicit",)),
    ("kernels.predicate_s", "s", "lower", "wall_s", ("implicit",)),
    ("kernels.pure_misses", "count", "lower", "wall_s", ("implicit",)),
    ("kernels.hom_misses", "count", "lower", "wall_s", ("implicit",)),
    ("kernels.hit_ratio", "ratio", "higher", "wall_s", ("implicit",)),
    ("kernels.entries", "count", "lower", "peak_rss_mb", ("implicit",)),
    ("kernels.clears", "count", "lower", "peak_rss_mb", ("implicit",)),
    ("geometry.insert_calls", "count", "lower", "wall_s", ("exact-full",)),
    ("geometry.insert_calls.recon", "count", "lower", "wall_s", ("exact-full",)),
    ("geometry.insert_calls.oracle", "count", "lower", "wall_s", ("exact-full",)),
    ("geometry.insert_calls.clip", "count", "lower", "wall_s", ("approx",)),
    ("geometry.insert_s", "s", "lower", "wall_s", ("exact-full",)),
    ("geometry.insert_s.recon", "s", "lower", "wall_s", ("exact-full",)),
    ("geometry.insert_s.oracle", "s", "lower", "wall_s", ("exact-full",)),
    ("geometry.insert_s.clip", "s", "lower", "wall_s", ("approx",)),
    ("geometry.facet_map_calls", "count", "lower", "wall_s", ("exact-full", "approx")),
    ("geometry.facet_map_s", "s", "lower", "wall_s", ("exact-full", "approx")),
    ("geometry.det_calls", "count", "lower", "wall_s", ("exact-full",)),
    ("geometry.det_s", "s", "lower", "wall_s", ("exact-full",)),
    ("geometry.clip_calls", "count", "lower", "wall_s", ("approx",)),
    ("geometry.clip_s", "s", "lower", "wall_s", ("approx",)),
    ("geometry.volume_s", "s", "lower", "wall_s", ("approx",)),
    ("reconstruct.init_s", "s", "lower", "wall_s", ALL),
    ("reconstruct.init_calls", "count", "lower", "wall_s", ALL),
    ("reconstruct.main_calls", "count", "lower", "wall_s", ALL),
    ("reconstruct.call_bound_slack", "count", "higher", "wall_s", ALL),
    ("reconstruct.pullback_s", "s", "lower", "wall_s", ("exact-full",)),
    ("reconstruct.xi_of_s", "s", "lower", "wall_s", ("exact-full",)),
    ("reconstruct.approx_calls_to_threshold", "count", "lower", "wall_s", ("approx",)),
    ("cli.emit_s", "s", "lower", "instance_s_p50", ("exact-full",)),
    ("cayley.self_s", "s", "lower", "setup_s", ALL),
    ("oracle.self_s", "s", "lower", "wall_s", ("implicit",)),
    ("kernels.self_s", "s", "lower", "wall_s", ("implicit",)),
    ("geometry.self_s", "s", "lower", "wall_s", ("exact-full", "approx")),
    ("reconstruct.self_s", "s", "lower", "wall_s", ("exact-full",)),
    ("cli.self_s", "s", "lower", "instance_s_p50", ALL),
    ("trace.overhead_s", "s", "lower", "none", ALL),
)
