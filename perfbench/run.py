"""End-to-end benchmark of resnewt.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload exact-full --seed 1 --seconds 36 --trace 0

One process, one thread, one instance at a time (a closed loop).  The run

1. generates the workload's instance texts from ``--seed`` (untimed; see
   ``workloads.py``);
2. times set-up -- importing ``resnewt`` and building every instance's
   ``CayleySystem`` -- in ``SETUP_REPEATS`` fresh interpreters;
3. runs the golden instances of ``tests/golden.py`` and compares their
   vertex sets (untimed; this also warms the interpreter);
4. with ``--trace 0``, runs every instance as an in-process ``cli.run`` with
   its output captured, in up to ``PASSES`` whole passes (a pass starts only
   while it fits in ``--seconds``); each instance's time is its median over
   passes, in reference-speed seconds (below);
   with ``--trace 1``, makes one untraced and one traced pass, and reports
   per-layer metrics and the tracing overhead;
5. checks every output (``check.py``) and compares its digest with the one
   recorded from the seed commit, where one was recorded;
6. prints the metrics, one per line with its unit, writes the full result
   to ``perfbench/out/`` and prints one JSON object as the last line.

Instances that raise or fail a check count in ``failed``; ``correct`` is
false when any did.

Reference-speed seconds: on shared virtual machines the core's speed
switches between levels up to 1.7x apart, for a fraction of a second to
minutes at a time, invisibly to the guest (no steal time; process CPU time
slows down with it).  Raw times of one seed moved by 20-40% between
back-to-back runs, more than any run length or number of passes could
average out.  So a short fixed pure-Python calibration loop runs between
instances, and each instance's raw seconds are scaled by
``CALIB_REF_S / (mean of the calibration times just before and after it)``.
The result is the instance's time at the speed the calibration loop had on
the machine the benchmark was defined on (``calib.py``).  Set-up is scaled
the same way inside each fresh interpreter.  Measured seconds are printed
and kept in the result file next to the scaled ones.
"""

import argparse
import gzip
import io
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

from calib import Gauge, reference_seconds
from check import (
    CheckFailed,
    check_polytope,
    digest_key,
    golden_cases,
    load_digests,
    output_digest,
    parse_output,
    parse_stats,
)
from quantiles import tail
from workloads import LAYER_METRICS, THRESHOLD, WORKLOADS, instance_texts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
PASSES = 2
SETUP_TIMEOUT_S = 120
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_s_p50": "s",
    "instance_s_tail": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def import_resnewt():
    init = os.path.join(SRC, "resnewt", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError("no resnewt sources at %s" % init)
    sys.path.insert(0, SRC)
    import resnewt

    if os.path.abspath(resnewt.__file__) != init:
        raise BenchError("imported resnewt from %s, not %s" % (resnewt.__file__, init))
    return resnewt


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    res = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def measure_setup(texts):
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = os.path.join(HERE, "setup_probe.py")
    payload = json.dumps(texts)
    runs = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, probe],
            input=payload,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=SETUP_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise BenchError("set-up probe failed:\n" + res.stderr)
        runs.append(json.loads(res.stdout))
    return runs


def run_instance(cli, mode, text):
    """(exit code, stdout, stderr, seconds) of one in-process ``compute``."""
    config = cli.RunConfig(mode=mode, threshold=THRESHOLD, stats=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    rc = cli.run(config, stdin=text, stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0


class Outcome:
    """Checked result of one instance across passes."""

    def __init__(self, label, key):
        self.label = label
        self.key = key
        self.seconds = []  # reference-speed seconds, one per pass
        self.measured = []  # measured seconds, one per pass
        self.digest = None
        self.doc = None
        self.error = None


def check_run(outcome, mode, rc, stdout, stderr, digests):
    """Check one run of an instance; raises CheckFailed."""
    if rc != 0:
        raise CheckFailed("exit code %d: %s" % (rc, stderr.strip()[:200]))
    digest = output_digest(stdout)
    if outcome.digest is not None:
        if digest != outcome.digest:
            raise CheckFailed("output changed between passes")
        return
    outcome.digest = digest
    recorded = digests.get(outcome.key)
    if recorded is not None and recorded != digest:
        raise CheckFailed("output digest %s differs from recorded %s" % (digest, recorded))
    outcome.doc = parse_output(stdout)
    check_polytope(
        outcome.doc,
        main_calls=int(parse_stats(stderr)["main calls"]),
        threshold=THRESHOLD if mode == "approx" else None,
    )


def timed_pass(cli, mode, items, outcomes, digests, gauge):
    """Run every instance once; returns the pass's measured seconds."""
    total = 0.0
    for (label, text), oc in zip(items, outcomes):
        if oc.error is not None:
            continue
        try:
            rc, stdout, stderr, secs = run_instance(cli, mode, text)
            factor = gauge.factor()
            check_run(oc, mode, rc, stdout, stderr, digests)
        except Exception as exc:  # a failing instance is counted, not fatal
            oc.error = "%s: %s" % (type(exc).__name__, exc)
            continue
        oc.seconds.append(secs * factor)
        oc.measured.append(secs)
        total += secs
    return total


def run_goldens(cli):
    """[(label, error or None)] for the golden instances."""
    out = []
    for label, text, expected in golden_cases(ROOT):
        try:
            rc, stdout, stderr, _ = run_instance(cli, "exact", text)
            if rc != 0:
                raise CheckFailed("exit code %d" % rc)
            doc = parse_output(stdout)
            check_polytope(doc, main_calls=int(parse_stats(stderr)["main calls"]))
            if set(doc["vertices"]) != set(expected):
                raise CheckFailed("vertices %s, expected %s" % (sorted(doc["vertices"]), sorted(expected)))
            out.append((label, None))
        except Exception as exc:  # counted as a failed instance
            out.append((label, "%s: %s" % (type(exc).__name__, exc)))
    return out


def e2e_metrics(outcomes, passes, setup_s):
    times = [median(oc.seconds) for oc in outcomes if oc.error is None]
    pct, tail_s, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "instance_s_p50": median(times),
        "instance_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": "sum over %d instances of the median of %d pass(es); measured %.3f s"
        % (len(times), passes, sum(median(oc.measured) for oc in outcomes if oc.error is None)),
        "instance_s_p50": "n=%d" % len(times),
        "instance_s_tail": "p%d, %d samples beyond, n=%d" % (pct, beyond, len(times)),
    }
    return metrics, notes


def traced_pass(cli, mode, items, outcomes, digests, gauge, approx):
    """One pass with the tracer installed; returns (scaled seconds, measured
    seconds, per-layer metrics, spans), seconds summed over the instances
    that passed."""
    from layers import install, layer_metrics
    from spans import Tracer

    tracer = Tracer()
    records = {}
    install(tracer, records)
    total = measured = 0.0
    try:
        for i, ((label, text), oc) in enumerate(zip(items, outcomes)):
            if oc.error is not None:
                continue
            tracer.instance = i
            records[i] = {}
            try:
                rc, stdout, stderr, secs = run_instance(cli, mode, text)
                factor = gauge.factor()
                check_run(oc, mode, rc, stdout, stderr, digests)
                if approx and records[i].get("emptied") and oc.doc["sandwich"]["ratio"] != "1":
                    raise CheckFailed("queue emptied but the ratio is not 1")
            except Exception as exc:  # a failing instance is counted, not fatal
                oc.error = "%s: %s" % (type(exc).__name__, exc)
                del records[i]
                continue
            total += secs * factor
            measured += secs
            records[i].update(vertices=len(oc.doc["vertices"]), facets=len(oc.doc["facets"]))
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer.spans, tracer.flat, records, approx)
    return total, measured, metrics, tracer.spans


def write_spans(path, spans):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sid, s in enumerate(spans):
            fh.write(json.dumps([sid] + s) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    mode = workload.mode

    resnewt = import_resnewt()
    from resnewt import cli

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "backend": resnewt.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    print(" ".join("%s=%s" % kv for kv in context.items()))

    items = instance_texts(workload, args.seed)
    digests = load_digests().get(workload.name, {})
    setup = measure_setup([text for _, text in items])
    setup_s = median([reference_seconds(r["import_s"] + r["cayley_s"], r["calib_s"]) for r in setup])

    goldens = run_goldens(cli)
    for label, err in goldens:
        if err is not None:
            print("golden %s FAILED: %s" % (label, err))

    outcomes = [Outcome(label, digest_key(mode, text)) for label, text in items]

    gauge = Gauge()
    t_start = perf_counter()
    pass_walls = [timed_pass(cli, mode, items, outcomes, digests, gauge)]
    layer = None
    if args.trace:
        traced_wall, traced_measured, layer, spans = traced_pass(
            cli, mode, items, outcomes, digests, gauge, approx=(mode == "approx")
        )
        # Layer times are measured inside the traced pass; scale them by the
        # pass's overall factor so they add up to its reference-speed time.
        for name, unit, *_ in LAYER_METRICS:
            if unit == "s" and name in layer:
                layer[name] *= traced_wall / traced_measured
        untraced_wall = sum(oc.seconds[0] for oc in outcomes if oc.error is None)
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        layer["cayley.setup_s"] = median([reference_seconds(r["cayley_s"], r["calib_s"]) for r in setup])
        layer["cayley.columns"] = setup[0]["columns"]
    else:
        while len(pass_walls) < PASSES and perf_counter() - t_start + pass_walls[-1] <= args.seconds:
            pass_walls.append(timed_pass(cli, mode, items, outcomes, digests, gauge))

    failed = sum(err is not None for _, err in goldens) + sum(oc.error is not None for oc in outcomes)
    attempted = len(goldens) + len(outcomes)
    for oc in outcomes:
        if oc.error is not None:
            print("instance %s FAILED: %s" % (oc.label, oc.error))
    passed = [oc for oc in outcomes if oc.error is None]
    checked = sum(oc.key in digests for oc in passed)
    metrics, notes = e2e_metrics(outcomes, len(pass_walls), setup_s)
    notes["setup_s"] = "median of %d fresh interpreters; measured %.6f s" % (
        SETUP_REPEATS, median([r["import_s"] + r["cayley_s"] for r in setup]))

    for name, value in metrics.items():
        print("%-16s %.6f %s  (%s)" % (name, value, E2E_UNITS[name], notes.get(name, "")))
    print("failed_frac      %.6f  (%d failed of %d attempted, %d goldens)" % (failed / attempted, failed, attempted, len(goldens)))
    print("output digests   %d matched the seed commit, %d not recorded" % (checked, len(passed) - checked))

    if args.trace:
        for name, unit, *_ in LAYER_METRICS:
            print("%-40s %.6f %s" % (name, layer[name], unit))
        print("traced wall %.6f s, untraced wall %.6f s" % (traced_wall, untraced_wall))
        reported = {name: {"value": layer[name], "unit": unit} for name, unit, *_ in LAYER_METRICS}
    else:
        reported = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in metrics.items()}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace))
    result = {
        "context": context,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "measured_pass_s": pass_walls,
        "speed_factors": gauge.factors,
        "e2e": metrics,
        "notes": notes,
        "layers": layer,
        "goldens": dict(goldens),
        "instances": [
            {
                "label": oc.label,
                "key": oc.key,
                "seconds": oc.seconds,
                "measured_s": oc.measured,
                "digest": oc.digest,
                "error": oc.error,
            }
            for oc in outcomes
        ],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        write_spans(stem + ".spans.jsonl.gz", spans)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        sys.exit(2)
