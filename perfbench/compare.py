"""Summarise or compare benchmark results written by ``run.py``.

    python3 perfbench/compare.py perfbench/out/implicit-seed*-trace0.json
    python3 perfbench/compare.py BASE.json ... --vs NEW.json ...

For each end-to-end metric, prints the median and the quartile spread
(third minus first quartile, as a share of the median) of each set, and,
with ``--vs``, the change of the median against the bound in
``BENCHMARK.json``.  Refuses results whose backend or workload differ:
compiled and pure-Python numbers must never be mixed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="+")
    ap.add_argument("--vs", nargs="+", default=[])
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.vs)
    for key in ("backend", "workload"):
        seen = {r["context"][key] for r in base + new}
        if len(seen) != 1:
            sys.stderr.write("error: results mix %s values %s; refusing to compare\n" % (key, sorted(seen)))
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    ctx = base[0]["context"]
    print("workload %s, backend %s, %d base run(s), %d new run(s)" % (ctx["workload"], ctx["backend"], len(base), len(new)))
    status = 0
    for name, bound in bounds.items():
        med, spr = spread([r["e2e"][name] for r in base])
        line = "%-16s median %.6f  spread %.3f  bound %.2f" % (name, med, spr, bound)
        if new:
            med2, spr2 = spread([r["e2e"][name] for r in new])
            change = med2 / med - 1
            worse = change > bound
            status |= worse
            line += "  | new median %.6f  spread %.3f  change %+.3f%s" % (med2, spr2, change, "  WORSE" if worse else "")
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
