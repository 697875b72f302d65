"""Record output digests from result files of the seed commit.

    python3 perfbench/record_digests.py perfbench/out/*-trace0.json

Merges the digest of every instance that passed its checks into
``digests.json``, keyed by workload and by a hash of mode and input text.
Later runs compare their output against these, so run this only on results
of the commit whose output is the reference.  A key that two results
digest differently is an error: the output is not deterministic.
"""

import json
import sys

from check import DIGESTS_PATH, load_digests


def main(paths):
    digests = load_digests()
    added = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        table = digests.setdefault(result["context"]["workload"], {})
        for inst in result["instances"]:
            if inst["error"] is not None:
                continue
            old = table.get(inst["key"])
            if old is None:
                table[inst["key"]] = inst["digest"]
                added += 1
            elif old != inst["digest"]:
                sys.stderr.write("error: %s has digests %s and %s\n" % (inst["label"], old, inst["digest"]))
                return 1
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("%d new digests; %s" % (added, ", ".join("%s %d" % (w, len(t)) for w, t in sorted(digests.items()))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
