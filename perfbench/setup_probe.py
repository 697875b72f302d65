"""One set-up measurement, run in a fresh interpreter by ``run.py``.

Reads a JSON list of instance texts on stdin, then times importing
``resnewt`` and turning every text into a ``CayleySystem`` the way
``resnewt compute`` does (parse, essentiality check, preprocess, Cayley
matrix).  Prints one JSON object: import seconds, Cayley seconds, the
total column count |A| after preprocessing, and the mean calibration time
around the measurement (``calib.py``).
"""

import json
import sys
from time import perf_counter

from calib import calibration_s


def main():
    texts = json.load(sys.stdin)
    c0 = calibration_s()
    t0 = perf_counter()
    from resnewt.cayley import build_cayley, check_essential, parse_input, preprocess

    t1 = perf_counter()
    columns = 0
    for text in texts:
        family = parse_input(text)
        check_essential(family)
        columns += build_cayley(preprocess(family)).num_columns
    t2 = perf_counter()
    calib_s = (c0 + calibration_s()) / 2
    json.dump(
        {"import_s": t1 - t0, "cayley_s": t2 - t1, "columns": columns, "calib_s": calib_s},
        sys.stdout,
    )


if __name__ == "__main__":
    main()
