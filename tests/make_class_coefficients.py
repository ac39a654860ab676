"""Regenerate tests/data/class_coefficients.json, the exact-coefficient corpus.

Records every nonzero A_xi(lam) of the fourth-moment engine
(``seminormal.class_coefficients``) for every shape lam with 1 <= |lam| <= 6.
Each shape maps to its coefficients in canonical xi order, keyed by the
comma form of xi ("4,2"), with each integer written as a decimal string.
Generating the file takes about 20 s.

    python tests/make_class_coefficients.py

tests/test_class_coefficients.py compares the engine with the file.  The
integers are fixed by mathematics: a mismatch is a defect to report, and the
file is rewritten only by this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "class_coefficients.json"
MAX_N = 6


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    from immom.partitions import partition_list
    from immom.seminormal import class_coefficients

    t0 = perf_counter()
    shapes = {}
    for n in range(1, MAX_N + 1):
        for lam in partition_list(n):
            shapes[str(lam)] = {str(xi): str(a)
                                for xi, a in class_coefficients(lam).items()}
    CORPUS.write_text(json.dumps(shapes, indent=1) + "\n", encoding="utf-8")
    count = sum(len(c) for c in shapes.values())
    print(f"wrote {count} coefficients of {len(shapes)} shapes to {CORPUS} "
          f"in {perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
