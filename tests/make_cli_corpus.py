"""Regenerate tests/data/cli_corpus.json, the exact-output CLI corpus.

Runs every command below in process through ``immom.cli.main`` and records
its exit code, stdout, stderr and, for ``--out`` runs, the file it wrote.
Wall times are masked (``wall_time_s`` in JSON, "computed in" in text), and
argparse formats its messages at a fixed width of 80 columns.  Argparse
quotes an invalid choice differently across Python releases: 3.10.13,
3.11.7, 3.12.1 and 3.13.0 print ``invalid choice: 'xml' (choose from
'text', 'json')`` and ``invalid choice: 3 (choose from 2, 4)``, while
3.13.13 prints the same value ``'3'`` and the choices without quotes.  So
the mask drops every single quote from an "invalid choice:" line to its
end.  The rest of argparse's wording is that of the Python the corpus was
made with (3.11), and a later Python may word an error differently.  The
Monte Carlo subcommands appear only on paths that exit before drawing a
sample: their seeded floats may differ in the last bits between CPUs.

    python tests/make_cli_corpus.py

tests/test_cli_corpus.py replays the corpus and asserts every byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "cli_corpus.json"
OUT = "{out}"  # placeholder in argv for the --out file

SMALL_SHAPES = ["1", "2", "1,1", "3", "2,1", "1^3", "4", "3,1", "2,2", "2,1,1", "1^4"]
FIVE_SHAPES = ["5", "4,1", "3,2", "3,1,1", "2,2,1", "2,1^3", "1^5"]


def commands():
    """Every command of the corpus, as argv lists."""
    cmds = [["--version"]]
    fmts = ([], ["--format", "json"])
    for lam in SMALL_SHAPES + FIVE_SHAPES + ["[2,1]", "-"]:
        cmds += [["mean", lam, *f] for f in fmts]
    cmds += [["mean", "3,1", "--d", "4"], ["mean", "2,1^3", "--d", "9", "--format", "json"]]
    for lam in SMALL_SHAPES + ["3,2", "2,2,1"]:
        cmds += [["second-moment", lam, *f] for f in fmts]
    cmds += [["second-moment", "2,1", "--d", "3"],
             ["second-moment", "3,1", "--d", "6", "--format", "json"]]
    for lam in SMALL_SHAPES + FIVE_SHAPES + ["3,3", "1^7"]:
        cmds.append(["leading", lam])
    cmds += [["leading", "3,2", "--format", "json"], ["leading", "1^6", "--format", "json"]]
    for n in (1, 2, 3, 4):
        for power in ("0", "2", "4", "6"):
            cmds.append(["det-moment", str(n), "--power", power])
    cmds += [["det-moment", "3"], ["det-moment", "3", "--d", "5"],
             ["det-moment", "2", "--power", "6", "--d", "4", "--format", "json"]]
    for n in (1, 2, 3, 4, 5):
        cmds += [["perm-conjecture", str(n), *f] for f in fmts]
    cmds.append(["perm-conjecture", "3", "--d", "7"])
    for rho in ["1", "2", "1,1", "3", "2,1", "1^3", "2,2", "4,1", "1^5", "-"]:
        cmds += [["wg", rho, *f] for f in fmts]
    cmds += [["wg", "2,1", "--d", "5"], ["wg", "1,1", "--d", "0"]]
    for n in (1, 3, 4, 5):
        cmds += [["dominance", str(n), *f] for f in (*fmts, ["--format", "csv"])]
    cmds += [["dominance", "6", "--d", "6", "--format", "json"],
             ["dominance", "0"], ["dominance", "0", "--format", "json"]]
    for max_n in ("2", "3", "4", "5"):
        cmds += [["table1", "--max-n", max_n, *f] for f in (*fmts, ["--format", "csv"])]
    for max_n in ("1", "4", "7"):
        cmds += [["table2", "--max-n", max_n, *f] for f in (*fmts, ["--format", "csv"])]
    cmds += [["table2"], ["table1"]]
    # --out once per format
    cmds += [["mean", "2,1", "--out", OUT],
             ["table1", "--max-n", "3", "--format", "json", "--out", OUT],
             ["dominance", "4", "--format", "csv", "--out", OUT]]
    # every path that exits 2: domain errors ...
    cmds += [
        ["mean", "x"], ["mean", "2,,1"], ["mean", "1^-1"], ["mean", "0,1"],
        ["mean", "2^x"], ["mean", "2,1", "--d", "2"], ["mean", "2", "--format", "csv"],
        ["mean", "2,1", "--d", "2", "--format", "json"],
        ["second-moment", "3,3"], ["second-moment", "2,1", "--d", "1"],
        ["second-moment", "2", "--format", "csv"],
        ["leading", "1^11"], ["leading", "2", "--format", "csv"],
        ["det-moment", "3", "--power", "3"], ["det-moment", "3", "--power", "-2"],
        ["det-moment", "0"], ["det-moment", "3", "--d", "2"],
        ["det-moment", "2", "--format", "csv"],
        ["perm-conjecture", "0"], ["perm-conjecture", "3", "--d", "2"],
        ["perm-conjecture", "2", "--format", "csv"],
        ["wg", "1,1", "--d", "1"], ["wg", "2,1", "--d", "2", "--format", "json"],
        ["wg", "x"], ["wg", "2", "--format", "csv"],
        ["dominance", "4", "--d", "3"], ["dominance", "-1"],
        ["table1", "--max-n", "1"], ["table1", "--max-n", "6"],
        ["table2", "--max-n", "0"], ["table2", "--max-n", "10"],
        ["sample", "2,1", "--d", "2"], ["sample", "2", "--d", "5:3"],
        ["sample", "2", "--d", "a"], ["sample", "2", "--d", "3", "--samples", "1"],
        ["sample", "2", "--d", "3", "--workers", "0"], ["sample", "x", "--d", "3"],
        ["verify", "2,1", "--d", "1:5"], ["verify", "2", "--d", "3:x"],
        ["verify", "2", "--d", "3", "--samples", "0"],
        ["verify", "2", "--d", "3", "--workers", "-1"],
        ["verify", "3,3", "--d", "6", "--power", "4", "--samples", "2"],
        # d below 1, where no unitary exists, even for the empty block
        ["mean", "-", "--d", "0", "--format", "json"],
        ["wg", "-", "--d", "0", "--format", "json"],
        ["wg", "2", "--d", "-5", "--format", "json"],
        ["sample", "-", "--d", "0", "--format", "json"],
        ["verify", "-", "--d", "0:1", "--format", "json"],
    ]
    # ... and argparse errors
    cmds += [
        [], ["frobnicate"], ["mean"], ["mean", "2", "--d", "x"],
        ["mean", "2", "--format", "xml"], ["mean", "2", "--bogus"],
        ["det-moment", "x"], ["table1", "--max-n", "x"],
        ["sample", "2", "--d", "3", "--power", "3"], ["sample", "2"],
        ["verify", "2", "--d", "3", "--threshold", "z"],
        ["leading", "2", "--limit-override", "x"],
    ]
    return cmds


def mask(text):
    """Blank out wall times, the only run-to-run variation in the output, and
    the quotes of an invalid argparse choice, which vary between Pythons."""
    text = re.sub(r'("wall_time_s": )[-+.0-9eE]+', r'\1"*"', text)
    text = re.sub(r"invalid choice: .*", lambda match: match[0].replace("'", ""), text)
    return re.sub(r"computed in [0-9.]+ s", "computed in * s", text)


def run(argv, out_path):
    """(exit code, stdout, stderr, --out file text or None) of one command."""
    from immom.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([out_path if a == OUT else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    written = None
    if OUT in argv:
        with open(out_path, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(out_path)
    return code, mask(out.getvalue()), mask(err.getvalue()), written


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    os.environ["COLUMNS"] = "80"
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        for argv in commands():
            code, stdout, stderr, written = run(argv, out_path)
            entries.append({"argv": argv, "code": code, "stdout": stdout,
                            "stderr": stderr, "out_file": written})
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(entries)} commands to {CORPUS}")


if __name__ == "__main__":
    main()
