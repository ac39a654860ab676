"""Exact-output CLI corpus: every recorded command gives the same bytes.

tests/data/cli_corpus.json holds the exit code, stdout, stderr and --out
file of each command that tests/make_cli_corpus.py lists, with wall times
masked; rerun that script to regenerate it after a deliberate output change.
"""

import json

import pytest

from make_cli_corpus import CORPUS, mask, run

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[" ".join(e["argv"]) or "<no arguments>" for e in ENTRIES]
)
def test_cli_output_matches_corpus(entry, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = run(entry["argv"], str(tmp_path / "out"))
    assert got == (entry["code"], entry["stdout"], entry["stderr"], entry["out_file"])


def test_mask_reads_every_python_s_invalid_choice_alike():
    # the same two errors as Python 3.11.7 and 3.13.13 print them
    old = ("error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')\n"
           "error: argument --power: invalid choice: 3 (choose from 2, 4)\n")
    new = ("error: argument --format: invalid choice: 'xml' (choose from text, json)\n"
           "error: argument --power: invalid choice: '3' (choose from 2, 4)\n")
    assert mask(old) == mask(new)
