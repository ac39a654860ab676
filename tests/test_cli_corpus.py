"""Exact-output CLI corpus: every recorded command gives the same bytes.

tests/data/cli_corpus.json holds the exit code, stdout, stderr and --out
file of each command that tests/make_cli_corpus.py lists, with wall times
masked; rerun that script to regenerate it after a deliberate output change.
"""

import json

import pytest

from make_cli_corpus import CORPUS, run

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[" ".join(e["argv"]) or "<no arguments>" for e in ENTRIES]
)
def test_cli_output_matches_corpus(entry, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = run(entry["argv"], str(tmp_path / "out"))
    assert got == (entry["code"], entry["stdout"], entry["stderr"], entry["out_file"])
