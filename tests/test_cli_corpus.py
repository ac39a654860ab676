"""Exact-output CLI corpus: every recorded command gives the same bytes.

tests/data/cli_corpus.json holds the exit code, stdout, stderr and --out
file of each command that tests/make_cli_corpus.py lists, with wall times
masked; rerun that script to regenerate it after a deliberate output change.
"""

import json
from importlib import resources

import jsonschema
import pytest

from make_cli_corpus import CORPUS, OUT, mask, run

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))
SCHEMA = json.loads(
    resources.files("immom.data").joinpath("report.schema.v1.json").read_text())


def json_documents():
    """(argv, document) for every JSON document of the corpus: the stdout,
    or the --out file, of each --format json run that exits 0 or 1."""
    for e in ENTRIES:
        argv = e["argv"]
        if e["code"] in (0, 1) and "--format" in argv and (
                argv[argv.index("--format") + 1] == "json"):
            yield argv, e["out_file"] if OUT in argv else e["stdout"]


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


DOCUMENTS = list(json_documents())


@pytest.mark.parametrize("argv, text", DOCUMENTS, ids=[" ".join(a) for a, _ in DOCUMENTS])
def test_corpus_json_validates_against_the_schema(argv, text):
    document = json.loads(text)
    # the corpus masks wall times as "*"; put a number back
    if document.get("wall_time_s") == "*":
        document["wall_time_s"] = 0.5
    jsonschema.validate(document, SCHEMA)


def test_corpus_holds_every_kind_of_json_document():
    kinds = {json.loads(text)["kind"] for _, text in DOCUMENTS}
    assert kinds == {"mean", "second_moment", "leading_coefficient", "determinant_moment",
                     "permanent_fourth_conjecture", "weingarten", "dominance", "table1",
                     "table2"}
