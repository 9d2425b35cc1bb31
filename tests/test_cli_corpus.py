"""Every command's output, byte for byte, on a fixed corpus of requests.

`tests/data/cli_corpus.json` holds, per request, the exit code and the
SHA-256 of standard output and of standard error, and the test replays
each request in process through `pfta.cli.main`.  The requests run every
command on both data files, the `EDGE_MODELS` and three bench-family
models (`mp(4,2,2)`, `mp(5,3,3)` and `chain(12)`), each analysis at
default digits and at `--digits 17`; argparse errors and help text are
left out, since their wording changes between Python versions.

A change that means to change some output re-records the file from the
repository root with

    PYTHONPATH=src python tests/test_cli_corpus.py

and lists the requests whose entries changed in `CHANGES.md`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from conftest import DATA
from pfta.cli import main
from pfta.dsl import serialize_model
from randmodels import EDGE_MODELS, chain, multiprocessor_text

CORPUS = DATA / "cli_corpus.json"
DATA_FILES = ("multiprocessor", "two_input_vote")
# bench-family models: mp(5,3,3)'s 27 events send its oracle requests to exit 2
FAMILY_MODELS = {
    "mp_4_2_2": multiprocessor_text(4, 2, 2),
    "mp_5_3_3": multiprocessor_text(5, 3, 3),
    "chain_12": serialize_model(chain(12)),
}

_ANALYSES = [
    ["mcs", "--time", "10000"],
    ["mcs", "--time", "10000", "--posterior"],
    ["mcs", "--time", "10000", "--posterior", "--max-explanations", "5"],
    ["unrel", "--time", "10000"],
    ["unrel", "--time", "10000", "--epsilon", "1e-3"],
    ["unrel", "--time", "10000", "--max-explanations", "5"],
    ["unrel", "--time", "0"],
    ["curve", "--from", "0", "--to", "10000", "--step", "2500"],
    ["curve", "--from", "0", "--to", "10000", "--step", "2500", "--epsilon", "1e-3"],
    ["posterior", "--time", "10000"],
    ["oracle", "--time", "10000"],
]
# each request's arguments after the model file
REQUESTS = [
    ["validate"],
    ["compile", "--stage", "1", "--time", "10000"],
    ["compile", "--stage", "2", "--time", "10000"],
    ["compile", "--stage", "1", "--time", "10000", "--precision", "4"],
    ["compile", "--stage", "2", "--time", "10000", "--precision", "4"],
    *_ANALYSES,
    *(args + ["--digits", "17"] for args in _ANALYSES),
]


def _model_files(directory: Path) -> dict[str, Path]:
    """Each corpus model's file, keyed by its name: the data files, and the
    edge and family models written into `directory`."""
    files = {name: DATA / f"{name}.pft" for name in DATA_FILES}
    for name, text in {**EDGE_MODELS, **FAMILY_MODELS}.items():
        files[name] = directory / f"{name}.pft"
        files[name].write_text(text)
    return files


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _replay(files: dict[str, Path]) -> dict[str, dict]:
    """Each request's exit code and output digests, keyed by model name and arguments."""
    entries = {}
    for name, path in files.items():
        for args in REQUESTS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([args[0], str(path), *args[1:]])
            entries[" ".join([name, *args])] = {
                "exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}
    return entries


def test_every_request_prints_what_the_corpus_recorded(tmp_path):
    recorded = json.loads(CORPUS.read_text())
    replayed = _replay(_model_files(tmp_path))
    assert list(replayed) == list(recorded)
    assert {key: got for key, got in replayed.items() if got != recorded[key]} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        corpus = _replay(_model_files(Path(directory)))
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
