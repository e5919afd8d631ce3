"""The files the CLI writes, pinned by sha256 digest.

Reports and models must stay byte-identical when the code behind them
is refactored and across Python versions (3.12 changed ``sum()`` over
floats), so each case's output file is hashed and compared with a
digest recorded once.  Stdout is not hashed: it prints temporary paths.
"""

import hashlib

import pytest

from cognatekit.cli import main

from conftest import make_hard_synthetic_pairs

CASES = {
    "eval": (
        ["eval"],
        "ad471a916a9af7a80a09f3827022e8aff14755c833ae8e2fbbe4d581559175f2",
    ),
    "eval-bm25-one-end": (
        ["eval", "--ranker", "bm25", "--mode", "one-end", "--k", "2,3"],
        "3a6f36a042b9d5ddd082655141e194ae350619656c026066e98581fea84a7b3d",
    ),
    "train": (
        ["train"],
        "2cf3e9e1078bfd4d17dea5d8e02afba6b90e9889902016dead946d358dad5e98",
    ),
    "train-mrr": (
        ["train", "--objective", "mrr"],
        "e2886c008f6b89330778b29893a04fc86910918e25507fe3520a71ef54e10dde",
    ),
    "ablate": (
        ["ablate"],
        "5dfa0ae91fea84a7f694bf0ebfba55eb6e0c22fc494e9a6e498edbf9d08d84f1",
    ),
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("digests") / "hard.tsv"
    lines = [f"{p.source}\t{p.target}\t{int(p.label)}" for p in make_hard_synthetic_pairs(40, 40)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", list(CASES))
def test_output_file_digest(name, dataset, tmp_path):
    argv, digest = CASES[name]
    out = tmp_path / "out.json"
    assert main(argv + ["--dataset", str(dataset), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
