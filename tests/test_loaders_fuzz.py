"""Fuzzing of the dataset, lexicon and model loaders.

The invariant: whatever the file holds, a loader either returns or raises
:class:`DataError`, and the CLI turns a rejected data file into exit 2.
Examples are derandomized and few, so the suite stays deterministic.
"""

import copy
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cognatekit import (  # noqa: E402
    DataError,
    RankerParams,
    ShinglerConfig,
    load_dataset,
    load_lexicon,
    load_model,
)
from cognatekit.cli import main  # noqa: E402
from cognatekit.persistence import canonical_json, scorer_to_dict  # noqa: E402

from conftest import train_on_words  # noqa: E402

FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None)

# lines built from the characters the formats give meaning to, so that
# valid and near-valid files turn up as often as noise
WORD = st.text(alphabet="ab\u0103\u021b", min_size=1, max_size=6)
FIELD = st.one_of(WORD, WORD, st.text(alphabet="ab\t 01#\r\n\x00\u2028\ufeff", max_size=6))
ROW = st.builds("{}\t{}\t{}".format, FIELD, FIELD, st.sampled_from(["0", "1", "1", "2", ""]))
LINES = st.lists(st.one_of(ROW, ROW, FIELD), min_size=1, max_size=6).map("\n".join)
DATASET = st.lists(
    st.builds("{}\t{}\t{}".format, WORD, WORD, st.sampled_from(["0", "1"])), min_size=1
).map("\n".join)
BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(str.encode),
    LINES.map(lambda text: text.encode("utf-16")),
)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file that every example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "input"


def outcome(loader, path, data: bytes):
    """The loader's result, or ``None`` when it rejected the file (only DataError may escape)."""
    path.write_bytes(data)
    try:
        return loader(path)
    except DataError:
        return None


class TestDatasetLoader:
    @FUZZ
    @given(data=st.one_of(BYTES, st.one_of(LINES, DATASET).map(str.encode)))
    def test_only_data_errors_escape(self, path, data):
        pairs = outcome(load_dataset, path, data)
        if pairs is None:
            assert main(["eval", "--dataset", str(path)]) == 2
        else:
            assert pairs and all(p.source and p.target for p in pairs)


class TestLexiconLoader:
    @FUZZ
    @given(data=st.one_of(BYTES, LINES.map(str.encode)))
    def test_only_data_errors_escape(self, path, data):
        words = outcome(load_lexicon, path, data)
        assert main(["rank", "ab", "--lexicon", str(path)]) == (2 if words is None else 0)


def trained_model_document() -> dict:
    pairs = [("mesia", "messia", True), ("noche", "nuit", True), ("casa", "zzzz", False),
             ("rosa", "rose", True), ("lupo", "qqq", False)]
    scorer = train_on_words(pairs, ShinglerConfig((2,), "two_end"), RankerParams("dirichlet"))
    return json.loads(canonical_json(scorer_to_dict(scorer, 42)))


DOCUMENT = trained_model_document()


def paths(node, prefix=()):
    """Every key path into the document's nested objects."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from paths(value, prefix + (key,))


PATHS = sorted(paths(DOCUMENT))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_documents(draw) -> str:
    """The trained document with one value, anywhere in it, replaced by arbitrary JSON."""
    document = copy.deepcopy(DOCUMENT)
    path = draw(st.sampled_from(PATHS))
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(JSON_VALUES)
    return json.dumps(document)  # NaN and infinities as JSON's NaN/Infinity


class TestModelLoader:
    @FUZZ
    @given(data=BYTES)
    def test_only_data_errors_escape(self, path, data):
        self.check(path, data)

    @FUZZ
    @given(document=mutated_documents())
    def test_mutated_documents(self, path, document):
        self.check(path, document.encode("utf-8"))

    @staticmethod
    def check(path, data):
        loaded = outcome(load_model, path, data)
        assert main(["classify", "ab", "ba", "--model", str(path)]) == (2 if loaded is None else 0)
        if loaded is not None:
            scorer, _ = loaded
            assert math.isfinite(scorer.score_pair("mesia", "messia"))

    def test_deeply_nested_json_is_a_data_error(self, path):
        path.write_bytes(b"[" * 100_000)
        assert main(["classify", "ab", "ba", "--model", str(path)]) == 2

    def test_file_that_is_not_utf8_is_a_data_error(self, path):
        path.write_bytes(b"ab\xff\tcd\t1\n")
        for loader in (load_dataset, load_lexicon, load_model):
            with pytest.raises(DataError, match="UTF-8|utf-8"):
                loader(path)
