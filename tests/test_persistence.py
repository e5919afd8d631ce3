"""Model document round-trips and canonical JSON stability."""

import json
import random

import pytest

from cognatekit import DataError, RankerParams, ShinglerConfig, rank, shingle
from cognatekit.cli import main
from cognatekit.persistence import (
    canonical_json,
    load_model,
    save_model,
    scorer_from_dict,
    scorer_to_dict,
)

from conftest import random_word, train_on_words
from synthetic import make_hard_synthetic_pairs

TWO_END = ShinglerConfig((2,), "two_end")


def make_scorer(seed=51):
    rng = random.Random(seed)
    triples = []
    for i in range(30):
        w = random_word(rng, 3, 8)
        if i % 2 == 0:
            triples.append((w, w + "e", True))
        else:
            triples.append((w, random_word(rng, 3, 8), False))
    return train_on_words(
        triples, TWO_END, RankerParams("dirichlet", mu=5.0), sim_weight=0.4, power=2.0
    )


class TestModelRoundTrip:
    def test_scores_survive_exactly(self, tmp_path):
        scorer = make_scorer()
        path = tmp_path / "model.json"
        save_model(path, scorer, seed=42, hyperparameters={"mu": 5.0})
        loaded, meta = load_model(path)
        assert meta["seed"] == 42
        assert meta["hyperparameters"] == {"mu": 5.0}
        rng = random.Random(52)
        for _ in range(100):
            a, b = random_word(rng, 2, 8), random_word(rng, 2, 8)
            assert loaded.score_pair(a, b) == scorer.score_pair(a, b)
            assert loaded.classify(a, b) == scorer.classify(a, b)

    def test_config_fields_survive(self, tmp_path):
        scorer = make_scorer()
        path = tmp_path / "model.json"
        save_model(path, scorer, seed=7)
        loaded, _ = load_model(path)
        assert loaded.config == scorer.config
        assert loaded.sim_min == scorer.sim_min
        assert loaded.sim_max == scorer.sim_max
        assert loaded.shingler_config == scorer.shingler_config

    def test_document_is_byte_stable(self, tmp_path):
        scorer = make_scorer()
        a = canonical_json(scorer_to_dict(scorer, 42, {"x": 1}))
        b = canonical_json(scorer_to_dict(scorer, 42, {"x": 1}))
        assert a == b

    def test_dict_round_trip_without_files(self):
        scorer = make_scorer()
        clone, _ = scorer_from_dict(json.loads(canonical_json(scorer_to_dict(scorer, 1))))
        assert clone.score_pair("mesia", "messia") == scorer.score_pair("mesia", "messia")


class TestLoadedModelRanking:
    @pytest.mark.parametrize("flags", [[], ["--lambda", "1"]], ids=["lambda-0.6", "lambda-1"])
    def test_ranks_like_its_per_query_copy(self, tmp_path, flags):
        # a saved model classifies with its trained bounds, and ranks with
        # the row's own min/max like every scorer
        pairs = make_hard_synthetic_pairs(40, 40)
        dataset = tmp_path / "pairs.tsv"
        lines = "".join(f"{p.source}\t{p.target}\t{int(p.label)}\n" for p in pairs)
        dataset.write_text(lines, encoding="utf-8")
        path = tmp_path / "model.json"
        argv = ["train", "--dataset", str(dataset), "--out", str(path), "--no-tune"]
        assert main(argv + flags) == 0
        scorer, _ = load_model(path)
        assert scorer.config.normalization == "trained_minmax"
        per_query = scorer.with_config(normalization="per_query_minmax")
        index = scorer.index
        for p in pairs[:10]:
            for k in (None, 10):
                expected = rank(p.source, index, scorer=per_query, k=k)
                assert rank(p.source, index, scorer=scorer, k=k) == expected
            query = shingle(p.source, scorer.shingler_config)
            for target in index.words[:10]:
                expected = per_query.target_rank(query, index, target)
                assert scorer.target_rank(query, index, target) == expected


class TestBadDocuments:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all")
        with pytest.raises(DataError):
            load_model(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated_document(self, tmp_path):
        scorer = make_scorer()
        payload = scorer_to_dict(scorer, 42)
        del payload["error_model"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [("seed", [1]), ("seed", "7"), ("seed", 7.0), ("seed", True),
         ("hyperparameters", [1, 2]), ("hyperparameters", "ab"), ("hyperparameters", None)],
    )
    def test_bad_metadata(self, key, value):
        payload = scorer_to_dict(make_scorer(), 42, {"mu": 5.0})
        payload[key] = value
        with pytest.raises(DataError, match=key):
            scorer_from_dict(payload)

    def test_missing_or_null_metadata(self):
        payload = scorer_to_dict(make_scorer(), 42, {"mu": 5.0})
        del payload["hyperparameters"]
        payload["seed"] = None
        assert scorer_from_dict(payload)[1] == {"seed": None, "hyperparameters": {}}
        del payload["seed"]
        assert scorer_from_dict(payload)[1] == {"seed": None, "hyperparameters": {}}
