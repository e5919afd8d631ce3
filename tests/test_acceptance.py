"""Acceptance suite.

Criteria 1-6 are dataset-independent and must always pass.  Criteria
7-10 reproduce the published-style experiments and need the real
labeled datasets; they skip (with a reason) when the files are absent.

Dataset location: $COGNATE_DATA_DIR or ./data relative to the repo
root, with one TSV per language pair (ro-it.tsv, ro-fr.tsv, ro-es.tsv,
ro-pt.tsv) in ``source<TAB>target<TAB>label`` format.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cognatekit
from cognatekit import (
    CombinedScorer,
    RankerParams,
    ShinglerConfig,
    build_graph,
    build_index,
    edit_distance,
    intersect,
    rank,
    shingle,
    sim,
    train_error_model,
)
from cognatekit.error_model import EMPTY_TOKEN
from cognatekit.evaluation import run_baseline_experiment, run_experiment
from cognatekit.persistence import load_model, save_model

from conftest import edge_prob, make_synthetic_pairs, random_word, train_on_words

TWO_END = ShinglerConfig((2,), "two_end")
ONE_END = ShinglerConfig((2,), "one_end")
PLAIN2 = ShinglerConfig((2,), "plain")
DIGITS = "0123456789"

LANGUAGE_PAIRS = ("ro-it", "ro-fr", "ro-es", "ro-pt")
HEADLINE_ACCURACY = {"ro-it": 0.88, "ro-fr": 0.89, "ro-es": 0.87, "ro-pt": 0.80}
HEADLINE_MRR = {"ro-it": 0.67, "ro-fr": 0.59, "ro-es": 0.60, "ro-pt": 0.58}


def ok(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


def data_dir():
    env = os.environ.get("COGNATE_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


def load_language_pair(name):
    from cognatekit import load_dataset

    path = data_dir() / f"{name}.tsv"
    if not path.exists():
        pytest.skip(f"labeled dataset not found at {path}")
    return load_dataset(path, name)


_REPORT_CACHE = {}


def cached_run(key, factory):
    if key not in _REPORT_CACHE:
        _REPORT_CACHE[key] = factory()
    return _REPORT_CACHE[key]


# ---------------------------------------------------------------------------
# Criterion 1: golden split sets and their intersection
# ---------------------------------------------------------------------------


class TestCriterion1GoldenShingles:
    def test_golden_split_sets(self):
        assert shingle("rosmarin", PLAIN2).tokens == (
            "r", "ro", "os", "sm", "ma", "ar", "ri", "in", "n",
        )
        assert shingle("rosmarin", ONE_END).tokens == (
            "1r", "2ro", "3os", "4sm", "5ma", "6ar", "7ri", "8in", "9n",
        )
        assert shingle("rosmarin", TWO_END).tokens == (
            "1r", "2ro", "3os", "4sm", "5ma", "ar4", "ri3", "in2", "n1",
        )
        assert shingle("romarin", TWO_END).tokens == (
            "1r", "2ro", "3om", "4ma", "ar4", "ri3", "in2", "n1",
        )
        overlap = intersect(shingle("rosmarin", TWO_END), shingle("romarin", TWO_END))
        assert overlap.tokens == ("1r", "2ro", "ar4", "ri3", "in2", "n1")
        ok(1, "golden split sets and six-token intersection match exactly")


# ---------------------------------------------------------------------------
# Criterion 2: golden transformation graphs
# ---------------------------------------------------------------------------


class TestCriterion2GoldenGraphs:
    def test_golden_graphs(self):
        graph = build_graph(shingle("mesia", TWO_END), shingle("messia", TWO_END))
        assert graph.edges == ((EMPTY_TOKEN, "4ss"),)
        same = shingle("noche", TWO_END)
        assert build_graph(same, same).edges == ((EMPTY_TOKEN, EMPTY_TOKEN),)
        ok(2, "single-insertion and identical-word graphs match exactly")


# ---------------------------------------------------------------------------
# Criterion 3: property suites, >= 1000 random cases each
# ---------------------------------------------------------------------------

N_CASES = 1000


def fitted_scorer(seed):
    rng = random.Random(seed)
    triples = []
    for i in range(60):
        w = random_word(rng, 3, 8)
        if i % 2 == 0:
            triples.append((w, w + "e", True))
        else:
            triples.append((w, random_word(rng, 3, 8), False))
    return train_on_words(triples, TWO_END, RankerParams("dirichlet"))


class TestCriterion3Properties:
    def test_position_strip_invariance(self):
        rng = random.Random(61)
        for _ in range(N_CASES):
            word = random_word(rng)
            k = rng.randint(2, 3)
            plain = list(shingle(word, ShinglerConfig((k,), "plain")).tokens)
            for mode in ("one_end", "two_end"):
                tokens = shingle(word, ShinglerConfig((k,), mode)).tokens
                # positions are digits, which words cannot contain
                grams = list(dict.fromkeys(t.strip(DIGITS) for t in tokens))
                assert grams == plain
        ok(3, f"position-strip invariance over {N_CASES} random cases")

    def test_graph_shape(self):
        rng = random.Random(62)
        for _ in range(N_CASES):
            a, b = random_word(rng), random_word(rng)
            graph = build_graph(shingle(a, TWO_END), shingle(b, TWO_END))
            assert len(graph.top) == len(graph.bottom)
            assert len(graph.edges) == len(graph.top) * len(graph.bottom)
        ok(3, f"|top| = |bottom| and completeness over {N_CASES} random pairs")

    def test_transformation_score_in_unit_interval(self):
        rng = random.Random(63)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(25)]
        model = train_error_model(pairs, TWO_END, alpha=0.8, power=0.7)
        for _ in range(N_CASES):
            score = model.score_words(random_word(rng), random_word(rng))
            assert 0.0 < score <= 1.0
        ok(3, f"transformation score inside (0, 1] over {N_CASES} random pairs")

    def test_transformation_score_non_increasing_in_strength(self):
        rng = random.Random(64)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(25)]
        base = train_error_model(pairs, TWO_END)
        models = [replace(base, power=p) for p in (0.25, 0.5, 1.0, 2.0, 4.0)]
        for _ in range(N_CASES):
            a, b = random_word(rng), random_word(rng)
            scores = [m.score_words(a, b) for m in models]
            assert all(x >= y for x, y in zip(scores, scores[1:]))
        ok(3, f"strength exponent monotonicity over {N_CASES} random pairs")

    def test_combined_score_bounded_and_affine(self):
        scorer = fitted_scorer(65)
        variants = {
            w: CombinedScorer(
                replace(scorer.config, sim_weight=w),
                scorer.error_model,
                scorer.index,
                scorer.sim_min,
                scorer.sim_max,
            )
            for w in (0.0, 0.5, 1.0)
        }
        rng = random.Random(66)
        for _ in range(N_CASES):
            a, b = random_word(rng, 2, 9), random_word(rng, 2, 9)
            values = [variants[w].score_pair(a, b) for w in (0.0, 0.5, 1.0)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert values[1] == pytest.approx((values[0] + values[2]) / 2, abs=1e-12)
        ok(3, f"combined score bounded and affine in the weight over {N_CASES} cases")

    def test_edit_distance_metric_axioms(self):
        rng = random.Random(67)
        for _ in range(N_CASES):
            a, b, c = (random_word(rng, 1, 8) for _ in range(3))
            assert edit_distance(a, b) == edit_distance(b, a)
            assert (edit_distance(a, b) == 0) == (a == b)
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
        ok(3, f"edit-distance metric axioms over {N_CASES} random triples")

    def test_smoothed_probabilities_sum_to_one(self):
        rng = random.Random(68)
        for _ in range(N_CASES):
            pairs = [
                (random_word(rng, 2, 8), random_word(rng, 2, 8))
                for _ in range(rng.randint(1, 4))
            ]
            alpha = rng.choice([0.25, 0.5, 1.0, 2.0])
            model = train_error_model(pairs, TWO_END, alpha=alpha)
            mass = sum(edge_prob(model, e) for e in model.edge_counts)
            mass += edge_prob(model, ("unseen", "unseen"))
            assert abs(mass - 1.0) <= 1e-12
        ok(3, f"smoothed edge mass sums to 1 within 1e-12 over {N_CASES} models")


# ---------------------------------------------------------------------------
# Criterion 4: rank() equals brute force for every ranking function
# ---------------------------------------------------------------------------


class TestCriterion4OracleEquivalence:
    def test_rank_matches_brute_force(self):
        functions = ("intersection", "jaccard", "dice", "xdice", "tfidf", "bm25", "dirichlet")
        rng = random.Random(71)
        for _ in range(100):
            lexicon = [random_word(rng, 2, 9) for _ in range(rng.randint(2, 200))]
            index = build_index(lexicon, TWO_END)
            query = random_word(rng, 2, 9)
            query_set = shingle(query, TWO_END)
            for name in functions:
                params = RankerParams(name)
                scored = [
                    (word, sim(query_set, doc, index, params))
                    for word, doc in index.docs
                ]
                decorated = sorted(
                    (-score, word, i, (word, score))
                    for i, (word, score) in enumerate(scored)
                )
                expected = [entry for _, _, _, entry in decorated]
                assert rank(query, index, params) == expected
        ok(4, "rank() equals brute-force sort on 100 random instances x 7 functions")


# ---------------------------------------------------------------------------
# Criterion 5: hand-computed micro-corpus scores
# ---------------------------------------------------------------------------


class TestCriterion5MicroCorpus:
    """Expected values computed independently from the written-out formulas
    over the hand-listed bigram sets of noche/nacht/notte vs query nuit."""

    BM25_EXPECTED = {
        "noche": 0.13353139262452257,
        "nacht": 1.114360645636249,
        "notte": 0.13353139262452257,
    }
    DIRICHLET_EXPECTED = {
        "noche": -1.762231481326559,
        "nacht": -0.8067200362991226,
        "notte": -1.762231481326559,
    }

    def test_fixed_three_document_index(self):
        index = build_index(["noche", "nacht", "notte"], PLAIN2)
        query = shingle("nuit", PLAIN2)
        bm25 = RankerParams("bm25", k1=1.2, b=0.75)
        dirichlet = RankerParams("dirichlet", mu=10.0)
        for word, doc in index.docs:
            assert sim(query, doc, index, bm25) == pytest.approx(
                self.BM25_EXPECTED[word], abs=1e-9
            )
            assert sim(query, doc, index, dirichlet) == pytest.approx(
                self.DIRICHLET_EXPECTED[word], abs=1e-9
            )
        ok(5, "BM25 and Dirichlet match hand-evaluated values within 1e-9")


# ---------------------------------------------------------------------------
# Criterion 6: determinism and persistence
# ---------------------------------------------------------------------------


class TestCriterion6Determinism:
    def test_reports_byte_identical_across_processes(self, tmp_path):
        pairs = make_synthetic_pairs(40, 40)
        dataset = tmp_path / "pairs.tsv"
        dataset.write_text(
            "\n".join(f"{p.source}\t{p.target}\t{int(p.label)}" for p in pairs) + "\n",
            encoding="utf-8",
        )
        # the child imports the package the tests import, however pytest found it
        src = str(Path(cognatekit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = []
        for run, hashseed in ((1, "1"), (2, "2")):
            out = tmp_path / f"report{run}.json"
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
            result = subprocess.run(
                [sys.executable, "-m", "cognatekit.cli", "eval",
                 "--dataset", str(dataset), "--seed", "42", "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        ok(6, "same-seed reports are byte-identical across fresh processes")

    def test_model_round_trip_preserves_scores_exactly(self, tmp_path):
        scorer = fitted_scorer(72)
        path = tmp_path / "model.json"
        save_model(path, scorer, seed=42)
        loaded, _ = load_model(path)
        rng = random.Random(73)
        for _ in range(200):
            a, b = random_word(rng, 2, 9), random_word(rng, 2, 9)
            assert loaded.score_pair(a, b) == scorer.score_pair(a, b)
        ok(6, "model save/load round-trip reproduces every score exactly")


# ---------------------------------------------------------------------------
# Criteria 7-10: dataset reproduction (skipped without the real data)
# ---------------------------------------------------------------------------


def tfidf_report(pairs, mode):
    return run_experiment(
        pairs,
        ShinglerConfig((2,), mode),
        "tfidf",
        use_error_model=False,
        seed=42,
    )


def dirichlet_report(pairs, name, with_error_model):
    return run_experiment(
        pairs,
        TWO_END,
        "dirichlet",
        use_error_model=with_error_model,
        seed=42,
    )


class TestCriterion7ShinglingDirection:
    def test_positional_shingling_improves_tfidf_accuracy(self):
        pairs = load_language_pair("ro-it")
        accuracy = {
            mode: cached_run(("tfidf", "ro-it", mode), lambda m=mode: tfidf_report(pairs, m)).accuracy
            for mode in ("plain", "one_end", "two_end")
        }
        assert accuracy["two_end"] > accuracy["one_end"] > accuracy["plain"]
        assert accuracy["two_end"] - accuracy["plain"] >= 0.05
        ok(7, f"tfidf accuracy ordering two_end > one_end > plain: {accuracy}")


class TestCriterion8ErrorModelLift:
    def test_error_model_lifts_mrr_everywhere(self):
        lifts = {}
        for name in LANGUAGE_PAIRS:
            pairs = load_language_pair(name)
            without = cached_run(("dir", name, False), lambda: dirichlet_report(pairs, name, False))
            with_model = cached_run(("dir", name, True), lambda: dirichlet_report(pairs, name, True))
            lifts[name] = (without.mrr, with_model.mrr)
        assert all(after > before for before, after in lifts.values())
        big = sum(after - before >= 0.10 for before, after in lifts.values())
        assert big >= 3
        ok(8, f"error model lifts MRR on all pairs (>="
              f"0.10 on {big}/4): {lifts}")


class TestCriterion9HeadlineNumbers:
    def test_headline_accuracy_and_mrr(self):
        misses = []
        observed = {}
        for name in LANGUAGE_PAIRS:
            pairs = load_language_pair(name)
            report = cached_run(("dir", name, True), lambda: dirichlet_report(pairs, name, True))
            observed[name] = (report.accuracy, report.mrr)
            if abs(report.accuracy - HEADLINE_ACCURACY[name]) > 0.05:
                misses.append(f"{name} accuracy {report.accuracy:.3f}")
            if abs(report.mrr - HEADLINE_MRR[name]) > 0.08:
                misses.append(f"{name} mrr {report.mrr:.3f}")
        assert not misses, f"outside tolerance: {misses}; observed {observed}"
        ok(9, f"headline accuracy/MRR within tolerance: {observed}")


class TestCriterion10BaselineSanity:
    def test_baselines_land_low(self):
        pairs = load_language_pair("ro-it")
        edit = cached_run(("base", "ro-it", "edit_distance"),
                          lambda: run_baseline_experiment(pairs, "edit_distance", seed=42))
        xdice = cached_run(("base", "ro-it", "xdice"),
                           lambda: run_baseline_experiment(pairs, "xdice", seed=42))
        pipeline = cached_run(("dir", "ro-it", True), lambda: dirichlet_report(pairs, "ro-it", True))
        assert abs(edit.accuracy - 0.53) <= 0.05
        assert abs(xdice.accuracy - 0.54) <= 0.05
        assert pipeline.mrr - edit.mrr >= 0.3
        assert pipeline.mrr - xdice.mrr >= 0.3
        ok(10, f"baselines: edit acc {edit.accuracy:.3f}, xdice acc {xdice.accuracy:.3f}, "
               f"pipeline MRR lead >= 0.3")
