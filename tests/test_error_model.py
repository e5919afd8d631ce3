"""Transformation graphs and the smoothed edge-frequency model."""

import random

import pytest

from cognatekit import (
    ConfigError,
    ShinglerConfig,
    TrainingError,
    build_graph,
    shingle,
    train_error_model,
)
from cognatekit.error_model import (
    EMPTY_TOKEN,
    ErrorModel,
    _count_seq,
    _mean_ceiling,
    _mean_score,
    _nest,
    model_from_dict,
)
from cognatekit.shingling import MODES

from conftest import edge_prob, random_word

CONFIG = ShinglerConfig((2,), "two_end")
PLAIN2 = ShinglerConfig((2,), "plain")


def two_end(word):
    return shingle(word, CONFIG)


def brute_force_leftovers(a, b):
    """Independent set-difference oracle over canonical tokens."""
    at, bt = list(two_end(a).tokens), list(two_end(b).tokens)
    return [t for t in at if t not in bt], [t for t in bt if t not in at]


class TestBuildGraph:
    def test_single_insertion_pair(self):
        graph = build_graph(two_end("mesia"), two_end("messia"))
        assert graph.top == (EMPTY_TOKEN,)
        assert graph.bottom == ("4ss",)
        assert graph.edges == ((EMPTY_TOKEN, "4ss"),)

    def test_identical_words(self):
        x = two_end("noche")
        graph = build_graph(x, x)
        assert graph.edges == ((EMPTY_TOKEN, EMPTY_TOKEN),)

    def test_uneven_leftovers_pad_the_middle(self):
        graph = build_graph(two_end("stupor"), two_end("stupeur"))
        assert graph.top == ("po3", EMPTY_TOKEN, "or2")
        assert graph.bottom == ("pe4", "eu3", "ur2")
        assert len(graph.edges) == 9

    def test_leftovers_match_brute_force(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b = random_word(rng), random_word(rng)
            top_expected, bottom_expected = brute_force_leftovers(a, b)
            graph = build_graph(two_end(a), two_end(b))
            assert [t for t in graph.top if t is not EMPTY_TOKEN] == top_expected
            assert [t for t in graph.bottom if t is not EMPTY_TOKEN] == bottom_expected

    def test_sides_equal_and_graph_complete(self):
        rng = random.Random(12)
        for _ in range(300):
            a, b = random_word(rng), random_word(rng)
            graph = build_graph(two_end(a), two_end(b))
            assert len(graph.top) == len(graph.bottom)
            assert len(graph.edges) == len(graph.top) * len(graph.bottom)
            assert len(graph.edges) >= 1

    def test_edges_cover_all_combinations(self):
        graph = build_graph(two_end("stupor"), two_end("stupeur"))
        assert set(graph.edges) == {(u, v) for u in graph.top for v in graph.bottom}

    def test_mismatched_configs_rejected(self):
        with pytest.raises(ConfigError):
            build_graph(shingle("mesia", PLAIN2), two_end("messia"))


class TestTrain:
    def test_single_pair(self):
        model = train_error_model([("mesia", "messia")], CONFIG)
        assert model.edge_counts == {(EMPTY_TOKEN, "4ss"): 1}
        assert model.total_count == 1
        assert model.distinct_edges == 2

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError):
            train_error_model([], CONFIG)

    def test_identical_pair_counts_placeholder_edge(self):
        model = train_error_model([("a", "a")], CONFIG)
        assert model.edge_counts == {(EMPTY_TOKEN, EMPTY_TOKEN): 1}

    def test_counts_are_order_insensitive(self):
        pairs = [("mesia", "messia"), ("stupor", "stupeur"), ("noche", "notte")]
        a = train_error_model(pairs, CONFIG)
        b = train_error_model(list(reversed(pairs)), CONFIG)
        assert a.edge_counts == b.edge_counts
        assert a.total_count == b.total_count

    def test_total_count_conserves_per_pair_edges(self):
        rng = random.Random(13)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(50)]
        model = train_error_model(pairs, CONFIG)
        expected = sum(
            len(build_graph(two_end(a), two_end(b)).edges) for a, b in pairs
        )
        assert model.total_count == expected

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ConfigError):
            train_error_model([("a", "b")], CONFIG, alpha=0.0)
        with pytest.raises(ConfigError):
            train_error_model([("a", "b")], CONFIG, power=0.0)
        for name in ("alpha", "power"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError):
                    train_error_model([("a", "b")], CONFIG, **{name: value})


class TestCountSeq:
    """``_count_seq`` over nested counts against the counts of ``build_graph``'s edges."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sizes", [(2,), (2, 3)])
    def test_equals_counts_of_the_graph_edges(self, mode, sizes):
        config = ShinglerConfig(sizes, mode)
        rng = random.Random(f"{mode}{sizes}")
        words = [random_word(rng, 1, 7) for _ in range(40)]
        pairs = [(rng.choice(words), rng.choice(words)) for _ in range(300)]
        model = train_error_model(pairs[::2], config)
        counts = model.edge_counts
        nested = _nest(counts)
        # identical words, a side left empty (one word's tokens inside the
        # other's), padding of the shorter side, and tokens never counted
        pairs += [("abc", "abc"), ("a", "ab"), ("ab", "a"), ("a", "bcdefgh"), ("øøø", "a")]
        seen = {"identical": 0, "empty side": 0, "padded": 0, "unseen top": 0}
        for a, b in pairs:
            s, t = shingle(a, config), shingle(b, config)
            graph = build_graph(s, t)
            expected = [counts.get(edge, 0) for edge in graph.edges]
            assert _count_seq(s, t, nested) == expected
            assert _count_seq(s, t, model._nested) == expected
            seen["identical"] += graph.edges == ((EMPTY_TOKEN, EMPTY_TOKEN),)
            seen["empty side"] += {EMPTY_TOKEN} in ({*graph.top}, {*graph.bottom}) and a != b
            seen["padded"] += len(graph.edges) > 1 and EMPTY_TOKEN in graph.top + graph.bottom
            seen["unseen top"] += any(u not in nested for u in graph.top)
        assert all(seen.values()), seen

    def test_model_nested_counts_do_not_change_equality(self):
        a = train_error_model([("mesia", "messia")], CONFIG)
        b = train_error_model([("mesia", "messia")], CONFIG)
        assert a == b
        assert a._nested == {u: {v: 1} for u, v in a.edge_counts}

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError):
            ErrorModel(CONFIG, {("a", "b"): -5})

    def test_totals_derived_from_counts(self):
        model = ErrorModel(CONFIG, {("a", "b"): 3, (EMPTY_TOKEN, "c"): 2})
        assert (model.total_count, model.distinct_edges) == (5, 3)


class TestEdgeProb:
    def test_seen_edge(self):
        model = train_error_model([("mesia", "messia")], CONFIG, alpha=1.0)
        assert edge_prob(model, (EMPTY_TOKEN, "4ss")) == pytest.approx(2 / 3, abs=1e-15)

    def test_unseen_edge_gets_floor(self):
        model = train_error_model([("mesia", "messia")], CONFIG, alpha=1.0)
        assert edge_prob(model, ("zz", "yy")) == pytest.approx(1 / 3, abs=1e-15)

    def test_large_alpha_approaches_uniform(self):
        pairs = [("mesia", "messia"), ("stupor", "stupeur")]
        model = train_error_model(pairs, CONFIG, alpha=1e9)
        for edge in model.edge_counts:
            assert edge_prob(model, edge) == pytest.approx(
                1 / model.distinct_edges, rel=1e-6
            )

    def test_probabilities_in_open_interval(self):
        rng = random.Random(14)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(30)]
        model = train_error_model(pairs, CONFIG, alpha=0.5)
        for edge in list(model.edge_counts) + [("unseen", "edge")]:
            assert 0.0 < edge_prob(model, edge) < 1.0

    def test_mass_sums_to_one(self):
        rng = random.Random(15)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(40)]
        model = train_error_model(pairs, CONFIG, alpha=0.7)
        observed = sum(edge_prob(model, edge) for edge in model.edge_counts)
        unseen = edge_prob(model, ("never", "seen"))
        assert observed + unseen == pytest.approx(1.0, abs=1e-12)


class TestTransformationScore:
    def test_single_edge_graph(self):
        model = train_error_model([("mesia", "messia")], CONFIG, alpha=1.0, power=1.0)
        score = model.score_words("mesia", "messia")
        assert score == pytest.approx(2 / 3, abs=1e-15)

    def test_constant_probabilities_give_their_value(self):
        # both words unseen: every edge takes the smoothing floor
        model = train_error_model([("mesia", "messia")], CONFIG, alpha=1.0, power=1.0)
        floor = edge_prob(model, ("x", "y"))
        assert model.score_words("vod", "gri") == pytest.approx(floor, abs=1e-15)

    def test_large_power_drives_score_to_zero(self):
        base = train_error_model([("mesia", "messia")], CONFIG)
        strong = train_error_model([("mesia", "messia")], CONFIG, power=500.0)
        assert strong.score_words("mesia", "messia") < 1e-30
        assert base.score_words("mesia", "messia") > 0.5

    def test_score_in_unit_interval(self):
        rng = random.Random(16)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(20)]
        model = train_error_model(pairs, CONFIG, alpha=1.0, power=0.5)
        for _ in range(200):
            a, b = random_word(rng), random_word(rng)
            assert 0.0 < model.score_words(a, b) <= 1.0

    def test_non_increasing_in_power(self):
        rng = random.Random(17)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(20)]
        for _ in range(100):
            a, b = random_word(rng), random_word(rng)
            scores = [
                train_error_model(pairs, CONFIG, power=power).score_words(a, b)
                for power in (0.25, 0.5, 1.0, 2.0, 4.0)
            ]
            assert all(x >= y for x, y in zip(scores, scores[1:]))

    def test_mean_can_exceed_the_largest_value_but_not_the_ceiling(self):
        # 0.1 + 0.1 + 0.1 rounds up: the mean of three 0.1s is above 0.1
        assert _mean_score([7, 7, 7], {7: 0.1}) > 0.1
        assert _mean_score([7, 7, 7], {7: 0.1}) <= _mean_ceiling({7: 0.1}, 3)
        rng = random.Random(19)
        for _ in range(2000):
            table = {c: rng.random() for c in range(rng.randint(1, 4))}
            counts = [rng.choice(list(table)) for _ in range(rng.randint(1, 60))]
            assert _mean_score(counts, table) <= _mean_ceiling(table, len(counts))

    def test_score_ceiling_bounds_every_pair(self):
        rng = random.Random(20)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(20)]
        for power in (0.25, 1.0, 4.0):
            model = train_error_model(pairs, CONFIG, power=power)
            for a, b in pairs + [(random_word(rng), random_word(rng)) for _ in range(100)]:
                s, t = two_end(a), two_end(b)
                ceiling = model.score_ceiling(max(len(s), len(t)))
                assert model.transformation_score(s, t) <= ceiling

    def test_config_mismatch_rejected(self):
        model = train_error_model([("mesia", "messia")], CONFIG)
        with pytest.raises(ConfigError):
            model.transformation_score(
                shingle("mesia", PLAIN2), shingle("messia", PLAIN2)
            )


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        rng = random.Random(18)
        pairs = [(random_word(rng), random_word(rng)) for _ in range(25)]
        model = train_error_model(pairs, CONFIG, alpha=0.5, power=2.0)
        clone = model_from_dict(model.to_dict())
        assert clone.edge_counts == model.edge_counts
        assert clone.total_count == model.total_count
        assert clone.distinct_edges == model.distinct_edges
        assert clone.alpha == model.alpha
        assert clone.power == model.power
        assert clone.config == model.config
        for _ in range(50):
            a, b = random_word(rng), random_word(rng)
            assert clone.score_words(a, b) == model.score_words(a, b)

    def test_placeholder_edges_survive(self):
        model = train_error_model([("a", "a")], CONFIG)
        clone = model_from_dict(model.to_dict())
        assert clone.edge_counts == {(EMPTY_TOKEN, EMPTY_TOKEN): 1}

    def test_multi_size_config_survives(self):
        config = ShinglerConfig((2, 3), "two_end")
        model = train_error_model([("mesia", "messia")], config)
        assert model_from_dict(model.to_dict()).config == config
