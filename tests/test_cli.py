"""Command-line surface: outputs, exit codes, and file contracts."""

import json
import sys
from collections import Counter

import pytest

import cognatekit.cli as cli
import cognatekit.evaluation as evaluation
from cognatekit.cli import main
from cognatekit.error_model import build_graph
from cognatekit.evaluation import load_dataset, split
from cognatekit.shingling import shingle

from conftest import make_hard_synthetic_pairs


@pytest.fixture
def model_file(tmp_path, synthetic_dataset_file):
    path = tmp_path / "model.json"
    code = main(
        [
            "train",
            "--dataset", str(synthetic_dataset_file),
            "--out", str(path),
            "--seed", "42",
            "--no-tune",
        ]
    )
    assert code == 0
    return path


class TestShingleCommand:
    def test_two_end_tokens(self, capsys):
        assert main(["shingle", "rosmarin", "--mode", "two-end", "--k", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["1r", "2ro", "3os", "4sm", "5ma", "ar4", "ri3", "in2", "n1"]

    def test_plain_single_letter(self, capsys):
        assert main(["shingle", "a", "--mode", "plain", "--k", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["a"]

    def test_digit_in_word_is_usage_error(self, capsys):
        assert main(["shingle", "ro1marin"]) == 1
        assert "digit" in capsys.readouterr().err

    def test_gram_size_list(self, capsys):
        assert main(["shingle", "ab", "--mode", "two-end", "--k", "2,3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == ["1a", "2ab", "b1"]


class TestTrainCommand:
    def test_writes_loadable_model(self, model_file):
        payload = json.loads(model_file.read_text())
        assert payload["format"] == "cognatekit-model"
        assert payload["seed"] == 42
        assert payload["score_config"]["lambda"] == 0.6

    def test_byte_stable_across_reruns(self, tmp_path, synthetic_dataset_file):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for out in (out1, out2):
            assert main(
                ["train", "--dataset", str(synthetic_dataset_file),
                 "--out", str(out), "--seed", "42", "--no-tune"]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\t1\noops\n")
        code = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "2" in capsys.readouterr().err

    def test_no_positives_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "neg.tsv"
        bad.write_text("aa\tbb\t0\ncc\tdd\t0\nee\tff\t0\ngg\thh\t0\n")
        code = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "m.json"),
                     "--no-tune"])
        assert code == 2

    @pytest.mark.parametrize("flags", [[], ["--objective", "mrr"], ["--no-tune"]],
                             ids=["accuracy", "mrr", "no-tune"])
    def test_shingles_each_word_and_graphs_each_cognate_once(self, flags, tmp_path, monkeypatch):
        # the tune and the fit read one prepared split; counted at every module binding
        calls = {"shingle": Counter(), "build_graph": Counter()}
        keys = {"shingle": lambda word, config: word,
                "build_graph": lambda s, t: (s.source_word, t.source_word)}

        def counting(name, real):
            def counted(*args):
                calls[name][keys[name](*args)] += 1
                return real(*args)
            return counted

        for real in (shingle, build_graph):
            counted = counting(real.__name__, real)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("cognatekit") and vars(module).get(real.__name__) is real:
                    monkeypatch.setattr(module, real.__name__, counted)
        pairs = make_hard_synthetic_pairs(20, 20)
        pairs += [p for p in pairs if p.label][:4] + [p for p in pairs if not p.label][:3]
        dataset = tmp_path / "repeated.tsv"
        dataset.write_text("".join(f"{p.source}\t{p.target}\t{int(p.label)}\n" for p in pairs))
        train, _ = split(load_dataset(dataset), 42)
        assert len(set(train)) < len(train)  # a repeated row is in the training split
        out = tmp_path / "model.json"
        assert main(["train", "--dataset", str(dataset), "--out", str(out)] + flags) == 0
        assert calls["shingle"] == Counter({w: 1 for p in train for w in (p.source, p.target)})
        assert calls["build_graph"] == Counter({(p.source, p.target): 1 for p in train if p.label})


NAN = float("nan")


def setting(*edits):
    """A model edit that sets the value at each key path of ``edits``."""

    def edit(payload):
        for keys, value in edits:
            holder = payload
            for key in keys[:-1]:
                holder = holder[key]
            holder[keys[-1]] = value

    return edit


def fractional_edge_count(payload):
    """Raise an edge count from 1 to 1.5, and total_count to match."""
    model = payload["error_model"]
    edge = next(edge for edge, count in model["edge_counts"].items() if count == 1)
    model["edge_counts"][edge] = 1.5
    model["total_count"] += 0.5


def raising(key):
    """A model edit that adds 1 to an error-model total, an integer still."""

    def edit(payload):
        payload["error_model"][key] += 1

    return edit


class TestClassifyCommand:
    def test_prints_label_and_score(self, model_file, capsys):
        assert main(["classify", "mesia", "messia", "--model", str(model_file)]) == 0
        out = capsys.readouterr().out.strip()
        label, score = out.split("\t")
        assert label in ("cognate", "non-cognate")
        assert 0.0 <= float(score) <= 1.0

    def test_missing_model_is_data_error(self, tmp_path):
        assert main(["classify", "a", "b", "--model", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize(
        "edit, command",
        [
            (setting((("error_model", "shingler_config", "gram_sizes"), [1])), "classify"),
            (setting((("sim_min",), NAN)), "classify"),
            (setting((("index_words",), [])), "classify"),
            (setting((("index_words",), ["a b"])), "classify"),
            (setting((("error_model", "alpha"), NAN)), "classify"),
            (setting((("score_config", "ranker", "mu"), NAN)), "classify"),
            (setting((("index_words",), "abc")), "classify"),
            (setting((("sim_max",), None)), "classify"),
            (setting((("score_config", "ranker", "mu"), 5e-324)), "classify"),
            (setting((("score_config", "lambda"), True)), "classify"),
            (setting((("score_config", "threshold"), "0.5")), "classify"),
            (setting((("error_model", "q"), "2")), "classify"),
            (setting((("sim_min",), False), (("sim_max",), True)), "classify"),
            (setting((("sim_min",), False)), "classify"),
            (fractional_edge_count, "classify"),
            (setting((("error_model", "distinct_edges"), 1e6)), "classify"),
            (raising("distinct_edges"), "classify"),
            (raising("total_count"), "classify"),
            (raising("distinct_edges"), "rank"),
            (raising("total_count"), "rank"),
            # classify fails on missing bounds anyway; rank --model does not read them
            (setting((("sim_min",), None), (("sim_max",), None)), "rank"),
        ],
        ids=[
            "gram-size-1", "nan-sim-min", "empty-index", "index-word-with-space",
            "nan-alpha", "nan-mu", "index-words-string", "one-bound-only", "subnormal-mu",
            "bool-lambda", "string-threshold", "string-q", "bool-bounds", "bool-sim-min",
            "fractional-edge-count", "float-distinct-edges", "distinct-edges-plus-one",
            "total-count-plus-one", "rank-distinct-edges-plus-one", "rank-total-count-plus-one",
            "null-bounds",
        ],
    )
    def test_bad_model_values_are_data_errors(self, model_file, edit, command, capsys):
        payload = json.loads(model_file.read_text())
        edit(payload)
        model_file.write_text(json.dumps(payload))
        argv = {"classify": ["classify", "mesia", "messia"], "rank": ["rank", "mesia"]}[command]
        assert main(argv + ["--model", str(model_file)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRankCommand:
    def test_top_k_lines(self, model_file, tmp_path, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("noche\nnacht\nnotte\nmessia\n")
        assert main(
            ["rank", "mesia", "--model", str(model_file), "--lexicon", str(lexicon),
             "-k", "2"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        word, score = lines[0].split("\t")
        assert word == "messia"
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_model_free_ranking(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("noche\nnacht\nnotte\n")
        assert main(
            ["rank", "nuit", "--lexicon", str(lexicon), "--ranker", "bm25",
             "--mode", "plain"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[0] == "nacht"
        assert len(lines) == 3

    def test_default_ranker_flags(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("noche\nnacht\nnotte\n")
        argv = ["rank", "nuit", "--lexicon", str(lexicon)]
        assert main(argv) == 0
        default = capsys.readouterr().out
        flags = ["--ranker", "dirichlet", "--mu", "10", "--k1", "1.2", "--b", "0.75"]
        assert main(argv + flags) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize(
        "flags",
        [["--ranker", "bm25", "--mu", "3"], ["--mu", "3"], ["--k1", "1.0"], ["--b", "0.5"]],
        ids=lambda flags: flags[0],
    )
    def test_ranker_flags_rejected_with_model(self, flags, model_file, capsys):
        # the model keeps its own ranker: the flags would be ignored
        argv = ["rank", "nacht", "--model", str(model_file), "--mode", "plain", "--k", "3"]
        assert main(argv + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flags[0]} is not read with --model\n"

    def test_shingler_flags_not_read_with_model(self, model_file, capsys):
        argv = ["rank", "nacht", "--model", str(model_file)]
        assert main(argv) == 0
        ranked = capsys.readouterr().out
        assert main(argv + ["--mode", "plain", "--k", "3"]) == 0
        assert capsys.readouterr().out == ranked

    def test_requires_model_or_lexicon(self, capsys):
        assert main(["rank", "nuit"]) == 1

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_usage_error(self, tmp_path, k, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("noche\nnacht\nnotte\n")
        assert main(["rank", "nuit", "--lexicon", str(lexicon), "-k", k]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mu", ["5e-324", "1e-310"])
    def test_subnormal_mu_is_usage_error(self, tmp_path, mu, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("abc\nabd\nxyz\n")
        assert main(["rank", "abc", "--lexicon", str(lexicon), "--mu", mu]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mu" in captured.err

    def test_empty_lexicon_is_data_error(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("# no words\n")
        assert main(["rank", "nuit", "--lexicon", str(lexicon)]) == 2
        assert "lex.txt" in capsys.readouterr().err


class TestEvalCommand:
    def test_report_schema(self, tmp_path, synthetic_dataset_file, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--dataset", str(synthetic_dataset_file), "--seed", "42",
             "--no-tune", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "cognatekit-report"
        result = payload["results"]
        assert 0.0 <= result["accuracy"] <= 1.0
        assert 0.0 <= result["mrr"] <= 1.0
        assert result["seed"] == 42

    def test_byte_identical_reports_for_same_seed(self, tmp_path, synthetic_dataset_file):
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            assert main(
                ["eval", "--dataset", str(synthetic_dataset_file), "--seed", "42",
                 "--no-tune", "--out", str(out)]
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_baseline_method(self, tmp_path, synthetic_dataset_file, capsys):
        code = main(
            ["eval", "--dataset", str(synthetic_dataset_file), "--seed", "42",
             "--method", "edit_distance"]
        )
        assert code == 0
        assert "edit_distance" in capsys.readouterr().out

    def test_unknown_method_is_usage_error(self, synthetic_dataset_file, capsys):
        code = main(
            ["eval", "--dataset", str(synthetic_dataset_file), "--method", "soundex"]
        )
        assert code == 1

    def test_saved_model_evaluation(self, model_file, synthetic_dataset_file, capsys):
        code = main(
            ["eval", "--dataset", str(synthetic_dataset_file), "--model", str(model_file)]
        )
        assert code == 0
        assert "model:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value",
        [("seed", [1]), ("seed", "7"), ("seed", 7.0), ("seed", True),
         ("hyperparameters", [1, 2]), ("hyperparameters", "ab"), ("hyperparameters", None)],
    )
    def test_bad_model_metadata_is_a_data_error(
        self, key, value, model_file, synthetic_dataset_file, capsys
    ):
        # eval --model reads the seed as its split seed and reports the hyperparameters
        payload = json.loads(model_file.read_text())
        payload[key] = value
        model_file.write_text(json.dumps(payload))
        argv = ["eval", "--dataset", str(synthetic_dataset_file), "--model", str(model_file)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")

    def test_saved_model_reports_what_training_in_process_reports(
        self, model_file, synthetic_dataset_file, tmp_path
    ):
        # the model was written by `train --no-tune --seed 42`: the same
        # scorer on the same split as `eval --no-tune --seed 42`
        saved, fresh = tmp_path / "saved.json", tmp_path / "fresh.json"
        dataset = str(synthetic_dataset_file)
        assert main(["eval", "--dataset", dataset, "--model", str(model_file),
                     "--out", str(saved)]) == 0
        assert main(["eval", "--dataset", dataset, "--seed", "42", "--no-tune",
                     "--out", str(fresh)]) == 0
        saved_result, fresh_result = (
            json.loads(path.read_text())["results"] for path in (saved, fresh)
        )
        for key in ("accuracy", "mrr", "per_query_ranks", "train_size", "test_size",
                    "lexicon_size"):
            assert saved_result[key] == fresh_result[key], key

    @pytest.mark.parametrize(
        "flag",
        [["--lambda", "0.0"], ["--q", "2"], ["--alpha", "0.5"], ["--mu", "5"], ["--k1", "1.0"],
         ["--b", "0.5"], ["--threshold", "0.9"], ["--no-tune"]],
        ids=lambda flag: flag[0],
    )
    @pytest.mark.parametrize("option", ["--model", "--method"])
    def test_pinned_values_rejected_with_model_or_method(
        self, option, flag, model_file, synthetic_dataset_file, capsys
    ):
        # neither a saved model nor a baseline reads them: they would be ignored
        value = str(model_file) if option == "--model" else "lcsr"
        argv = ["eval", "--dataset", str(synthetic_dataset_file), option, value]
        assert main(argv + flag) == 1
        assert capsys.readouterr().err == f"error: {flag[0]} is not read with {option}\n"

    def test_empty_lexicon_is_data_error(self, tmp_path, synthetic_dataset_file, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("")
        code = main(
            ["eval", "--dataset", str(synthetic_dataset_file), "--no-tune",
             "--lexicon", str(lexicon)]
        )
        assert code == 2
        assert "lex.txt" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_fold_without_positive_training_pair_is_data_error(self, tmp_path, command, capsys):
        # 2 cognates, 6 non-cognates: the training split keeps one cognate,
        # so one cross-validation fold trains on none
        dataset = tmp_path / "one-cognate.tsv"
        dataset.write_text(
            "aa\taab\t1\nbb\tbbc\t1\ncc\tdd\t0\nee\tff\t0\n"
            "gg\thh\t0\nii\tjj\t0\nkk\tll\t0\nmm\tnn\t0\n"
        )
        code = main([command, "--dataset", str(dataset), "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert "no positive training pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "2"])
    @pytest.mark.parametrize("flags", [["train"], ["train", "--no-tune"], ["eval"]],
                             ids=["train", "train-no-tune", "eval"])
    def test_lambda_outside_unit_interval_is_usage_error(
        self, flags, value, tmp_path, synthetic_dataset_file, monkeypatch, capsys
    ):
        # rejected before a fold is drawn or a scorer fitted
        started = []
        for module, name in ((evaluation, "stratified_folds"), (evaluation, "fit_pipeline"),
                             (cli, "fit_pipeline")):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kw: started.append(name))
        out = tmp_path / "out.json"
        argv = flags + ["--dataset", str(synthetic_dataset_file), "--out", str(out)]
        assert main(argv + [f"--lambda={value}"]) == 1
        assert f"similarity weight must be in [0, 1], got {float(value)}" in capsys.readouterr().err
        assert started == []
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
    @pytest.mark.parametrize("flags", [["train"], ["train", "--no-tune"], ["eval"]],
                             ids=["train", "train-no-tune", "eval"])
    def test_threshold_outside_unit_interval_is_usage_error(
        self, flags, value, tmp_path, synthetic_dataset_file, monkeypatch, capsys
    ):
        # rejected before a word is shingled, a fold drawn or a scorer fitted
        started = []
        for module, name in ((cli, "ShingledPairs"), (evaluation, "ShingledPairs"),
                             (evaluation, "stratified_folds"), (evaluation, "fit_pipeline"),
                             (cli, "fit_pipeline")):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kw: started.append(name))
        out = tmp_path / "out.json"
        argv = flags + ["--dataset", str(synthetic_dataset_file), "--out", str(out)]
        assert main(argv + [f"--threshold={value}"]) == 1
        assert f"threshold must be in [0, 1], got {float(value)}" in capsys.readouterr().err
        assert started == []
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["shingle", "word", "--wat"]) == 1

    @pytest.mark.parametrize("command", ["eval", "train", "ablate"])
    @pytest.mark.parametrize("folds", ["0", "-3", "1"])
    def test_fewer_than_two_folds_is_usage_error(
        self, command, folds, tmp_path, synthetic_dataset_file, capsys
    ):
        argv = [command, "--dataset", str(synthetic_dataset_file), "--folds", folds]
        if command == "train":
            argv += ["--out", str(tmp_path / "model.json")]
        assert main(argv) == 1
        assert "at least 2 folds" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_ablate_rejects_folds_before_fitting_a_cell(
        self, synthetic_dataset_file, monkeypatch, capsys
    ):
        # the first cells fit without tuning; the check must still come first
        fitted = []
        fit_pipeline = evaluation.fit_pipeline

        def counting_fit(*args, **kwargs):
            fitted.append(args[1])
            return fit_pipeline(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_pipeline", counting_fit)
        assert main(["ablate", "--dataset", str(synthetic_dataset_file), "--folds", "0"]) == 1
        assert "at least 2 folds" in capsys.readouterr().err
        assert fitted == []

    def test_folds_are_not_read_without_tuning(self, tmp_path, synthetic_dataset_file):
        out = tmp_path / "model.json"
        argv = ["train", "--dataset", str(synthetic_dataset_file), "--out", str(out)]
        assert main(argv + ["--no-tune", "--folds", "0"]) == 0
        assert out.exists()

    def test_missing_dataset_file_is_data_error(self, tmp_path):
        assert main(["eval", "--dataset", str(tmp_path / "none.tsv")]) == 2
