"""Command-line surface: outputs, exit codes, and file contracts."""

import json

import pytest

import cognatekit.evaluation as evaluation
from cognatekit.cli import main


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


NAN = float("nan")


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
        "keys, value",
        [
            (("error_model", "shingler_config", "gram_sizes"), [1]),
            (("sim_min",), NAN),
            (("index_words",), []),
            (("index_words",), ["a b"]),
            (("error_model", "alpha"), NAN),
            (("score_config", "ranker", "mu"), NAN),
            (("index_words",), "abc"),
            (("sim_max",), None),
            (("score_config", "ranker", "mu"), 5e-324),
        ],
        ids=[
            "gram-size-1", "nan-sim-min", "empty-index", "index-word-with-space",
            "nan-alpha", "nan-mu", "index-words-string", "one-bound-only", "subnormal-mu",
        ],
    )
    def test_bad_model_values_are_data_errors(self, model_file, keys, value, capsys):
        payload = json.loads(model_file.read_text())
        holder = payload
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = value
        model_file.write_text(json.dumps(payload))
        assert main(["classify", "mesia", "messia", "--model", str(model_file)]) == 2
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
            fitted.append(args[2])
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
