"""Command-line interface.

Subcommands: ``shingle`` (inspect a word's split set), ``train`` (fit and
save a model), ``classify`` / ``rank`` (apply a saved model), ``eval``
(run both experiments on a labeled dataset), and ``ablate`` (the full
configuration grid).  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .baselines import BASELINE_METHODS
from .errors import CognateKitError, ConfigError, DataError, InvalidWordError, TrainingError
from .evaluation import (
    DEFAULT_ABLATION_CELLS,
    PipelineSystem,
    ShingledPairs,
    ablation,
    evaluate,
    fit_pipeline,
    format_report_table,
    load_dataset,
    run_baseline_experiment,
    run_experiment,
    split,
    tune,
)
from .persistence import load_model, save_model, save_report
from .ranking import RANKING_FUNCTIONS, RankerParams, build_index, load_lexicon, rank
from .scorer import _check_threshold
from .shingling import ShinglerConfig, shingle

_CLI_MODES = {"plain": "plain", "one-end": "one_end", "two-end": "two_end"}


class _UsageError(CognateKitError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(message)


def _parse_gram_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--k expects integers like '2' or '2,3', got {text!r}")
    return sizes


def _add_shingler_flags(parser) -> None:
    parser.add_argument(
        "--mode",
        choices=sorted(_CLI_MODES),
        default="two-end",
        help="shingling variant (default: two-end)",
    )
    parser.add_argument(
        "--k",
        default="2",
        metavar="K[,K...]",
        help="gram sizes, comma separated (default: 2)",
    )


def _shingler_config(args) -> ShinglerConfig:
    return ShinglerConfig(_parse_gram_sizes(args.k), _CLI_MODES[args.mode])


_FOLDS_HELP = "cross-validation folds, at least 2; read only when something is tuned"


def _add_hyper_flags(parser) -> None:
    parser.add_argument("--ranker", choices=RANKING_FUNCTIONS, default="dirichlet")
    parser.add_argument("--lambda", dest="sim_weight", type=float, default=None,
                        help="similarity weight in [0,1]; remainder goes to the error model")
    parser.add_argument("--q", dest="power", type=float, default=None,
                        help="strength exponent on edge probabilities")
    parser.add_argument("--alpha", type=float, default=None, help="smoothing pseudo-count")
    parser.add_argument("--mu", type=float, default=None, help="Dirichlet pseudo-count")
    parser.add_argument("--k1", type=float, default=None, help="BM25 saturation")
    parser.add_argument("--b", type=float, default=None, help="BM25 length normalization")
    parser.add_argument("--threshold", type=float, default=None,
                        help="decision cutoff; learned from training scores when omitted")
    parser.add_argument("--no-tune", action="store_true",
                        help="skip cross-validated tuning and use defaults/flags as-is")
    parser.add_argument("--folds", type=int, default=5, help=_FOLDS_HELP)


_DEFAULTS = {"sim_weight": 0.6, "power": 1.0, "alpha": 1.0, "mu": 10.0, "k1": 1.2, "b": 0.75}
_PIN_FLAGS = {"sim_weight": "--lambda", "power": "--q", "alpha": "--alpha", "mu": "--mu",
              "k1": "--k1", "b": "--b", "threshold": "--threshold"}


def _fixed_from_flags(args) -> dict:
    fixed = {}
    for key in _DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            fixed[key] = value
    if args.no_tune:
        for key, default in _DEFAULTS.items():
            fixed.setdefault(key, default)
    if args.threshold is not None:
        _check_threshold(args.threshold)
        fixed["threshold"] = args.threshold
    return fixed


def _reject_unread(args, flags: dict, option: str) -> None:
    """Exit 1 naming the first of ``flags`` (dest: flag) given, as ``option`` does not read it."""
    for dest, flag in flags.items():
        value = getattr(args, dest)
        if value is not None and value is not False:  # False: a store_true flag left off
            raise _UsageError(f"{flag} is not read with {option}")


def build_parser() -> _Parser:
    parser = _Parser(prog="cognatekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cognatekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_shingle = sub.add_parser("shingle", help="print a word's split set")
    p_shingle.add_argument("word")
    _add_shingler_flags(p_shingle)

    p_train = sub.add_parser("train", help="fit a model on a dataset's training split")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--out", required=True, help="model JSON path")
    p_train.add_argument("--seed", type=int, default=42)
    p_train.add_argument("--objective", choices=("accuracy", "mrr"), default="accuracy",
                         help="tuning objective for the saved model")
    _add_shingler_flags(p_train)
    _add_hyper_flags(p_train)

    p_classify = sub.add_parser("classify", help="label one word pair with a saved model")
    p_classify.add_argument("source")
    p_classify.add_argument("target")
    p_classify.add_argument("--model", required=True)

    p_rank = sub.add_parser(
        "rank",
        help="rank a lexicon against a query word",
        description="With --model the saved model's shingling, ranker and blend are used: "
        "--mode and --k are not read, and --ranker, --mu, --k1 or --b exits 1.",
    )
    p_rank.add_argument("word")
    p_rank.add_argument("--model", help="saved model; falls back to its index words")
    p_rank.add_argument("--lexicon", help="one-word-per-line lexicon file")
    p_rank.add_argument("-k", "--top", dest="top", type=int, default=None,
                        help="return only the best K candidates")
    p_rank.add_argument("--ranker", choices=RANKING_FUNCTIONS, default=None,
                        help="ranking function for model-free ranking (default: dirichlet)")
    p_rank.add_argument("--mu", type=float, default=None, help=f"default: {_DEFAULTS['mu']}")
    p_rank.add_argument("--k1", type=float, default=None, help=f"default: {_DEFAULTS['k1']}")
    p_rank.add_argument("--b", type=float, default=None, help=f"default: {_DEFAULTS['b']}")
    _add_shingler_flags(p_rank)

    p_eval = sub.add_parser("eval", help="run both experiments on a dataset")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--model", help="evaluate a saved model instead of training")
    p_eval.add_argument("--method", help="evaluate a baseline: " + ", ".join(BASELINE_METHODS))
    p_eval.add_argument("--lexicon", help="extra lexicon file for the ranking experiment")
    p_eval.add_argument("--out", help="write the report JSON here")
    p_eval.add_argument("--seed", type=int, default=None,
                        help="split seed (default 42, or the saved model's seed)")
    _add_shingler_flags(p_eval)
    _add_hyper_flags(p_eval)

    p_ablate = sub.add_parser("ablate", help="run the configuration grid on a dataset")
    p_ablate.add_argument("--dataset", required=True)
    p_ablate.add_argument("--out", help="write the report JSON here")
    p_ablate.add_argument("--seed", type=int, default=42)
    p_ablate.add_argument("--lexicon", help="extra lexicon file for the ranking experiment")
    p_ablate.add_argument("--folds", type=int, default=5, help=_FOLDS_HELP)

    return parser


def _cmd_shingle(args) -> int:
    result = shingle(args.word, _shingler_config(args))
    for token in result.tokens:
        print(token)
    return 0


def _cmd_train(args) -> int:
    fixed = _fixed_from_flags(args)
    threshold = fixed.pop("threshold", None)
    pairs = load_dataset(args.dataset)
    train_pairs, _ = split(pairs, args.seed)
    if not any(p.label for p in train_pairs):
        raise DataError("the training split contains no positive (cognate) pairs")
    shingled = ShingledPairs(train_pairs, _shingler_config(args))
    resolved = tune(shingled, args.ranker, fixed=fixed, folds=args.folds, seed=args.seed,
                    objective=args.objective)
    scorer = fit_pipeline(shingled, args.ranker, resolved, threshold)
    hyperparameters = dict(resolved)
    hyperparameters["threshold"] = scorer.config.threshold
    save_model(args.out, scorer, args.seed, hyperparameters)
    print(f"model written to {args.out}")
    for key in sorted(hyperparameters):
        print(f"  {key}: {hyperparameters[key]}")
    return 0


def _cmd_classify(args) -> int:
    scorer, _ = load_model(args.model)
    score = scorer.score_pair(args.source, args.target)
    label = "cognate" if score >= scorer.config.threshold else "non-cognate"
    print(f"{label}\t{score!r}")
    return 0


def _cmd_rank(args) -> int:
    if args.model is None and args.lexicon is None:
        raise _UsageError("rank needs --model and/or --lexicon")
    if args.model is not None:
        _reject_unread(args, {"ranker": "--ranker", "mu": "--mu", "k1": "--k1", "b": "--b"},
                       "--model")
        scorer, _ = load_model(args.model)
        config = scorer.shingler_config
        if args.lexicon is not None:
            index = build_index(load_lexicon(args.lexicon), config)
        else:
            index = scorer.index
        ranked = rank(
            args.word,
            index,
            scorer=scorer.with_config(normalization="per_query_minmax"),
            k=args.top,
        )
    else:
        config = _shingler_config(args)
        index = build_index(load_lexicon(args.lexicon), config)
        values = {key: _DEFAULTS[key] if getattr(args, key) is None else getattr(args, key)
                  for key in ("mu", "k1", "b")}
        params = RankerParams(args.ranker or "dirichlet", **values)
        ranked = rank(args.word, index, params=params, k=args.top)
    for word, score in ranked:
        print(f"{word}\t{score!r}")
    return 0


def _cmd_eval(args) -> int:
    if args.model is not None and args.method is not None:
        raise _UsageError("--model and --method are mutually exclusive")
    if args.model is not None or args.method is not None:
        _reject_unread(args, {**_PIN_FLAGS, "no_tune": "--no-tune"},
                       "--model" if args.model is not None else "--method")
    fixed = _fixed_from_flags(args)
    pairs = load_dataset(args.dataset)
    extra = load_lexicon(args.lexicon) if args.lexicon else None
    seed = 42 if args.seed is None else args.seed
    if args.method is not None:
        if args.method not in BASELINE_METHODS:
            raise _UsageError(
                f"unknown method {args.method!r}; expected one of {BASELINE_METHODS}"
            )
        report = run_baseline_experiment(pairs, args.method, seed=seed, extra_lexicon=extra)
    elif args.model is not None:
        scorer, meta = load_model(args.model)
        if args.seed is None and meta["seed"] is not None:
            seed = meta["seed"]
        system = PipelineSystem(scorer)
        hyperparameters = dict(meta["hyperparameters"])
        hyperparameters.setdefault("threshold", scorer.config.threshold)
        report = evaluate(
            system, system, pairs, seed, f"model:{args.model}", hyperparameters, extra
        )
    else:
        report = run_experiment(pairs, _shingler_config(args), args.ranker, seed=seed,
                                folds=args.folds, fixed=fixed, extra_lexicon=extra)
    print(format_report_table([report]))
    print(f"seed: {report.seed}")
    if args.out:
        save_report(args.out, report, report.seed)
        print(f"report written to {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    pairs = load_dataset(args.dataset)
    extra = load_lexicon(args.lexicon) if args.lexicon else None
    reports = ablation(pairs, DEFAULT_ABLATION_CELLS, seed=args.seed, folds=args.folds,
                       extra_lexicon=extra)
    print(format_report_table(reports))
    print(f"seed: {args.seed}")
    if args.out:
        save_report(args.out, reports, args.seed)
        print(f"report written to {args.out}")
    return 0


_COMMANDS = {
    "shingle": _cmd_shingle,
    "train": _cmd_train,
    "classify": _cmd_classify,
    "rank": _cmd_rank,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (DataError, TrainingError) as exc:  # training fails on what the data holds
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ConfigError, InvalidWordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
