"""Canonical JSON persistence for trained models and evaluation reports.

Documents are written with sorted keys and a trailing newline so that
identical runs produce byte-identical files.  A model document embeds
the error-model table (with its shingler config), the score config, the
learned similarity bounds, and the index word list, which is enough to
rebuild the scorer losslessly.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import CognateKitError, DataError
from .error_model import _json_int, _json_number, model_from_dict
from .ranking import RankerParams, build_index
from .scorer import CombinedScorer, ScoreConfig

MODEL_FORMAT = "cognatekit-model"
REPORT_FORMAT = "cognatekit-report"


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def scorer_to_dict(
    scorer: CombinedScorer,
    seed: int,
    hyperparameters: Optional[dict] = None,
) -> dict:
    config = scorer.config
    return {
        "format": MODEL_FORMAT,
        "error_model": scorer.error_model.to_dict(),
        "score_config": {
            "lambda": config.sim_weight,
            "normalization": config.normalization,
            "threshold": config.threshold,
            "ranker": {
                "function": config.ranker.function,
                "k1": config.ranker.k1,
                "b": config.ranker.b,
                "mu": config.ranker.mu,
            },
        },
        "sim_min": scorer.sim_min,
        "sim_max": scorer.sim_max,
        "index_words": [word for word, _ in scorer.index.docs],
        "seed": seed,
        "hyperparameters": dict(hyperparameters or {}),
    }


def scorer_from_dict(payload: dict) -> tuple[CombinedScorer, dict]:
    """Rebuild a scorer and its metadata; any fault in the document is a DataError.

    Every numeric field must be a JSON number, and the similarity bounds
    finite with ``sim_min < sim_max``.  ``seed``, when present and not
    null, must be a JSON integer, and ``hyperparameters`` an object.
    """
    try:
        if payload.get("format") != MODEL_FORMAT:
            raise DataError(f"not a {MODEL_FORMAT} document")
        error_model = model_from_dict(payload["error_model"])
        score_doc = payload["score_config"]
        ranker_doc = score_doc["ranker"]
        config = ScoreConfig(
            sim_weight=_json_number(score_doc["lambda"], "lambda"),
            ranker=RankerParams(
                ranker_doc["function"],
                k1=_json_number(ranker_doc["k1"], "k1"),
                b=_json_number(ranker_doc["b"], "b"),
                mu=_json_number(ranker_doc["mu"], "mu"),
            ),
            normalization=score_doc["normalization"],
            threshold=_json_number(score_doc["threshold"], "threshold"),
        )
        words = payload["index_words"]
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise DataError("index_words must be a list of strings")
        index = build_index(words, error_model.config)
        scorer = CombinedScorer(
            config,
            error_model,
            index,
            sim_min=_json_number(payload["sim_min"], "sim_min"),
            sim_max=_json_number(payload["sim_max"], "sim_max"),
        )
        seed = payload.get("seed")
        hyperparameters = payload.get("hyperparameters", {})
        if not isinstance(hyperparameters, dict):
            raise DataError(f"hyperparameters must be an object, got {hyperparameters!r}")
        return scorer, {
            "seed": seed if seed is None else _json_int(seed, "seed"),
            "hyperparameters": hyperparameters,
        }
    except DataError:
        raise
    except (CognateKitError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc


def save_model(
    path,
    scorer: CombinedScorer,
    seed: int,
    hyperparameters: Optional[dict] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(scorer_to_dict(scorer, seed, hyperparameters)))


def load_model(path) -> tuple[CombinedScorer, dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not JSON or not UTF-8; RecursionError: nested too deeply
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"cannot read model file {path}: not a JSON object")
    return scorer_from_dict(payload)


def report_to_json(reports, seed: int) -> str:
    """Canonical JSON for one report or a list of reports."""
    if isinstance(reports, (list, tuple)):
        body = [report.to_dict() for report in reports]
    else:
        body = reports.to_dict()
    return canonical_json({"format": REPORT_FORMAT, "seed": seed, "results": body})


def save_report(path, reports, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report_to_json(reports, seed))
