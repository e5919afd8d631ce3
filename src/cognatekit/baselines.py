"""Non-learned string-similarity baselines.

The dynamic-programming measures operate on raw strings (empty strings
are tolerated so the edge conventions stay testable); xdice shares the
extended-bigram construction with the ranking module and expects valid
words.  ``baseline_similarity`` exposes each method on a single
higher-is-more-similar scale for threshold search and ranking.
"""

from __future__ import annotations

from .errors import ConfigError
from .ranking import _dice, extended_bigram_tokens

BASELINE_METHODS = ("edit_distance", "normalized_edit_similarity", "lcsr", "xdice")


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(
                min(
                    previous[j] + 1,  # delete
                    current[j - 1] + 1,  # insert
                    previous[j - 1] + (ca != cb),  # substitute
                )
            )
        previous = current
    return previous[-1]


def normalized_edit_similarity(a: str, b: str) -> float:
    """1 - distance / max length, in [0, 1]; equal strings score 1."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(a, b) / longest


def lcs_length(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = [0] * (len(b) + 1)
    for ca in a:
        current = [0]
        for j, cb in enumerate(b, 1):
            if ca == cb:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def lcsr(a: str, b: str) -> float:
    """Longest common subsequence length over the longer word's length."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return lcs_length(a, b) / longest


def xdice_words(a: str, b: str) -> float:
    """Dice over bigrams extended with middle-character-deleted trigrams."""
    return _dice(extended_bigram_tokens(a), extended_bigram_tokens(b))


def baseline_similarity(method: str, a: str, b: str) -> float:
    """Similarity under ``method``; edit distance is negated so that
    higher always means more similar."""
    if method == "edit_distance":
        return -float(edit_distance(a, b))
    if method == "normalized_edit_similarity":
        return normalized_edit_similarity(a, b)
    if method == "lcsr":
        return lcsr(a, b)
    if method == "xdice":
        return xdice_words(a, b)
    raise ConfigError(f"unknown baseline method {method!r}; expected one of {BASELINE_METHODS}")
