"""Positional character shingling.

A word is broken into overlapping character k-grams ("shingles"), each
kept as a plain token string.  ``ShinglerConfig.mode`` decides how a
gram's position is written into its token:

* ``plain``    -- the bare gram, no position information.
* ``one_end``  -- the gram's 1-based index counted from the start of the
  gram sequence, attached on the left ("2ro").
* ``two_end``  -- the smaller of the gram's index from the start and its
  index from the end; the number is attached on the left when counting
  from the start wins (or ties) and on the right when counting from the
  end wins ("ar4").

Grams are produced by padding the word with k-1 sentinel characters on
each side, sliding a window of width k, and stripping the sentinels from
each emitted gram.  With k = 2 the word ``rosmarin`` therefore yields
``r, ro, os, sm, ma, ar, ri, in, n``.  Words cannot contain digits, so
stripping the digits from a token recovers its gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError, InvalidWordError

# Internal padding character; never appears in canonical tokens and is
# rejected in input words.
_SENTINEL = "\x00"

MODES = ("plain", "one_end", "two_end")


def normalize_word(text: str) -> str:
    """Lowercase ``text`` and validate it as shingling input.

    Words must be non-empty and may not contain whitespace, decimal
    digits (reserved for position markers in canonical tokens), or the
    internal padding character.  Raises :class:`InvalidWordError`.
    """
    word = text.lower()
    if not word:
        raise InvalidWordError("word is empty")
    for ch in word:
        if ch.isspace():
            raise InvalidWordError(f"word {text!r} contains whitespace")
        if ch.isdigit():
            raise InvalidWordError(
                f"word {text!r} contains a digit; digits are reserved for position markers"
            )
        if ch == _SENTINEL:
            raise InvalidWordError(f"word {text!r} contains a reserved control character")
    return word


@dataclass(frozen=True)
class ShinglerConfig:
    """Gram sizes plus splitting mode; the unit of compatibility between sets."""

    gram_sizes: tuple[int, ...] = (2,)
    mode: str = "two_end"

    def __post_init__(self) -> None:
        sizes = tuple(sorted(set(self.gram_sizes)))
        if not sizes:
            raise ConfigError("at least one gram size is required")
        for k in sizes:
            if not isinstance(k, int) or k < 2:
                raise ConfigError(f"gram size must be an integer >= 2, got {k!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown shingling mode {self.mode!r}; expected one of {MODES}")
        object.__setattr__(self, "gram_sizes", sizes)


class ShingleSet:
    """Ordered, duplicate-free tokens of one word; a token's first occurrence wins."""

    __slots__ = ("tokens", "token_set", "source_word", "config")

    def __init__(self, tokens: Iterable[str], source_word: str, config: ShinglerConfig):
        self.tokens: tuple[str, ...] = tuple(dict.fromkeys(tokens))
        self.token_set: frozenset[str] = frozenset(self.tokens)
        self.source_word = source_word
        self.config = config

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShingleSet):
            return NotImplemented
        return (
            self.tokens == other.tokens
            and self.source_word == other.source_word
            and self.config == other.config
        )

    def __hash__(self) -> int:
        return hash((self.tokens, self.source_word, self.config))

    def __repr__(self) -> str:
        return f"ShingleSet({self.source_word!r}, {{{', '.join(self.tokens)}}})"


def _grams(word: str, k: int) -> list[str]:
    """Unique sentinel-stripped k-grams of ``word`` in emission order.

    With k >= len(word) the grams are the word's prefixes, then its
    suffixes; a larger k only repeats the whole word, so k is capped at
    the word's length and a huge gram size costs nothing.
    """
    k = min(k, len(word))
    padded = _SENTINEL * (k - 1) + word + _SENTINEL * (k - 1)
    grams = []
    for i in range(len(padded) - k + 1):
        gram = padded[i : i + k].replace(_SENTINEL, "")
        if gram:
            grams.append(gram)
    return list(dict.fromkeys(grams))


def shingle(word: str, config: ShinglerConfig) -> ShingleSet:
    """Tokens of ``word`` for every configured gram size, smaller sizes first.

    Gram i of m is numbered i from the left, or in ``two_end`` mode
    m - i + 1 from the right when that is smaller.  A repeated gram keeps
    only its first occurrence and the numbers count distinct grams:
    one-end ``abab`` is ``1a 2ab 3ba 4b`` and two-end ``1a 2ab ba2 b1``.
    """
    word = normalize_word(word)
    mode = config.mode
    tokens: list[str] = []
    for k in config.gram_sizes:
        grams = _grams(word, k)
        if mode == "plain":
            tokens.extend(grams)
            continue
        m = len(grams)
        for i, gram in enumerate(grams, 1):
            j = m - i + 1
            if mode == "one_end" or i <= j:
                tokens.append(f"{i}{gram}")
            else:
                tokens.append(f"{gram}{j}")
    return ShingleSet(tokens, word, config)
