"""Corpus ingestion: vocabularies, n-gram training instances, unigram statistics.

Conventions used throughout the package:

* token ids are dense integers; ids 0, 1, 2 are reserved for ``<unk>``,
  ``<s>`` and ``</s>`` in that order,
* a sentence ``w_1 .. w_L`` yields L+1 prediction instances: one per token
  plus one for the end-of-sentence marker; contexts are padded with ``<s>``,
* ``<s>`` is never predicted, so it is excluded from every distribution over
  words.
"""

from __future__ import annotations

import collections
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

UNK_TOKEN = "<unk>"
BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"

UNK_ID = 0
BOS_ID = 1
EOS_ID = 2

SPECIAL_TOKENS = (UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)


class Vocabulary:
    """Bijection between tokens and dense integer ids, with occurrence counts.

    Ids 0..2 are always ``<unk>``, ``<s>``, ``</s>``. Counts record corpus
    occurrences; tokens dropped during thresholding have their counts folded
    into ``<unk>``. ``<s>`` and ``</s>`` carry count 0: they are sentence
    delimiters, not corpus tokens. Statistics about prediction *targets*
    (which do include ``</s>``) are derived from instance streams instead,
    see :mod:`snlm.training`.
    """

    def __init__(self, tokens: Sequence[str], counts):
        tokens = list(tokens)
        if len(tokens) < len(SPECIAL_TOKENS) or tuple(tokens[:3]) != SPECIAL_TOKENS:
            raise DataError("vocabulary must start with <unk>, <s>, </s>")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(tokens),):
            raise DataError("one count per token required")
        if (counts < 0).any():
            raise DataError("negative token count")
        self.tokens = tokens
        self.counts = counts
        self._ids = dict(zip(tokens, range(len(tokens))))
        if len(self._ids) != len(tokens):
            raise DataError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        """Id of a known token; raises KeyError for unknown tokens."""
        return self._ids[token]

    def lookup(self, token: str) -> int:
        """Id of a token, falling back to the <unk> id."""
        return self._ids.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    @classmethod
    def from_counts(cls, counts: dict) -> "Vocabulary":
        """Build a vocabulary from a token -> count mapping (test/demo helper).

        Tokens are ordered by (count desc, token asc) after the specials.
        """
        items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        tokens = list(SPECIAL_TOKENS) + [t for t, _ in items]
        cnts = [0, 0, 0] + [c for _, c in items]
        return cls(tokens, cnts)

    def save(self, path) -> None:
        """Write one ``token<TAB>count`` line per id, line number = id."""
        with open(path, "w", encoding="utf-8") as fh:
            for tok, cnt in zip(self.tokens, self.counts):
                fh.write(f"{tok}\t{int(cnt)}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens, counts = [], []
        for lineno, line in read_lines(path):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'token<TAB>count'")
            try:
                counts.append(int(parts[1]))
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad count {parts[1]!r}") from None
            tokens.append(parts[0])
        return cls(tokens, counts)


def read_lines(path) -> Iterator[tuple]:
    """Yield (line number, text) for every line of a UTF-8 text file, blank
    ones included, each without its ``\\n`` or ``\\r\\n`` ending.

    Lines are split on ``\\n`` in the raw bytes and decoded one at a time, so
    a line that is not UTF-8 raises a :class:`DataError` naming
    ``path:line``; a file that cannot be opened raises one too.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not UTF-8 text ({exc})") from None
            yield lineno, line.removesuffix("\n").removesuffix("\r")


def read_sentences(path) -> Iterator[list]:
    """Yield whitespace-tokenized sentences from a UTF-8 text file.

    Blank lines are skipped.
    """
    for _, line in read_lines(path):
        toks = line.split()
        if toks:
            yield toks


def build_vocabulary(corpus, min_count: int = 1, max_size=None) -> Vocabulary:
    """Count tokens and build a thresholded vocabulary.

    Parameters
    ----------
    corpus : path or iterable of token lists
    min_count : tokens occurring fewer times are dropped (folded into <unk>)
    max_size : keep at most this many non-special tokens, most frequent first

    The dropped occurrence mass is accumulated on ``<unk>`` so that the sum
    of all counts equals the corpus token count. A literal ``<s>`` or
    ``</s>`` in the text counts as ``<unk>``, as :func:`token_ids` reads it.
    """
    if min_count < 1:
        raise DataError("min_count must be >= 1")
    if max_size is not None and max_size < 0:
        raise DataError("max_size must be >= 0")
    sentences = read_sentences(corpus) if isinstance(corpus, (str, bytes)) or hasattr(corpus, "__fspath__") else corpus
    counter = collections.Counter()
    total = 0
    for sent in sentences:
        counter.update(sent)
        total += len(sent)
    if total == 0:
        raise DataError("empty corpus")

    special_counts = {tok: counter.pop(tok, 0) for tok in SPECIAL_TOKENS}
    items = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [(t, c) for t, c in items if c >= min_count]
    dropped = [(t, c) for t, c in items if c < min_count]
    if max_size is not None and len(kept) > max_size:
        dropped.extend(kept[max_size:])
        kept = kept[:max_size]

    unk = sum(special_counts.values()) + sum(c for _, c in dropped)
    tokens = list(SPECIAL_TOKENS) + [t for t, _ in kept]
    counts = [unk, 0, 0]
    counts += [c for _, c in kept]
    return Vocabulary(tokens, counts)


def token_ids(tokens: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """Ids of a token list, as int32. OOV tokens map to ``<unk>``, and so does
    a literal ``<s>`` or ``</s>``: the markers only frame sentences."""
    ids = np.fromiter(map(vocab._ids.get, tokens, repeat(UNK_ID)), dtype=np.int32,
                      count=len(tokens))
    ids[(ids == BOS_ID) | (ids == EOS_ID)] = UNK_ID
    return ids


def instance_arrays(sentences: Iterable[Sequence[str]], vocab: Vocabulary, n: int):
    """n-gram prediction instances of many sentences as (contexts, targets).

    A sentence of L tokens yields L+1 instances (each token plus ``</s>``).
    Each is a window of width n over one id stream in which every sentence
    is ``<s>`` * (n-1), its :func:`token_ids`, ``</s>``; windows ending on a
    ``<s>`` (the padding) are dropped, so ``<s>`` is never a target. The
    tokens of all sentences are mapped in one pass and written into the
    stream's token slots through one boolean mask; the token list is freed
    before the windows are gathered, and each result is gathered once from
    the stream, so the traced peak stays under twice the result's bytes.

    Returns
    -------
    contexts : int32 array of shape (N, n-1), most recent position first
    targets : int32 array of shape (N,)
    """
    if n < 2:
        raise DataError("model order must be >= 2")
    sentences = list(sentences)
    if not sentences:
        raise DataError("empty corpus")
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    ends = lengths.cumsum() + n * np.arange(len(sentences)) + (n - 1)  # each sentence's </s>
    stream = np.full(int(ends[-1]) + 1, BOS_ID, dtype=np.int32)
    slots = np.ones(len(stream), dtype=bool)  # where the tokens go
    slots[ends] = False
    slots[(ends - lengths - (n - 1))[:, None] + np.arange(n - 1)] = False  # the padding
    stream[slots] = token_ids(list(chain.from_iterable(sentences)), vocab)
    stream[ends] = EOS_ID
    keep = np.flatnonzero(stream[n - 1:] != BOS_ID)  # windows not ending on padding
    windows = np.lib.stride_tricks.sliding_window_view(stream, n)
    return windows[keep, -2::-1], stream[n - 1:][keep]


def unigram_from_counts(counts) -> np.ndarray:
    """Relative frequencies over the ids other than ``<s>``.

    Returns a float64 vector summing to 1. ``<s>`` gets probability exactly
    0 and contributes nothing to the normalizer.
    """
    counts = np.array(counts, dtype=np.float64)
    if counts.ndim != 1 or len(counts) == 0:
        raise DataError("counts must be a non-empty vector")
    if (counts < 0).any() or not np.isfinite(counts).all():
        raise DataError("counts must be finite and non-negative")
    counts[BOS_ID:BOS_ID + 1] = 0.0
    total = counts.sum()
    if total <= 0:
        raise DataError("zero total count")
    return counts / total


def unigram_distribution(vocab: Vocabulary) -> np.ndarray:
    """Unigram distribution over the vocabulary, ``<s>`` excluded.

    Note the vocabulary counts give corpus occurrences; ``</s>`` therefore
    carries zero mass here. Distributions over prediction targets should be
    built from instance targets (``training.empirical_unigram``).
    """
    return unigram_from_counts(vocab.counts)
