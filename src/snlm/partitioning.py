"""Vocabulary partitioning: frequency bins, exchange clustering, Huffman trees.

Class-factored models need a partition of the word ids into classes
(:class:`WordClassing`); tree-factored models need a binary tree whose leaves
are words (:class:`VocabularyTree`).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS_ID, EOS_ID, Vocabulary
from .errors import DataError


@dataclass
class WordClassing:
    """A partition of word ids into dense class ids 0..num_classes-1."""

    class_of: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.class_of = np.asarray(self.class_of, dtype=np.int32)
        if self.class_of.ndim != 1:
            raise DataError("class_of must be a vector")
        if self.num_classes < 1 or len(self.class_of) < self.num_classes:
            raise DataError("need 1 <= num_classes <= vocabulary size")
        present = np.unique(self.class_of)
        if present[0] < 0 or present[-1] >= self.num_classes:
            raise DataError("class id out of range")
        if len(present) != self.num_classes:
            raise DataError("every class must be non-empty")
        self._members = None

    @property
    def members(self) -> list:
        """Class id -> sorted array of member word ids."""
        if self._members is None:
            order = np.argsort(self.class_of, kind="stable")
            bounds = np.searchsorted(self.class_of[order], np.arange(self.num_classes + 1))
            self._members = [np.sort(order[bounds[c]:bounds[c + 1]]).astype(np.int32)
                             for c in range(self.num_classes)]
        return self._members

    def save(self, path, vocab: Vocabulary) -> None:
        """One ``word<TAB>class_id`` line per word id."""
        if len(vocab) != len(self.class_of):
            raise DataError("vocabulary size mismatch")
        with open(path, "w", encoding="utf-8") as fh:
            for w, c in enumerate(self.class_of):
                fh.write(f"{vocab.token_of(w)}\t{int(c)}\n")

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "WordClassing":
        class_of = np.full(len(vocab), -1, dtype=np.int32)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise DataError(f"{path}:{lineno}: expected 'word<TAB>class'")
                if parts[0] not in vocab:
                    raise DataError(f"{path}:{lineno}: unknown word {parts[0]!r}")
                class_of[vocab.id_of(parts[0])] = int(parts[1])
        if (class_of < 0).any():
            missing = vocab.token_of(int(np.argmin(class_of)))
            raise DataError(f"{path}: no class for {missing!r}")
        return cls(class_of, int(class_of.max()) + 1)


def frequency_binning(unigram, num_classes: int) -> WordClassing:
    """Partition words into bins of roughly equal unigram mass.

    Words are walked most frequent first; a bin closes once its cumulative
    mass reaches the next multiple of total/num_classes. Bins are never empty
    and closing is forced when only as many words remain as bins. The result
    is invariant under rescaling all weights by a positive constant.

    Parameters
    ----------
    unigram : UnigramDistribution or non-negative weight vector
    num_classes : number of bins K
    """
    probs = np.asarray(getattr(unigram, "probs", unigram), dtype=np.float64)
    n = len(probs)
    if not 1 <= num_classes <= n:
        raise DataError("need 1 <= num_classes <= vocabulary size")
    if (probs < 0).any():
        raise DataError("negative weight")
    total = probs.sum()
    if total <= 0:
        raise DataError("zero total weight")

    order = np.lexsort((np.arange(n), -probs))  # count desc, id asc
    class_of = np.empty(n, dtype=np.int32)
    binno = 0
    cum = 0.0
    filled = 0  # words already assigned
    for rank, w in enumerate(order):
        class_of[w] = binno
        cum += probs[w]
        filled += 1
        if binno == num_classes - 1:
            continue
        remaining_words = n - filled
        remaining_bins = num_classes - binno - 1
        threshold = total * (binno + 1) / num_classes
        if cum >= threshold - 1e-9 * total or remaining_words == remaining_bins:
            binno += 1
    return WordClassing(class_of, num_classes)


# ---------------------------------------------------------------------------
# exchange clustering on class-bigram likelihood


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def class_bigram_objective(sentences, vocab: Vocabulary, classing: WordClassing) -> float:
    """Class-bigram log-likelihood term maximized by the exchange algorithm.

    F = sum_{c,c'} N(c,c') ln N(c,c') - sum_c N_l(c) ln N_l(c)
        - sum_c N_gen(c) ln N_gen(c)

    where counts come from sentence streams framed ``<s> w1..wL </s>``:
    N(c,c') counts class bigrams, N_l left-position totals, N_gen
    generated-token totals (everything except ``<s>``).
    """
    cls = classing.class_of
    K = classing.num_classes
    T = np.zeros((K, K))
    gen = np.zeros(K)
    for sent in sentences:
        ids = [BOS_ID] + [vocab.lookup(t) for t in sent] + [EOS_ID]
        for a, b in zip(ids, ids[1:]):
            T[cls[a], cls[b]] += 1
            gen[cls[b]] += 1
    left = T.sum(axis=1)
    f = sum(_xlogx(v) for v in T.flat)
    f -= sum(_xlogx(v) for v in left)
    f -= sum(_xlogx(v) for v in gen)
    return f


class _ExchangeState:
    """Mutable class-bigram statistics for the exchange sweep."""

    def __init__(self, streams, num_words, class_of, num_classes):
        self.assign = np.asarray(class_of, dtype=np.int32).copy()
        self.K = num_classes
        # word-level stats
        self.right = [dict() for _ in range(num_words)]  # w -> {v: N(w,v)}, v != w
        self.left = [dict() for _ in range(num_words)]   # w -> {v: N(v,w)}, v != w
        self.self_big = np.zeros(num_words)              # N(w,w)
        self.gen_w = np.zeros(num_words)                 # occurrences as generated token
        self.row_w = np.zeros(num_words)                 # total N(w, .)
        for ids in streams:
            for a, b in zip(ids, ids[1:]):
                self.gen_w[b] += 1
                self.row_w[a] += 1
                if a == b:
                    self.self_big[a] += 1
                else:
                    self.right[a][b] = self.right[a].get(b, 0.0) + 1
                    self.left[b][a] = self.left[b].get(a, 0.0) + 1
        # class-level stats
        K = self.K
        self.T = np.zeros((K, K))
        for w in range(num_words):
            cw = self.assign[w]
            self.T[cw, cw] += self.self_big[w]
            for v, c in self.right[w].items():
                self.T[cw, self.assign[v]] += c
        self.Nl = self.T.sum(axis=1)
        self.Ng = np.bincount(self.assign, weights=self.gen_w, minlength=K)
        self.sizes = np.bincount(self.assign, minlength=K)

    def _neighbor_class_counts(self, w):
        """Right/left bigram mass of w grouped by the class of the neighbor."""
        r = {}
        for v, c in self.right[w].items():
            cv = self.assign[v]
            r[cv] = r.get(cv, 0.0) + c
        l = {}
        for v, c in self.left[w].items():
            cv = self.assign[v]
            l[cv] = l.get(cv, 0.0) + c
        return r, l

    def move_delta(self, w, b, r, l):
        """Objective change from moving w to class b (r, l precomputed)."""
        a = self.assign[w]
        if a == b:
            return 0.0
        s = self.self_big[w]
        cell = {}

        def bump(i, j, d):
            if d:
                cell[(i, j)] = cell.get((i, j), 0.0) + d

        for c, cnt in r.items():
            bump(a, c, -cnt)
            bump(b, c, cnt)
        for c, cnt in l.items():
            bump(c, a, -cnt)
            bump(c, b, cnt)
        bump(a, a, -s)
        bump(b, b, s)

        delta = 0.0
        for (i, j), d in cell.items():
            old = self.T[i, j]
            delta += _xlogx(old + d) - _xlogx(old)
        rw = self.row_w[w]
        delta -= _xlogx(self.Nl[a] - rw) - _xlogx(self.Nl[a])
        delta -= _xlogx(self.Nl[b] + rw) - _xlogx(self.Nl[b])
        g = self.gen_w[w]
        delta -= _xlogx(self.Ng[a] - g) - _xlogx(self.Ng[a])
        delta -= _xlogx(self.Ng[b] + g) - _xlogx(self.Ng[b])
        return delta

    def apply_move(self, w, b, r, l):
        a = self.assign[w]
        s = self.self_big[w]
        for c, cnt in r.items():
            self.T[a, c] -= cnt
            self.T[b, c] += cnt
        for c, cnt in l.items():
            self.T[c, a] -= cnt
            self.T[c, b] += cnt
        self.T[a, a] -= s
        self.T[b, b] += s
        rw = self.row_w[w]
        self.Nl[a] -= rw
        self.Nl[b] += rw
        g = self.gen_w[w]
        self.Ng[a] -= g
        self.Ng[b] += g
        self.sizes[a] -= 1
        self.sizes[b] += 1
        self.assign[w] = b


def brown_clustering(sentences, vocab: Vocabulary, num_classes: int,
                     max_iterations: int = 20, words=None) -> WordClassing:
    """Greedy exchange clustering maximizing class-bigram log-likelihood.

    Initialization: the ``num_classes`` most frequent words get singleton
    classes; every other word joins the class of its frequency rank modulo
    ``num_classes``. Sweeps visit words in frequency order and move each to
    the class with the largest positive objective gain; the algorithm stops
    after a sweep with no moves or after ``max_iterations`` sweeps. Moves
    never empty a class. Deterministic: ties keep the current class.

    Parameters
    ----------
    sentences : iterable of token lists (consumed once, so pass a list when
        it must survive the call)
    words : optional set of word ids to cluster; all other ids are frozen in
        singleton classes appended after the ``num_classes`` exchange classes.
    """
    sentences = list(sentences)
    streams = [[BOS_ID] + [vocab.lookup(t) for t in s] + [EOS_ID] for s in sentences]
    V = len(vocab)

    if words is None:
        movable = list(range(V))
    else:
        movable = sorted(set(int(w) for w in words))
        for w in movable:
            if not 0 <= w < V:
                raise DataError(f"word id {w} out of range")
    if not 1 <= num_classes <= len(movable):
        raise DataError("need 1 <= num_classes <= number of clustered words")

    gen_counts = np.zeros(V)
    for ids in streams:
        for w in ids[1:]:
            gen_counts[w] += 1

    # frequency rank over the movable words only (count desc, id asc)
    ranked = sorted(movable, key=lambda w: (-gen_counts[w], w))
    class_of = np.empty(V, dtype=np.int32)
    for rank, w in enumerate(ranked):
        class_of[w] = rank if rank < num_classes else rank % num_classes
    movable_set = set(movable)
    frozen = [w for w in range(V) if w not in movable_set]
    for i, w in enumerate(frozen):
        class_of[w] = num_classes + i
    total_classes = num_classes + len(frozen)

    state = _ExchangeState(streams, V, class_of, total_classes)
    for _ in range(max_iterations):
        moved = 0
        for w in ranked:
            a = state.assign[w]
            if state.sizes[a] == 1:
                continue  # would empty its class
            r, l = state._neighbor_class_counts(w)
            best_b, best_delta = a, 0.0
            for b in range(num_classes):
                if b == a:
                    continue
                d = state.move_delta(w, b, r, l)
                if d > best_delta + 1e-9:
                    best_b, best_delta = b, d
            if best_b != a:
                state.apply_move(w, best_b, r, l)
                moved += 1
        if moved == 0:
            break
    return WordClassing(state.assign, total_classes)


# ---------------------------------------------------------------------------
# Huffman trees


@dataclass
class VocabularyTree:
    """Strict binary tree over a set of word ids.

    Leaves are nodes 0..L-1 (ascending word id), internal nodes follow in
    creation order, and the root is always the last node id. Every internal
    node has exactly two children.
    """

    parent: np.ndarray   # (num_nodes,), -1 for the root
    left: np.ndarray     # (num_nodes,), -1 for leaves
    right: np.ndarray
    leaf_word: np.ndarray  # (num_nodes,), word id for leaves, -1 internal

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int32)
        self.left = np.asarray(self.left, dtype=np.int32)
        self.right = np.asarray(self.right, dtype=np.int32)
        self.leaf_word = np.asarray(self.leaf_word, dtype=np.int32)
        self.validate()
        self.node_depth = self._node_depth()

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    @property
    def num_leaves(self) -> int:
        return (self.num_nodes + 1) // 2

    @property
    def root(self) -> int:
        return self.num_nodes - 1

    @property
    def words(self) -> np.ndarray:
        """Sorted word ids at the leaves."""
        return np.sort(self.leaf_word[self.leaf_word >= 0])

    def validate(self):
        n = self.num_nodes
        if n < 3 or n % 2 == 0:
            raise DataError("a strict binary tree over L>=2 leaves has 2L-1 nodes")
        if self.parent[n - 1] != -1 or (self.parent[:n - 1] < 0).any():
            raise DataError("root must be the last node and the only orphan")
        leaves = self.leaf_word >= 0
        internal = ~leaves
        if leaves.sum() != (n + 1) // 2:
            raise DataError("leaf/internal node count mismatch")
        if (self.left[leaves] != -1).any() or (self.right[leaves] != -1).any():
            raise DataError("leaves cannot have children")
        for links in (self.parent, self.left, self.right):
            if ((links < -1) | (links >= n)).any():
                raise DataError("node id out of range")
        if (self.left[internal] < 0).any() or (self.right[internal] < 0).any():
            raise DataError("internal nodes need two children")
        if (self.left[internal] == self.right[internal]).any():
            raise DataError("an internal node's two children must differ")
        inner = np.flatnonzero(internal)
        for child in (self.left[inner], self.right[inner]):
            if (self.parent[child] != inner).any():
                raise DataError("parent/child links disagree")
        words = self.leaf_word[leaves]
        if len(np.unique(words)) != len(words):
            raise DataError("word labels two leaves")

    def _node_depth(self) -> np.ndarray:
        """Depth of every node, found one level at a time from the root."""
        depth = np.full(self.num_nodes, -1, dtype=np.int64)
        level, d = np.array([self.root]), 0
        while len(level):  # children differ and name their parent: no revisits
            depth[level] = d
            level = level[self.left[level] >= 0]
            level = np.concatenate([self.left[level], self.right[level]])
            d += 1
        if (depth < 0).any():
            raise DataError("tree has nodes the root does not reach")
        return depth

    @functools.cached_property
    def paths(self):
        """Padded (word id, max_depth) arrays (nodes, siblings, mask), built
        on first use one level at a time from the leaves up. Row w holds word
        w's path from just below the root down to its leaf; padding is node 0
        under a False mask, and ids that label no leaf get an all-False row."""
        cur = np.flatnonzero(self.leaf_word >= 0)
        words, pos = self.leaf_word[cur], self.node_depth[cur] - 1
        nodes = np.zeros((words.max() + 1, self.max_depth), dtype=np.int32)
        mask = np.zeros(nodes.shape, dtype=bool)
        while len(cur):
            nodes[words, pos] = cur
            mask[words, pos] = True
            up = pos > 0
            cur, words, pos = self.parent[cur[up]], words[up], pos[up] - 1
        inner = np.flatnonzero(self.leaf_word < 0)
        sibling = np.zeros(self.num_nodes, dtype=np.int32)
        sibling[self.left[inner]], sibling[self.right[inner]] = self.right[inner], self.left[inner]
        return nodes, sibling[nodes], mask

    @property
    def max_depth(self) -> int:
        return int(self.node_depth.max())

    def depth(self, word: int) -> int:
        return int(self.paths[2][word].sum())

    def path(self, word: int):
        """(nodes, siblings) from just below the root down to word's leaf."""
        nodes, sibs, _ = self.paths
        d = self.depth(word)
        return nodes[word, :d], sibs[word, :d]

    def save(self, path, vocab: Vocabulary) -> None:
        """Preorder, one node per line: ``node_id parent_id [leaf:token]``."""
        with open(path, "w", encoding="utf-8") as fh:
            stack = [self.root]
            while stack:
                node = stack.pop()
                line = f"{node} {int(self.parent[node])}"
                if self.leaf_word[node] >= 0:
                    line += f" leaf:{vocab.token_of(int(self.leaf_word[node]))}"
                fh.write(line + "\n")
                if self.left[node] >= 0:
                    # preorder: left subtree first
                    stack.append(int(self.right[node]))
                    stack.append(int(self.left[node]))

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "VocabularyTree":
        rows = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) not in (2, 3):
                    raise DataError(f"{path}:{lineno}: expected 'node parent [leaf:token]'")
                try:
                    node, par = int(parts[0]), int(parts[1])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad node ids") from None
                word = -1
                if len(parts) == 3:
                    if not parts[2].startswith("leaf:"):
                        raise DataError(f"{path}:{lineno}: expected leaf:token")
                    tok = parts[2][len("leaf:"):]
                    if tok not in vocab:
                        raise DataError(f"{path}:{lineno}: unknown word {tok!r}")
                    word = vocab.id_of(tok)
                rows.append((node, par, word))
        if not rows:
            raise DataError(f"{path}: empty tree file")
        n = len(rows)
        parent = np.full(n, -1, dtype=np.int32)
        left = np.full(n, -1, dtype=np.int32)
        right = np.full(n, -1, dtype=np.int32)
        leaf_word = np.full(n, -1, dtype=np.int32)
        for node, par, word in rows:
            if not 0 <= node < n:
                raise DataError(f"{path}: node id {node} out of range")
            parent[node] = par
            leaf_word[node] = word
            if par >= 0:
                # preorder writes the left child before the right one
                if left[par] < 0:
                    left[par] = node
                elif right[par] < 0:
                    right[par] = node
                else:
                    raise DataError(f"{path}: node {par} has three children")
        return cls(parent, left, right, leaf_word)


def huffman_tree(counts) -> VocabularyTree:
    """Huffman-coded binary tree over word ids.

    Parameters
    ----------
    counts : mapping word id -> count. Zero counts are lifted to 1 so every
        word keeps a leaf. Ties are broken by node creation order (leaves in
        ascending word-id order first), and the first node popped from the
        heap becomes the left child, so the tree is a pure function of the
        input.
    """
    if not hasattr(counts, "keys"):
        counts = dict(enumerate(np.asarray(counts)))
    words = sorted(int(w) for w in counts)
    L = len(words)
    if L < 2:
        raise DataError("need at least 2 words for a tree")
    if len(set(words)) != L:
        raise DataError("duplicate word id")

    total = 2 * L - 1
    parent = np.full(total, -1, dtype=np.int32)
    left = np.full(total, -1, dtype=np.int32)
    right = np.full(total, -1, dtype=np.int32)
    leaf_word = np.full(total, -1, dtype=np.int32)

    heap = []
    for i, w in enumerate(words):
        weight = max(int(counts[w]), 1)
        leaf_word[i] = w
        heap.append((weight, i))
    heapq.heapify(heap)

    nxt = L
    while len(heap) > 1:
        w1, n1 = heapq.heappop(heap)
        w2, n2 = heapq.heappop(heap)
        parent[n1] = nxt
        parent[n2] = nxt
        left[nxt] = n1
        right[nxt] = n2
        heapq.heappush(heap, (w1 + w2, nxt))
        nxt += 1
    return VocabularyTree(parent, left, right, leaf_word)
