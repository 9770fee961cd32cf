"""Vocabulary partitioning: frequency bins, exchange clustering, Huffman trees.

Class-factored models need a partition of the word ids into classes
(:class:`WordClassing`); tree-factored models need a binary tree whose leaves
are words (:class:`VocabularyTree`).

Exchange clustering (:func:`brown_clustering`) keeps its state in arrays:
each word's bigram neighbours in compressed rows and the rows and columns of
the class-bigram counts T that belong to the exchange classes (Martin,
Liermann & Ney 1998). A visited word costs a few dozen numpy calls: its
neighbours are grouped by class with one sort and one ``searchsorted``, and
its gain for every candidate class comes from one ``x ln x`` over every cell
a move changes, gathered once as they are and once with the word's counts
added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary, instance_arrays, read_lines
from .errors import DataError

# Deepest tree accepted. huffman_tree lifts zero counts to 1, so by the
# Fibonacci bound it reaches this depth only past 10^13 corpus tokens.
MAX_TREE_DEPTH = 64


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
        if self.class_of.min() < 0 or self.class_of.max() >= self.num_classes:
            raise DataError("class id out of range")
        sizes = np.bincount(self.class_of, minlength=self.num_classes)
        if not sizes.all():  # argmin: the first class of size 0
            raise DataError(f"every class must be non-empty; class {sizes.argmin()} has no words")
        self._members = None

    @property
    def members(self) -> list:
        """Class id -> sorted array of member word ids: slices of one stable
        argsort, which keeps each class's members in id order."""
        if self._members is None:
            order = np.argsort(self.class_of, kind="stable")
            bounds = np.searchsorted(self.class_of[order], np.arange(1, self.num_classes))
            self._members = np.split(order.astype(np.int32), bounds)
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
        for lineno, line in read_lines(path):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'word<TAB>class'")
            if parts[0] not in vocab:
                raise DataError(f"{path}:{lineno}: unknown word {parts[0]!r}")
            try:
                c = int(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad class id {parts[1]!r}") from None
            if not 0 <= c < len(vocab):  # K <= |V| classes
                raise DataError(f"{path}:{lineno}: class id {c} out of range")
            w = vocab.id_of(parts[0])
            if class_of[w] >= 0:
                raise DataError(f"{path}:{lineno}: word {parts[0]!r} is listed twice")
            class_of[w] = c
        if (class_of < 0).any():
            missing = vocab.token_of(int(np.argmin(class_of)))
            raise DataError(f"{path}: no class for {missing!r}")
        try:
            return cls(class_of, int(class_of.max()) + 1)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def default_num_classes(vocab_size: int) -> int:
    """ceil(sqrt(|V|)): the number of classes ``snlm`` uses unless given one."""
    return max(1, math.ceil(math.sqrt(vocab_size)))


def frequency_binning(unigram, num_classes: int) -> WordClassing:
    """Partition words into bins of roughly equal unigram mass.

    Words are walked most frequent first; a bin closes once its cumulative
    mass reaches the next multiple of total/num_classes. Bins are never empty
    and closing is forced when only as many words remain as bins. The result
    is invariant under rescaling all weights by a positive constant.

    Parameters
    ----------
    unigram : finite non-negative weight vector
    num_classes : number of bins K
    """
    probs = np.asarray(unigram, dtype=np.float64)
    n = len(probs)
    if not 1 <= num_classes <= n:
        raise DataError("need 1 <= num_classes <= vocabulary size")
    if not np.isfinite(probs).all():
        raise DataError("non-finite weight")
    if (probs < 0).any():
        raise DataError("negative weight")
    total = probs.sum()
    if total <= 0:
        raise DataError("zero total weight")

    order = np.lexsort((np.arange(n), -probs))  # count desc, id asc
    class_of = np.empty(n, dtype=np.int32)
    binno, cum = 0, 0.0
    for rank, w in enumerate(order):
        class_of[w] = binno
        cum += probs[w]
        # close at the bin's mass share, or when each word left needs its own bin
        if binno < num_classes - 1 and (cum >= total * (binno + 1) / num_classes - 1e-9 * total
                                        or n - rank == num_classes - binno):
            binno += 1
    return WordClassing(class_of, num_classes)


# ---------------------------------------------------------------------------
# exchange clustering on class-bigram likelihood


def _xlogx(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * np.log(x, out=np.zeros(x.shape), where=x > 0)


def _word_bigrams(sentences, vocab: Vocabulary):
    """Distinct word bigrams (left ids, right ids, counts) of the sentence
    streams framed ``<s> w1..wL </s>``: the order-2 instances."""
    left, right = instance_arrays(sentences, vocab, 2)
    V = len(vocab)
    pairs, count = np.unique(left[:, 0].astype(np.int64) * V + right, return_counts=True)
    return pairs // V, pairs % V, count.astype(np.float64)


def _class_bigrams(bigrams, class_of, num_classes: int):
    """Class-bigram counts over the class pairs that occur, as (left classes,
    right classes, counts), with their sums N_l per left class (left-position
    totals) and N_gen per right class (generated-token totals: every token
    but ``<s>``)."""
    left, right, count = bigrams
    class_of = np.asarray(class_of, dtype=np.int64)
    pairs, inv = np.unique(class_of[left] * num_classes + class_of[right],
                           return_inverse=True)
    n = np.bincount(inv, weights=count)
    cl, cr = pairs // num_classes, pairs % num_classes
    return ((cl, cr, n), np.bincount(cl, weights=n, minlength=num_classes),
            np.bincount(cr, weights=n, minlength=num_classes))


def class_bigram_objective(sentences, vocab: Vocabulary, classing: WordClassing) -> float:
    """Class-bigram log-likelihood term maximized by the exchange algorithm.

    F = sum_{c,c'} N(c,c') ln N(c,c') - sum_c N_l(c) ln N_l(c)
        - sum_c N_gen(c) ln N_gen(c)

    where counts come from sentence streams framed ``<s> w1..wL </s>``:
    N(c,c') counts class bigrams, N_l left-position totals, N_gen
    generated-token totals (everything except ``<s>``).
    """
    (_, _, n), Nl, Ng = _class_bigrams(_word_bigrams(sentences, vocab),
                                       classing.class_of, classing.num_classes)
    return float(_xlogx(n).sum() - _xlogx(Nl).sum() - _xlogx(Ng).sum())


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
    if max_iterations < 0:
        raise DataError("max_iterations must be >= 0")
    V = len(vocab)
    bigrams = left, right, count = _word_bigrams(sentences, vocab)
    if words is None:
        movable = np.arange(V)
    else:
        movable = np.array(sorted(set(int(w) for w in words)), dtype=np.int64)
        bad = movable[(movable < 0) | (movable >= V)]
        if len(bad):
            raise DataError(f"word id {bad[0]} out of range")
    if not 1 <= num_classes <= len(movable):
        raise DataError("need 1 <= num_classes <= number of clustered words")

    # frequency rank over the movable words only (count desc, id asc)
    gen_w = np.bincount(right, weights=count, minlength=V)
    ranked = movable[np.lexsort((movable, -gen_w[movable]))]
    class_of = np.empty(V, dtype=np.int64)
    class_of[ranked] = np.arange(len(ranked)) % num_classes
    frozen = np.setdiff1d(np.arange(V), movable)
    class_of[frozen] = num_classes + np.arange(len(frozen))
    total_classes = num_classes + len(frozen)

    # word-neighbour CSR: word w's neighbours are nbr[offset[w]:offset[w + 1]],
    # right neighbours (side 0) and left neighbours (side 1), self-loops apart
    loop = left == right
    self_w = np.bincount(left[loop], weights=count[loop], minlength=V)
    src, dst, n = left[~loop], right[~loop], count[~loop]
    owner = np.concatenate([src, dst])
    order = np.argsort(owner, kind="stable")
    nbr, nbr_count = np.concatenate([dst, src])[order], np.concatenate([n, n])[order]
    side = (order >= len(src)).astype(np.int64)
    offset = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=V))])

    # A move changes only the K exchange classes' rows and columns of T, so
    # only those are kept, O(K * classes) memory rather than O(classes^2):
    # rows[b] = T[b, :] and cols[b] = T[:, b] for b < K. Each shift writes
    # their shared block T[:K, :K] in one of them and copies it into the
    # other. ends holds each exchange class's other cells a move changes:
    # T[b, b], N_l[b] and N_gen[b].
    (cl, cr, n), Nl, Ng = _class_bigrams(bigrams, class_of, total_classes)
    K = num_classes
    rows_cols = np.zeros((2, K, total_classes))
    rows, cols = rows_cols
    rows[cl[cl < K], cr[cl < K]] = n[cl < K]
    cols[cr[cr < K], cl[cr < K]] = n[cr < K]
    ends = np.stack([rows.diagonal(), Nl[:K], Ng[:K]])
    sizes = np.bincount(class_of, minlength=total_classes).tolist()
    # N_l and N_gen move by the word's left-position and generated totals:
    # its counts r and l summed, plus its self-loops
    left_w = np.bincount(left, weights=count, minlength=V).tolist()
    gen_l, self_l, bounds = gen_w.tolist(), self_w.tolist(), offset.tolist()

    def shift(c, U, r, l, w, sign):
        """Add word w's counts to exchange class c (sign +1) or take them
        out (sign -1)."""
        op = np.add if sign > 0 else np.subtract
        row = rows[c]
        row[U] = op(row[U], r)
        cols[:, c] = row[:K]  # row c of the block is current in rows
        col = cols[c]
        col[U] = op(col[U], l)
        col[c] += sign * self_l[w]
        rows[:, c] = col[:K]  # column c of the block is current in cols
        ends[0, c] = col[c]
        ends[1, c] += sign * left_w[w]
        ends[2, c] += sign * gen_l[w]
        sizes[c] += sign

    for _ in range(max_iterations):
        before = class_of.copy()
        for w in ranked.tolist():
            a = int(class_of[w])
            if sizes[a] == 1:
                continue  # would empty its class
            # the classes U of the word's neighbours, ascending, and its
            # bigram counts r to and l from each of them, in input order
            lo, hi = bounds[w], bounds[w + 1]
            nbr_class = class_of[nbr[lo:hi]]
            srt = np.sort(nbr_class)
            first = np.empty(len(srt), dtype=bool)  # empty for a word seen nowhere
            first[:1] = True
            np.not_equal(srt[1:], srt[:-1], out=first[1:])
            U = srt[first]
            m = len(U)
            d = np.bincount(np.searchsorted(U, nbr_class) + side[lo:hi] * m,
                            weights=nbr_count[lo:hi], minlength=2 * m + 3)
            rl = d[:2 * m].reshape(2, m)
            r, l = rl
            shift(a, U, r, l, w, -1)

            # Gain of inserting the word, now in no class, into each exchange
            # class b: the change of x ln x over every cell that alters,
            # T[b, U] and T[U, b] in grid, T[b, b], N_l[b] and N_gen[b] in
            # rest. X[1] holds the cells as they are, X[0] the cells plus the
            # word's counts. The cells (b, b) of T[b, U] and T[U, b] are
            # zeroed in both; the diagonal counts them once.
            X = np.empty((2, 2 * K * m + 3 * K))
            grid = X[:, :2 * K * m].reshape(2, 2, K, m)
            rest = X[:, 2 * K * m:].reshape(2, 3, K)
            # mode "clip" writes into grid unbuffered; U is always in range
            np.take(rows_cols, U, axis=2, out=grid[1], mode="clip")
            rest[1] = ends
            np.add(grid[1], rl[:, None], out=grid[0])
            d[2 * m:] = self_l[w], left_w[w], gen_l[w]
            np.add(rest[1], d[2 * m:, None], out=rest[0])
            k = int(np.searchsorted(U, K))  # U[:k] are exchange classes
            rest[0, 0, U[:k]] += r[:k] + l[:k]
            grid[:, :, U[:k], np.arange(k)] = 0.0
            # counts are whole numbers, so x ln x is 0 at both 0 and 1:
            # lifting 0 to 1 stands in for a masked log
            F = np.log(np.maximum(X, 1.0))
            F *= X
            delta = F[0] - F[1]
            by_part = delta[:2 * K * m].reshape(2 * K, m).sum(axis=1)
            d_ends = delta[2 * K * m:].reshape(3, K)
            gain = by_part[:K] + by_part[K:] + d_ends[0] - d_ends[1] - d_ends[2]
            b = int(gain.argmax())
            b = b if gain[b] > gain[a] + 1e-9 else a  # ties keep the current class
            shift(b, U, r, l, w, +1)
            class_of[w] = b
        if np.array_equal(class_of, before):
            break
    return WordClassing(class_of, total_classes)


# ---------------------------------------------------------------------------
# Huffman trees


@dataclass
class VocabularyTree:
    """Strict binary tree over a set of word ids.

    Leaves are nodes 0..L-1 (ascending word id), internal nodes follow in
    creation order, and the root is always the last node id. Every internal
    node has exactly two children.

    ``node_depth`` holds every node's depth and ``leaf_of`` maps a word id
    to its leaf (-1 for an id that labels none). Scoring walks from
    ``leaf_of`` up ``parent``, deepest queries first.
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
        leaves = self.validate()
        self.node_depth = self._node_depth()
        self.leaf_of = np.full(self.leaf_word.max() + 1, -1, dtype=np.int32)
        self.leaf_of[self.leaf_word[leaves]] = leaves  # word id -> leaf, -1 for none
        if (self.leaf_of[self.leaf_word[leaves]] != leaves).any():  # a later leaf took its word
            raise DataError("word labels two leaves")

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

    def validate(self) -> np.ndarray:
        """Check the links of a strict binary tree, one or two array passes a
        check; returns the leaves' node ids. ``_node_depth`` checks reach."""
        n = self.num_nodes
        if n < 3 or n % 2 == 0:
            raise DataError("a strict binary tree over L>=2 leaves has 2L-1 nodes")
        parent, left, right = self.parent, self.left, self.right
        if parent[n - 1] != -1 or parent[:n - 1].min() < 0:
            raise DataError("root must be the last node and the only orphan")
        is_leaf = self.leaf_word >= 0
        leaves = np.flatnonzero(is_leaf)
        if len(leaves) != (n + 1) // 2:
            raise DataError("leaf/internal node count mismatch")
        for links in (parent, left, right):
            if links.min() < -1 or links.max() >= n:
                raise DataError("node id out of range")
        childless = ((left < 0) != is_leaf) | ((right < 0) != is_leaf)  # ids: -1 or a node
        if childless.any():
            raise DataError("leaves cannot have children" if childless[leaves].any()
                            else "internal nodes need two children")
        inner = np.flatnonzero(~is_leaf)
        kids = left[inner], right[inner]
        if (kids[0] == kids[1]).any():
            raise DataError("an internal node's two children must differ")
        # np.take: fancy indexing would first cast the int32 ids to intp
        if (np.take(parent, kids[0]) != inner).any() or (np.take(parent, kids[1]) != inner).any():
            raise DataError("parent/child links disagree")
        return leaves

    def _node_depth(self) -> np.ndarray:
        """Depth of every node by pointer jumping: each round doubles how far
        up every node has counted. A tree deeper than ``MAX_TREE_DEPTH`` is
        rejected: a walk over it, up a path or down the levels, takes one
        step per level."""
        up = self.parent.astype(np.intp)  # an index of intp needs no cast
        up[self.root] = self.root
        depth = (self.parent >= 0).astype(np.int32)  # the distance to up
        for _ in range(MAX_TREE_DEPTH.bit_length()):  # resolves every depth up to 128
            depth += depth[up]
            up = up[up]
        depth[up != self.root] = -1  # in a cycle, or deeper than the rounds resolve
        if depth.max() > MAX_TREE_DEPTH:
            raise DataError(f"tree is deeper than {MAX_TREE_DEPTH} levels "
                            f"(a node at depth {depth.max()})")
        if depth.min() < 0:
            raise DataError("tree has nodes the root does not reach")
        return depth

    @property
    def max_depth(self) -> int:
        return int(self.node_depth.max())

    def depth(self, word: int) -> int:
        """Edges from the root to word's leaf; 0 for an id that labels none."""
        leaf = self.leaf_of[word]
        return int(self.node_depth[leaf]) if leaf >= 0 else 0

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
        for lineno, line in read_lines(path):
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
            rows.append((lineno, node, par, word))
        if not rows:
            raise DataError(f"{path}: empty tree file")
        n = len(rows)
        parent = np.full(n, -1, dtype=np.int32)
        left = np.full(n, -1, dtype=np.int32)
        right = np.full(n, -1, dtype=np.int32)
        leaf_word = np.full(n, -1, dtype=np.int32)
        for lineno, node, par, word in rows:
            if not 0 <= node < n:
                raise DataError(f"{path}:{lineno}: node id {node} out of range")
            if not -1 <= par < n:
                raise DataError(f"{path}:{lineno}: parent id {par} out of range")
            parent[node] = par
            leaf_word[node] = word
            if par >= 0:
                # preorder writes the left child before the right one
                if left[par] < 0:
                    left[par] = node
                elif right[par] < 0:
                    right[par] = node
                else:
                    raise DataError(f"{path}:{lineno}: node {par} has three children")
        try:
            return cls(parent, left, right, leaf_word)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def huffman_tree(counts) -> VocabularyTree:
    """Huffman-coded binary tree over word ids.

    Parameters
    ----------
    counts : mapping word id -> non-negative count. Zero counts are lifted
        to 1 so every word keeps a leaf. Leaves are nodes 0..L-1 in
        ascending word-id order, merged nodes follow in creation order, and
        each merge takes the two lightest nodes, ties to the lower node id,
        the first taken becoming the left child; so the tree is a pure
        function of the input.

    Merged weights never decrease, so the nodes waiting to be merged are
    two sorted queues: the leaves by (count, id) and a FIFO of merged
    nodes. The next node is the lighter queue head, the leaf on a tie,
    since every leaf id is below every merged one.
    """
    words = sorted(int(w) for w in counts)
    L = len(words)
    if L < 2:
        raise DataError("need at least 2 words for a tree")
    if len(set(words)) != L:
        raise DataError("duplicate word id")
    raw = [int(counts[w]) for w in words]
    negative = [w for w, c in zip(words, raw) if c < 0]
    if negative:
        raise DataError(f"negative count for word {negative[0]}")

    total = 2 * L - 1
    parent = np.full(total, -1, dtype=np.int32)
    left = np.full(total, -1, dtype=np.int32)
    right = np.full(total, -1, dtype=np.int32)
    leaf_word = np.full(total, -1, dtype=np.int32)
    leaf_word[:L] = words

    weight = [max(c, 1) for c in raw] + [0] * (L - 1)  # node id -> weight
    leaves = sorted(range(L), key=weight.__getitem__)  # stable: ties by id
    inf = float("inf")
    leaf_weight = [weight[n] for n in leaves] + [inf]  # inf once no leaf is left
    i, j = 0, L  # heads of the leaf queue and of the merged FIFO
    kids = []  # each merged node's left and right child, flat
    for nxt in range(L, total):
        for _ in range(2):
            if leaf_weight[i] <= (weight[j] if j < nxt else inf):
                kids.append(leaves[i])
                i += 1
            else:
                kids.append(j)
                j += 1
        weight[nxt] = weight[kids[-2]] + weight[kids[-1]]
    kids = np.array(kids, dtype=np.int32).reshape(L - 1, 2)
    left[L:], right[L:] = kids[:, 0], kids[:, 1]
    parent[kids[:, 0]] = parent[kids[:, 1]] = np.arange(L, total, dtype=np.int32)
    return VocabularyTree(parent, left, right, leaf_word)
