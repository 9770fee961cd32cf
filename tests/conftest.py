"""Shared builders for the test suite.

Most tests work on tiny hand-sized vocabularies so that oracle values can
be computed by direct enumeration in plain Python.
"""
import functools
import math

import numpy as np

from snlm.corpus import BOS_ID, Vocabulary
from snlm.model import (
    ModelConfig,
    REGIME_CLASS,
    REGIME_STANDARD,
    REGIME_TREE,
    init_parameters,
)
from snlm.partitioning import WordClassing, huffman_tree


def make_vocab(words, counts=None):
    """Vocabulary over the given content words (specials prepended)."""
    if counts is None:
        counts = {w: i + 1 for i, w in enumerate(words)}
    else:
        counts = dict(zip(words, counts))
    return Vocabulary.from_counts(counts)


def support_counts(vocab):
    # positive weight for every predictable word, so trees cover the support
    c = np.maximum(vocab.counts, 1)
    c[BOS_ID] = 0
    return c


def make_config(vocab, regime=REGIME_STANDARD, order=3, dim=5, diagonal=True,
                num_classes=2, class_of=None):
    classing = None
    tree = None
    if regime == REGIME_CLASS:
        if class_of is not None:
            assign = np.asarray(class_of, dtype=np.int32)
            classing = WordClassing(assign, int(assign.max()) + 1)
        else:
            support = [w for w in range(len(vocab)) if w != BOS_ID]
            assign = np.zeros(len(vocab), dtype=np.int32)
            for pos, w in enumerate(support):
                assign[w] = pos % num_classes
            classing = WordClassing(assign, num_classes)
    elif regime == REGIME_TREE:
        weights = support_counts(vocab)
        tree = huffman_tree({w: int(c) for w, c in enumerate(weights) if c > 0})
    cfg = ModelConfig(order=order, dim=dim, regime=regime, diagonal=diagonal,
                      vocab_size=len(vocab), classing=classing, tree=tree)
    cfg.validate()
    return cfg


def make_params(vocab, regime=REGIME_STANDARD, order=3, dim=5, diagonal=True,
                seed=0, dtype=np.float64, scale=0.5, num_classes=2,
                class_of=None):
    """Random dense parameters (no structure in the values, just finite);
    the output layer's unused rows of S and t, which are not parameters,
    stay 0."""
    cfg = make_config(vocab, regime, order, dim, diagonal, num_classes, class_of)
    params = init_parameters(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1000)
    for _, arr in params.arrays():
        arr[...] = rng.normal(0.0, scale, size=arr.shape).astype(dtype)
    unused = cfg.layout().unused_rows
    params.S[unused] = 0
    params.t[unused] = 0
    return params


def zero_params(vocab, regime=REGIME_STANDARD, order=3, dim=5, diagonal=True,
                num_classes=2, class_of=None, dtype=np.float64):
    cfg = make_config(vocab, regime, order, dim, diagonal, num_classes, class_of)
    params = init_parameters(cfg, seed=0, dtype=dtype)
    for _, arr in params.arrays():
        arr[...] = 0.0
    return params


def enumerate_log_probs(params, context):
    """Distribution oracle: plain-Python softmax chains, no library reuse."""
    cfg = params.config
    V = cfg.vocab_size
    p = relu_project(params, context)
    phi = [float(np.dot(params.R[w].astype(np.float64), p) + float(params.b[w]))
           for w in range(V)]
    out = [0.0] * V
    if cfg.regime == REGIME_STANDARD:
        sup = [w for w in range(V) if w != BOS_ID]
        z = _logsum([phi[w] for w in sup])
        for w in sup:
            out[w] = math.exp(phi[w] - z)
    elif cfg.regime == REGIME_CLASS:
        classing = cfg.classing
        psi = [float(np.dot(params.S[c].astype(np.float64), p) + float(params.t[c]))
               for c in range(classing.num_classes)]
        live = [c for c in range(classing.num_classes)
                if any(w != BOS_ID for w in classing.members[c])]
        zc = _logsum([psi[c] for c in live])
        for c in live:
            mem = [w for w in classing.members[c] if w != BOS_ID]
            zw = _logsum([phi[w] for w in mem])
            for w in mem:
                out[w] = math.exp(psi[c] - zc) * math.exp(phi[w] - zw)
    else:
        tree = cfg.tree

        def node_score(nid):
            return float(np.dot(params.S[nid].astype(np.float64), p) + float(params.t[nid]))

        def walk(nid, logp):
            word = int(tree.leaf_word[nid])
            if word >= 0:
                out[word] = math.exp(logp)
                return
            lo, hi = int(tree.left[nid]), int(tree.right[nid])
            sl, sr = node_score(lo), node_score(hi)
            z = _logsum([sl, sr])
            walk(lo, logp + sl - z)
            walk(hi, logp + sr - z)

        walk(tree.root, 0.0)
    return np.array(out)


def relu_project(params, context):
    cfg = params.config
    D = cfg.dim
    acc = np.zeros(D)
    for j, h in enumerate(context):
        q = params.Q[h].astype(np.float64)
        if cfg.diagonal:
            acc += params.C[j].astype(np.float64) * q
        else:
            acc += params.C[j].astype(np.float64) @ q
    return np.maximum(acc, 0.0)


def _logsum(xs):
    m = max(xs)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(x - m) for x in xs))


def flatten_params(params):
    return np.concatenate([a.ravel() for _, a in params.arrays()])


def set_flat(params, vec):
    pos = 0
    for _, a in params.arrays():
        n = a.size
        a[...] = np.asarray(vec[pos:pos + n]).reshape(a.shape)
        pos += n
    assert pos == len(vec)


def numeric_gradient(fn, params, step=1e-5):
    """Central finite differences of a scalar objective over all parameters."""
    base = flatten_params(params).copy()
    grad = np.zeros_like(base)
    for i in range(len(base)):
        for sign in (1.0, -1.0):
            probe = base.copy()
            probe[i] += sign * step
            set_flat(params, probe)
            grad[i] += sign * fn(params)
        grad[i] /= 2.0 * step
    set_flat(params, base)
    return grad


@functools.lru_cache(maxsize=None)
def min_wpl(weights):
    """Smallest weighted path length over all strict binary trees (exact).

    Recursive bipartition search; fixing the first element on one side
    halves the work. ``weights`` must be a sorted tuple so the cache hits.
    """
    if len(weights) == 1:
        return 0
    items = list(weights)
    rest = items[1:]
    total = sum(items)
    best = math.inf
    for mask in range(2 ** len(rest)):
        side_a = [items[0]]
        side_b = []
        for i, w in enumerate(rest):
            (side_a if mask >> i & 1 else side_b).append(w)
        if not side_b:
            continue
        val = (min_wpl(tuple(sorted(side_a)))
               + min_wpl(tuple(sorted(side_b))) + total)
        best = min(best, val)
    return best


def caterpillar(words):
    """(parent, left, right, leaf_word) of the deepest strict binary tree
    over ``words``: leaves 0..L-1, and internal node L + i joins the node
    before it with leaf i + 1, so the first two leaves sit at depth L - 1."""
    L = len(words)
    n = 2 * L - 1
    parent, left, right = (np.full(n, -1, dtype=np.int32) for _ in range(3))
    leaf_word = np.full(n, -1, dtype=np.int32)
    leaf_word[:L] = words
    for i in range(L - 1):
        node, below = L + i, (0 if i == 0 else L + i - 1)
        left[node], right[node] = below, i + 1
        parent[[below, i + 1]] = node
    return parent, left, right, leaf_word


def assert_depths_walk_up(tree):
    """``tree.node_depth`` and ``tree.leaf_of`` against a walk up the parent
    links from every node, one node at a time, and a dict of the leaves."""
    for node in range(tree.num_nodes):
        steps, up = 0, node
        while tree.parent[up] >= 0:
            up, steps = int(tree.parent[up]), steps + 1
        assert up == tree.root and tree.node_depth[node] == steps
    leaf = {int(w): node for node, w in enumerate(tree.leaf_word) if w >= 0}
    assert tree.leaf_of.tolist() == [leaf.get(w, -1) for w in range(len(tree.leaf_of))]
