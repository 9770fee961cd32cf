"""Plain-numpy reference results that do not call the code under test.

They read only the parameter arrays and the partition or tree arrays of a
model, and follow the definitions in the snlm docstrings: ids 0, 1, 2 are
``<unk>``, ``<s>``, ``</s>``; contexts are the n-1 preceding ids, most recent
first, padded with ``<s>``; ``<s>`` is never predicted.
"""

from __future__ import annotations

import numpy as np

UNK, BOS, EOS = 0, 1, 2


def instances(sentences, tokens, n):
    """(contexts, targets) int arrays for sentences under a token list."""
    index = {tok: i for i, tok in enumerate(tokens)}
    ctx, tgt = [], []
    for sent in sentences:
        ids = [index.get(t, UNK) for t in sent] + [EOS]
        padded = [BOS] * (n - 1) + ids
        for i, target in enumerate(ids):
            ctx.append(padded[i:i + n - 1][::-1])
            tgt.append(target)
    return np.array(ctx, dtype=np.int64).reshape(-1, n - 1), np.array(tgt, dtype=np.int64)


def _projection(params, contexts):
    Q = params.Q.astype(np.float64)
    acc = np.zeros((len(contexts), Q.shape[1]))
    for j, Cj in enumerate(params.C):
        q = Q[contexts[:, j]]
        acc += q * Cj if Cj.ndim == 1 else q @ Cj.T.astype(np.float64)
    return np.maximum(acc, 0.0)


def _lse(x, axis=-1):
    m = np.max(x, axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def raw_scores(params, contexts, targets):
    """phi(w, h) = r_w . p + b_w for each instance."""
    P = _projection(params, contexts)
    R = params.R.astype(np.float64)
    return np.einsum("md,md->m", R[targets], P) + params.b[targets].astype(np.float64)


def log_probs(params, contexts, targets):
    """log P(target | context) for each instance under the model's regime."""
    P = _projection(params, contexts)
    R, b = params.R.astype(np.float64), params.b.astype(np.float64)
    cfg = params.config
    if cfg.classing is None and cfg.tree is None:
        scores = P @ R.T + b
        scores[:, BOS] = -np.inf
        return scores[np.arange(len(targets)), targets] - _lse(scores)

    S, t = params.S.astype(np.float64), params.t.astype(np.float64)
    if cfg.classing is not None:
        class_of = np.asarray(cfg.classing.class_of)
        K = int(class_of.max()) + 1
        members = [np.nonzero((class_of == c) & (np.arange(len(class_of)) != BOS))[0]
                   for c in range(K)]
        psi = P @ S.T + t
        psi[:, [len(m) == 0 for m in members]] = -np.inf
        cls = class_of[targets]
        out = psi[np.arange(len(targets)), cls] - _lse(psi)
        for c in np.unique(cls):
            rows = np.nonzero(cls == c)[0]
            mem = members[c]
            word = P[rows] @ R[mem].T + b[mem]
            pos = np.searchsorted(mem, targets[rows])
            out[rows] += word[np.arange(len(rows)), pos] - _lse(word)
        return out

    tree = cfg.tree
    parent, left, right = (np.asarray(a) for a in (tree.parent, tree.left, tree.right))
    leaf_of = {int(w): i for i, w in enumerate(np.asarray(tree.leaf_word)) if w >= 0}
    out = np.empty(len(targets))
    for i, w in enumerate(targets):
        node, total = leaf_of[int(w)], 0.0
        while parent[node] >= 0:
            par = parent[node]
            sib = right[par] if left[par] == node else left[par]
            on = S[node] @ P[i] + t[node]
            off = S[sib] @ P[i] + t[sib]
            total += on - np.logaddexp(on, off)
            node = par
        out[i] = total
    return out


def _xlogx(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)


def class_bigram_objective(sentences, tokens, class_of):
    """F = sum N(c,c') ln N(c,c') - sum N_l(c) ln N_l(c) - sum N_gen(c) ln N_gen(c)."""
    index = {tok: i for i, tok in enumerate(tokens)}
    class_of = np.asarray(class_of, dtype=np.int64)
    K = int(class_of.max()) + 1
    a_ids, b_ids = [], []
    for sent in sentences:
        ids = [BOS] + [index.get(t, UNK) for t in sent] + [EOS]
        a_ids += ids[:-1]
        b_ids += ids[1:]
    a, b = class_of[a_ids], class_of[b_ids]
    T = np.bincount(a * K + b, minlength=K * K).reshape(K, K)
    gen = np.bincount(b, minlength=K)
    return float(_xlogx(T).sum() - _xlogx(T.sum(axis=1)).sum() - _xlogx(gen).sum())


def initial_exchange_classes(sentences, tokens, num_classes):
    """The documented start of ``brown_clustering`` over all word ids.

    The ``num_classes`` words generated most often (ties by id) get singleton
    classes; the word of frequency rank r joins class r mod num_classes.
    """
    index = {tok: i for i, tok in enumerate(tokens)}
    gen = np.zeros(len(tokens), dtype=np.int64)
    for sent in sentences:
        for tok in sent:
            gen[index.get(tok, UNK)] += 1
        gen[EOS] += 1
    ranked = np.lexsort((np.arange(len(tokens)), -gen))
    class_of = np.empty(len(tokens), dtype=np.int64)
    class_of[ranked] = np.arange(len(tokens)) % num_classes
    return class_of
