"""Spans around snlm's public functions, recorded from outside the package.

Each traced function is replaced, for the length of a ``Tracer`` block, by a
wrapper that records a span (name, start, end, parent). The wrapper is put in
every ``snlm`` namespace that holds the function, so a call made through any
import path (``snlm.model.project_batch`` as well as the copy imported into
``snlm.training``) is seen. Methods are wrapped on their class.

A function that the package no longer defines is reported as absent; its
metrics read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (layer module, qualified name) of every traced function.
TRACED = (
    ("training", "train"),
    ("training", "Gradients.zeros_like"),
    ("training", "Gradients.add_l2"),
    ("training", "Gradients.all_finite"),
    ("training", "Gradients.apply_to"),
    ("training", "nce_gradient_class_factored"),
    ("training", "ml_gradient"),
    ("training", "nce_gradient"),
    ("training", "NoiseSampler.sample"),
    ("training", "ClassNoiseSampler.sample_words"),
    ("training", "ClassNoiseSampler.sample_classes"),
    ("model", "init_parameters"),
    ("model", "project_batch"),
    ("model", "log_probs_batch"),
    ("model", "project_context"),
    ("model", "log_prob"),
    ("model", "unnormalised_log_score"),
    ("evaluation", "perplexity"),
    ("evaluation", "perplexity_from_instances"),
    ("evaluation", "score_nbest"),
    ("evaluation", "score_sentence"),
    ("corpus", "build_vocabulary"),
    ("corpus", "instance_arrays"),
    ("corpus", "extract_instances"),
    ("partitioning", "frequency_binning"),
    ("partitioning", "huffman_tree"),
    ("partitioning", "brown_clustering"),
    ("modelfile", "save_model"),
    ("modelfile", "load_model"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)


def _snlm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "snlm" or name.startswith("snlm."))]


class Tracer:
    """Context manager that wraps every function in ``TRACED``.

    Spans are kept in flat arrays while the block runs; ``summary`` turns
    them into per-function call counts and self times, where a span's self
    time is its duration minus the durations of its direct children.
    """

    def __init__(self):
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.absent = []
        self.wall_s = 0.0
        self._stack = []
        self._undo = []

    def __enter__(self):
        self.absent = [SPAN_NAMES[idx] for idx, (mod, qual) in enumerate(TRACED)
                       if not self._patch(idx, mod, qual)]
        self._tick = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s += time.perf_counter() - self._tick
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _patch(self, idx, mod, qual) -> bool:
        module = sys.modules.get(f"snlm.{mod}")
        if module is None:
            return False
        *owner_path, attr = qual.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if owner_path:  # a method: wrap it once, on its class
            raw = owner.__dict__.get(attr)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(idx, raw.__func__))
            else:
                wrapped = self._wrap(idx, raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return True
        original = module.__dict__.get(attr)
        if original is None:
            return False
        wrapped = self._wrap(idx, original)
        for ns in _snlm_modules():
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, name, original))
                    setattr(ns, name, wrapped)
        return True

    def _wrap(self, idx, fn):
        names, starts, ends, parents = self.name_idx, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        return traced

    def summary(self) -> dict:
        """{span name: (calls, self seconds)} for every name in ``TRACED``."""
        names = np.frombuffer(self.name_idx, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(names, minlength=len(TRACED))
        self_total = np.bincount(names, weights=self_s, minlength=len(TRACED))
        return {SPAN_NAMES[i]: (int(calls[i]), float(self_total[i]))
                for i in range(len(TRACED))}

    def write(self, path) -> None:
        """One ``name<TAB>start<TAB>end<TAB>parent`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.name_idx)):
                fh.write(f"{SPAN_NAMES[self.name_idx[i]]}\t{self.start[i]:.9f}"
                         f"\t{self.end[i]:.9f}\t{self.parent[i]}\n")
