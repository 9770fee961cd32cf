"""From raw sentences to training instances.

Builds a vocabulary over a toy corpus, shows how rare words fold into the
unknown token, and extracts the fixed-width n-gram windows the models
train on (most recent context word first, sentence framed by markers).
"""
import numpy as np

from snlm import (BOS_ID, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, build_vocabulary,
                  instance_arrays, unigram_distribution)

sentences = [
    "the cat sat on the mat".split(),
    "the dog sat on the log".split(),
    "the cat saw the dog".split(),
    "a cat and a dog".split(),
]

vocab = build_vocabulary(sentences, min_count=2)
print(f"{len(vocab)} entries ({len(vocab) - 3} content words)")
for i in range(len(vocab)):
    print(f"  id {i:2d}  {vocab.token_of(i):6s} count {vocab.counts[i]}")

print()
print("words below min_count fold into", UNK_TOKEN)
print("  'saw' ->", vocab.token_of(vocab.lookup("saw")))

# trigram windows for one sentence; contexts pad with the start marker
print()
print(f"trigram instances for {sentences[2]!r}")
print(f"  (sentence is framed as {BOS_TOKEN} ... {EOS_TOKEN})")
for context, target in zip(*instance_arrays([sentences[2]], vocab, n=3)):
    ctx = ", ".join(vocab.token_of(h) for h in context)
    print(f"  target {vocab.token_of(target):6s}  context [{ctx}]")

contexts, targets = instance_arrays(sentences, vocab, n=3)
print()
print(f"full corpus: {len(targets)} instances, context array {contexts.shape}")

unigram = unigram_distribution(vocab)
print()
print("unigram over the prediction support (start marker excluded):")
for i in np.argsort(-unigram)[:4]:
    print(f"  {vocab.token_of(int(i)):6s} {unigram[i]:.3f}")
assert unigram[BOS_ID] == 0.0
