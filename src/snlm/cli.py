"""Command-line interface.

Subcommands: ``vocab``, ``classes``, ``train``, ``ppl``, ``score``, ``info``,
``bench``. Exit codes: 0 success, 1 usage error, 2 data or model error, or
an array too large to allocate.
Every subcommand is deterministic given identical inputs and ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .corpus import (EOS_ID, Vocabulary, build_vocabulary, instance_arrays,
                     read_lines, read_sentences, unigram_from_counts)
from .errors import SnlmError
from .evaluation import (memory_estimate, perplexity, query_benchmark,
                         score_nbest)
from .model import (OUTPUT_LAYERS, REGIME_CLASS, REGIME_STANDARD, REGIME_TREE,
                    TreeLayer, starting_parameters)
from .modelfile import load_model, save_model
from .partitioning import (brown_clustering, class_bigram_objective,
                           default_num_classes, frequency_binning)
from .training import TrainingConfig, train

_REGIME_NAMES = {"standard": REGIME_STANDARD, "class": REGIME_CLASS,
                 "tree": REGIME_TREE}

# the TrainingConfig field each ``train`` flag sets
_TRAINING_FLAGS = {"algorithm": "--algorithm", "learning_rate": "--lr",
                   "minibatch_size": "--batch", "epochs": "--epochs",
                   "l2_strength": "--l2", "noise_samples": "--k",
                   "rng_seed": "--seed", "validation_fraction": "--valid-fraction"}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="snlm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("vocab", help="count tokens and write a vocabulary file")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("classes", help="build a word partition or tree")
    p.add_argument("--vocab", required=True)
    p.add_argument("--method", choices=("binning", "brown", "huffman"),
                   default="binning")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--num-classes", type=int, default=None,
                   help="default: ceil(sqrt(|V|))")
    p.add_argument("--corpus", help="required for brown; refines binning and huffman counts")
    p.add_argument("--max-iterations", type=int, default=20)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("corpus")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--vocab", help="vocabulary file (default: build from corpus)")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--dim", type=int, default=500)
    p.add_argument("--regime", choices=sorted(_REGIME_NAMES), default="class")
    p.add_argument("--diagonal", type=_bool_flag, default=True,
                   metavar="{true,false}")
    p.add_argument("--algorithm", choices=("nce", "ml_sgd"), default="nce")
    p.add_argument("--k", type=int, default=10, help="NCE noise samples")
    p.add_argument("--classes-file")
    p.add_argument("--tree-file")
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--l2", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--valid-fraction", type=float, default=0.05)
    p.add_argument("--log-file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ppl", help="corpus perplexity")
    p.add_argument("model")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("score", help="rescore an n-best list")
    p.add_argument("model")
    p.add_argument("nbest", help="lines 'sent_id ||| hypothesis ||| ...'")
    p.add_argument("--unnormalised", action="store_true",
                   help="sum raw scores instead of log-probabilities "
                        "(standard and class models)")
    p.add_argument("-o", "--output", help="default: stdout")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("info", help="describe a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bench", help="query-cost benchmark")
    p.add_argument("model")
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return parser


def _check_output(flag, path) -> None:
    """Refuse, before any input is read, an output ``path`` (None: not
    given) that names no file or whose directory does not exist, so that a
    bad path costs no work; ``flag`` names it in the message."""
    if path is None:
        return
    if os.path.isdir(path) or not os.path.basename(path):
        raise SnlmError(f"{flag} {path!r} does not name a file")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise SnlmError(f"{flag} {path!r}: its directory does not exist")


def cmd_vocab(args) -> int:
    _check_output("-o/--output", args.output)
    vocab = build_vocabulary(args.corpus, min_count=args.min_count,
                             max_size=args.max_size)
    vocab.save(args.output)
    print(f"{len(vocab)} entries ({len(vocab) - 3} words) -> {args.output}")
    return 0


def cmd_classes(args) -> int:
    _check_output("-o/--output", args.output)
    vocab = Vocabulary.load(args.vocab)
    K = args.num_classes
    if K is None:
        K = default_num_classes(len(vocab))

    # the target counts snlm train partitions by, where </s> ends each sentence
    counts = vocab.counts.copy()
    if args.corpus and args.method != "brown":
        counts[EOS_ID] = sum(1 for _ in read_sentences(args.corpus))

    if args.method == "huffman":
        tree = TreeLayer.default_structure(counts)["tree"]
        tree.save(args.output, vocab)
        print(f"huffman tree: {tree.num_leaves} leaves, "
              f"max depth {tree.max_depth} -> {args.output}")
        return 0

    if args.method == "brown":
        if not args.corpus:
            raise SnlmError("brown clustering needs --corpus")
        sentences = list(read_sentences(args.corpus))
        classing = brown_clustering(sentences, vocab, K,
                                    max_iterations=args.max_iterations)
    else:
        classing = frequency_binning(unigram_from_counts(counts), K)
    classing.save(args.output, vocab)
    print(f"{classing.num_classes} classes over {len(vocab)} words -> {args.output}")
    if args.method == "brown":
        objective = class_bigram_objective(sentences, vocab, classing)
        print(f"class-bigram objective {objective:.6f} nats")
    return 0


def cmd_train(args) -> int:
    tconf = TrainingConfig(**{field: getattr(args, flag[2:].replace("-", "_"))
                              for field, flag in _TRAINING_FLAGS.items()})
    tconf.validate(_TRAINING_FLAGS)  # before any work, so a bad flag costs nothing
    for flag, value, least in (("--order", args.order, 2), ("--dim", args.dim, 1)):
        if value < least:
            raise SnlmError(f"{flag} must be >= {least}, got {value}")
    regime = _REGIME_NAMES[args.regime]
    layer = OUTPUT_LAYERS[regime]
    if tconf.algorithm == "nce":
        layer.require_word_rows("NCE", "; train it with --algorithm ml_sgd")
    for flag, field in (("--classes-file", "classing"), ("--tree-file", "tree")):
        if getattr(args, flag[2:].replace("-", "_")) and field != layer.structure:
            raise SnlmError(f"{flag} does not apply to --regime {args.regime}")
    _check_output("--model", args.model)
    _check_output("--log-file", args.log_file)

    sentences = list(read_sentences(args.corpus))
    if args.vocab:
        vocab = Vocabulary.load(args.vocab)
    else:
        vocab = build_vocabulary(sentences, min_count=args.min_count,
                                 max_size=args.max_size)
    contexts, targets = instance_arrays(sentences, vocab, args.order)
    del sentences  # training holds the model and the instance arrays, not the corpus
    path = args.classes_file or args.tree_file  # at most one, checked above to fit the layer
    params = starting_parameters(targets, len(vocab), args.order, args.dim, regime, args.diagonal,
                                 args.seed, layer.load_structure(path, vocab) if path else None)

    print(f"{len(targets)} instances, |V|={len(vocab)}, regime={args.regime}, "
          f"algorithm={args.algorithm}")
    print("epoch\ttrain_ppl\tvalid_ppl\tlr\tseconds")
    result = train(params, contexts, targets, tconf, log_file=args.log_file)
    for ep in result.epochs:
        print(f"{ep.epoch}\t{ep.train_ppl:.3f}\t{ep.valid_ppl:.3f}"
              f"\t{ep.learning_rate:.6g}\t{ep.seconds:.2f}")

    sizes = save_model(args.model, params, vocab)
    total = sum(sizes.values())
    print(f"saved {args.model}: {total} bytes "
          f"({sizes['payload']} parameter payload)")
    return 0


def cmd_ppl(args) -> int:
    tick = time.perf_counter()
    params, vocab = load_model(args.model)
    load_seconds = time.perf_counter() - tick
    sentences = list(read_sentences(args.corpus))
    report = perplexity(params, sentences, vocab)
    print(f"tokens\t{report.token_count}")
    print(f"oov\t{report.oov_count}")
    print(f"log_prob\t{report.total_log_prob:.4f}")
    print(f"perplexity\t{report.perplexity:.4f}")
    print(f"queries_per_sec\t{report.queries_per_second:.0f}")
    print(f"macs_per_query\t{report.macs_per_query:.0f}")
    print(f"ns_per_mac\t{1e9 / (report.queries_per_second * report.macs_per_query):.4f}")
    print(f"load_seconds\t{load_seconds:.6f}")
    return 0


def cmd_score(args) -> int:
    _check_output("-o/--output", args.output)
    params, vocab = load_model(args.model)
    lines = (line for _, line in read_lines(args.nbest))
    entries, errors = score_nbest(params, lines, vocab, unnormalised=args.unnormalised)
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for e in entries:
            fields = [e.sent_id, e.hypothesis]
            if e.rest:
                fields.append(e.rest)
            fields.append(f"{e.score:.6f}")
            out.write(" ||| ".join(fields) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    for line_no, reason in errors:
        print(f"warning: line {line_no}: {reason}", file=sys.stderr)
    if errors and not entries:
        raise SnlmError("no scorable hypotheses in the n-best list")
    return 0


def cmd_info(args) -> int:
    params, vocab = load_model(args.model)
    cfg = params.config
    est = memory_estimate(cfg, vocab)
    for field in ("order", "dim", "regime", "diagonal", "vocab_size"):
        print(f"{field}\t{getattr(cfg, field)}")
    if cfg.classing is not None:
        print(f"classes\t{cfg.classing.num_classes}")
    if cfg.tree is not None:
        print(f"tree_nodes\t{cfg.tree.num_nodes}")
        print(f"tree_depth_max\t{cfg.tree.max_depth}")
    for field in ("embedding_params", "bias_params", "context_params", "structure_params",
                  "parameter_count", "payload_bytes"):
        print(f"{field}\t{getattr(est, field)}")
    print(f"payload_megabytes\t{est.megabytes:.2f}")
    print(f"file_bytes\t{os.path.getsize(args.model)}")
    return 0


def cmd_bench(args) -> int:
    for flag, value, least in (("--queries", args.queries, 1), ("--seed", args.seed, 0)):
        if value < least:
            raise SnlmError(f"{flag} must be >= {least}, got {value}")
    params, vocab = load_model(args.model)
    rng = np.random.default_rng(args.seed)
    contexts = rng.choice(params.config.layout().support,
                          size=(args.queries, params.config.context_size))
    report = query_benchmark(params, contexts)
    print(f"queries\t{report.queries}")
    print(f"macs_per_query\t{report.macs_per_query:.0f}")
    print(f"macs_per_query_unnorm\t{report.macs_per_query_unnormalised:.0f}")
    print(f"queries_per_sec\t{report.queries_per_second:.0f}")
    print(f"queries_per_sec_unnorm\t{report.queries_per_second_unnormalised:.0f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SnlmError, OSError, MemoryError) as exc:  # numpy names the size it could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
