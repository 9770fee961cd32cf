"""End-to-end checks of the command-line interface."""
import math
import weakref

import numpy as np
import pytest

from snlm import cli
from snlm.cli import build_parser, main
from snlm.corpus import BOS_ID, Vocabulary, build_vocabulary, instance_arrays, read_sentences
from snlm.evaluation import perplexity
from snlm.model import OUTPUT_LAYERS, starting_parameters
from snlm.modelfile import load_model, save_model
from snlm.partitioning import (MAX_TREE_DEPTH, VocabularyTree, WordClassing, huffman_tree,
                               class_bigram_objective)
from snlm.synthetic import markov_corpus
from snlm.training import TrainingConfig, train

from conftest import caterpillar


@pytest.fixture
def corpus(tmp_path):
    rng = np.random.default_rng(20)
    words = ["red", "green", "blue", "cat", "dog", "bird", "runs", "sits"]
    lines = []
    for _ in range(120):
        n = rng.integers(2, 7)
        lines.append(" ".join(rng.choice(words, size=n)))
    path = tmp_path / "train.txt"
    path.write_text("\n".join(lines) + "\n")
    heldout = tmp_path / "heldout.txt"
    heldout.write_text("\n".join(lines[:20]) + "\n")
    return path, heldout


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserDefaults:
    def test_training_defaults(self):
        args = build_parser().parse_args(["train", "c.txt", "--model", "m.bin"])
        assert args.order == 5
        assert args.dim == 500
        assert args.regime == "class"
        assert args.algorithm == "nce"
        assert args.k == 10
        assert args.diagonal is True
        assert args.lr == 0.1
        assert args.batch == 64
        assert args.epochs == 10
        assert args.l2 == 1e-5

    def test_train_takes_no_threads_flag(self, capsys):
        assert main(["train", "c.txt", "--model", "m.bin", "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_ppl_takes_no_threads_flag(self, capsys):
        assert main(["ppl", "m.bin", "c.txt", "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_diagonal_flag_parses_booleans(self):
        parser = build_parser()
        on = parser.parse_args(["train", "c", "--model", "m",
                                "--diagonal", "true"])
        off = parser.parse_args(["train", "c", "--model", "m",
                                 "--diagonal", "false"])
        assert on.diagonal is True and off.diagonal is False


class TestVocabCommand:
    def test_builds_and_saves(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a a b\nb a c\n")
        out = tmp_path / "vocab.tsv"
        code, stdout, _ = run(capsys, "vocab", corpus, "-o", out)
        assert code == 0
        vocab = Vocabulary.load(out)
        assert vocab.id_of("a") == 3  # most frequent word first
        assert vocab.counts[vocab.id_of("a")] == 3
        assert "6 entries (3 words)" in stdout

    def test_min_count(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a a b\n")
        out = tmp_path / "vocab.tsv"
        code, _, _ = run(capsys, "vocab", corpus, "-o", out, "--min-count", "2")
        assert code == 0
        vocab = Vocabulary.load(out)
        assert "b" not in vocab


class TestClassesCommand:
    def test_binning(self, tmp_path, capsys, corpus):
        train, _ = corpus
        vocab_path = tmp_path / "vocab.tsv"
        run(capsys, "vocab", train, "-o", vocab_path)
        out = tmp_path / "classes.tsv"
        code, stdout, _ = run(capsys, "classes", "--vocab", vocab_path,
                              "--method", "binning", "--num-classes", "3",
                              "-o", out)
        assert code == 0 and "3 classes" in stdout
        classing = WordClassing.load(out, Vocabulary.load(vocab_path))
        assert classing.num_classes == 3

    def test_huffman(self, tmp_path, capsys, corpus):
        train, _ = corpus
        vocab_path = tmp_path / "vocab.tsv"
        run(capsys, "vocab", train, "-o", vocab_path)
        out = tmp_path / "tree.txt"
        code, stdout, _ = run(capsys, "classes", "--vocab", vocab_path,
                              "--method", "huffman", "--corpus", train,
                              "-o", out)
        assert code == 0 and "huffman tree" in stdout
        vocab = Vocabulary.load(vocab_path)
        tree = VocabularyTree.load(out, vocab)
        assert tree.num_leaves == len(vocab) - 1

    @pytest.mark.parametrize("method", ["binning", "huffman"])
    def test_with_corpus_matches_train_default(self, tmp_path, capsys, method):
        """Given the corpus, classes builds the partition train builds for it."""
        argv = {"binning": ["--regime", "class"],
                "huffman": ["--regime", "tree", "--algorithm", "ml_sgd"]}[method]
        text = tmp_path / "markov.txt"
        text.write_text("".join(" ".join(s) + "\n" for s in
                                markov_corpus(3000, vocab_size=60, branching=5, seed=3)))
        vocab_path, out, model = (tmp_path / f for f in ("vocab.tsv", "out", "m.bin"))
        assert run(capsys, "vocab", text, "-o", vocab_path)[0] == 0
        assert run(capsys, "classes", "--vocab", vocab_path, "--method", method,
                   "--corpus", text, "-o", out)[0] == 0
        assert run(capsys, "train", text, "--model", model, "--vocab", vocab_path,
                   "--order", "2", "--dim", "2", "--epochs", "0", *argv)[0] == 0
        vocab, cfg = Vocabulary.load(vocab_path), load_model(model)[0].config
        if method == "binning":
            got, want = WordClassing.load(out, vocab), cfg.classing
            np.testing.assert_array_equal(got.class_of, want.class_of)
        else:
            got, want = VocabularyTree.load(out, vocab), cfg.tree
            for name in ("parent", "left", "right", "leaf_word"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_brown_requires_corpus(self, tmp_path, capsys, corpus):
        train, _ = corpus
        vocab_path = tmp_path / "vocab.tsv"
        run(capsys, "vocab", train, "-o", vocab_path)
        code, _, stderr = run(capsys, "classes", "--vocab", vocab_path,
                              "--method", "brown", "-o", tmp_path / "x")
        assert code == 2
        assert "brown clustering needs --corpus" in stderr

    def test_brown_on_a_corpus_of_blank_lines_exits_2(self, tmp_path, capsys, corpus):
        train, _ = corpus
        vocab_path, blank = tmp_path / "vocab.tsv", tmp_path / "blank.txt"
        run(capsys, "vocab", train, "-o", vocab_path)
        blank.write_text("\n  \n")
        code, _, stderr = run(capsys, "classes", "--vocab", vocab_path, "--method", "brown",
                              "--corpus", blank, "-o", tmp_path / "x")
        assert code == 2
        assert "empty corpus" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "x").exists()

    def test_brown(self, tmp_path, capsys, corpus):
        train, _ = corpus
        vocab_path = tmp_path / "vocab.tsv"
        run(capsys, "vocab", train, "-o", vocab_path)
        out = tmp_path / "classes.tsv"
        code, stdout, stderr = run(capsys, "classes", "--vocab", vocab_path,
                                   "--method", "brown", "--corpus", train,
                                   "--num-classes", "3", "-o", out)
        assert code == 0, stderr
        summary, objective = stdout.splitlines()[-2:]
        assert "3 classes" in summary
        vocab = Vocabulary.load(vocab_path)
        classing = WordClassing.load(out, vocab)
        assert classing.num_classes == 3
        assert all(len(m) > 0 for m in classing.members)
        want = class_bigram_objective(list(read_sentences(train)), vocab, classing)
        assert objective.startswith("class-bigram objective ") and objective.endswith(" nats")
        assert float(objective.split()[2]) == pytest.approx(want, rel=1e-6)


class TestBadPartitionFiles:
    """A corrupt --classes-file or --tree-file exits 2 naming its line."""

    def train_with(self, tmp_path, capsys, corpus, flag, text):
        train, _ = corpus
        path = tmp_path / "partition.txt"
        path.write_text(text)
        regime, algorithm = (("class", "nce") if flag == "--classes-file"
                             else ("tree", "ml_sgd"))
        code, _, stderr = run(capsys, "train", train, "--model", tmp_path / "m.bin",
                              "--regime", regime, "--algorithm", algorithm,
                              "--dim", "4", "--epochs", "1", flag, path)
        return code, stderr, path

    @pytest.mark.parametrize("class_id", ["x", "1.5", "99999999999", "-3"])
    def test_bad_class_id(self, tmp_path, capsys, corpus, class_id):
        code, stderr, path = self.train_with(
            tmp_path, capsys, corpus, "--classes-file", f"cat\t0\ndog\t{class_id}\n")
        assert code == 2
        assert f"{path}:2:" in stderr

    def test_class_id_gap_names_the_file(self, tmp_path, capsys, corpus):
        train, _ = corpus
        tokens = build_vocabulary(read_sentences(train)).tokens
        text = "".join(f"{t}\t{5 if t == 'dog' else 0}\n" for t in tokens)  # ids {0, 5}
        code, stderr, path = self.train_with(tmp_path, capsys, corpus, "--classes-file", text)
        assert code == 2
        assert f"{path}: every class must be non-empty; class 1 has no words" in stderr

    @pytest.mark.parametrize("line", ["1 9 leaf:dog", "1 99999999999 leaf:dog",
                                      "7 2 leaf:dog", "1 -2 leaf:dog"])
    def test_bad_tree_node(self, tmp_path, capsys, corpus, line):
        code, stderr, path = self.train_with(
            tmp_path, capsys, corpus, "--tree-file", f"2 -1\n0 2 leaf:cat\n{line}\n")
        assert code == 2
        assert f"{path}:3:" in stderr

    def test_caterpillar_tree_is_too_deep(self, tmp_path, capsys):
        train = tmp_path / "wide.txt"
        words = [f"w{i}" for i in range(2 * MAX_TREE_DEPTH)]
        train.write_text("\n".join(" ".join(words[i:i + 8])
                                   for i in range(0, len(words), 8)) + "\n")
        tokens = ["<unk>", "</s>"] + words  # every token but <s>
        parent, _, _, leaf_word = caterpillar(range(len(tokens)))
        text = "".join(f"{node} {par}" + (f" leaf:{tokens[w]}" if w >= 0 else "") + "\n"
                       for node, (par, w) in enumerate(zip(parent, leaf_word)))
        code, stderr, path = self.train_with(tmp_path, capsys, (train, None),
                                             "--tree-file", text)
        assert code == 2
        assert str(path) in stderr
        assert f"deeper than {MAX_TREE_DEPTH}" in stderr


class TestTrainAndEvaluate:
    def train_model(self, tmp_path, capsys, corpus, *extra):
        train, _ = corpus
        model = tmp_path / "model.bin"
        code, stdout, stderr = run(
            capsys, "train", train, "--model", model, "--order", "3",
            "--dim", "8", "--epochs", "3", "--batch", "32", "--seed", "7",
            *extra)
        assert code == 0, stderr
        return model, stdout

    def test_train_writes_a_loadable_model(self, tmp_path, capsys, corpus):
        model, stdout = self.train_model(tmp_path, capsys, corpus)
        params, vocab = load_model(model)
        assert params.config.order == 3
        assert params.config.regime == "class_factored"
        assert "saved" in stdout
        # one table line per epoch
        lines = [l for l in stdout.splitlines()
                 if l.split("\t")[0].isdigit() and "\t" in l]
        assert len(lines) == 3

    def test_ppl_matches_library_evaluation(self, tmp_path, capsys, corpus):
        _, heldout = corpus
        model, _ = self.train_model(tmp_path, capsys, corpus)
        code, stdout, _ = run(capsys, "ppl", model, heldout)
        assert code == 0
        fields = dict(line.split("\t") for line in stdout.strip().splitlines())
        params, vocab = load_model(model)
        import snlm.corpus as corpus_mod
        sentences = list(corpus_mod.read_sentences(heldout))
        want = perplexity(params, sentences, vocab)
        assert float(fields["perplexity"]) == round(want.perplexity, 4)
        assert int(fields["tokens"]) == want.token_count

    def test_ppl_reports_load_seconds_after_its_other_lines(self, tmp_path, capsys,
                                                            corpus):
        _, heldout = corpus
        model, _ = self.train_model(tmp_path, capsys, corpus)
        code, stdout, _ = run(capsys, "ppl", model, heldout)
        assert code == 0
        lines = stdout.splitlines()
        assert [line.split("\t")[0] for line in lines] == [
            "tokens", "oov", "log_prob", "perplexity", "queries_per_sec",
            "macs_per_query", "ns_per_mac", "load_seconds"]
        params, vocab = load_model(model)
        want = perplexity(params, list(read_sentences(heldout)), vocab)
        assert lines[2:4] == [f"log_prob\t{want.total_log_prob:.4f}",
                              f"perplexity\t{want.perplexity:.4f}"]
        qps, macs, ns = (float(line.split("\t")[1]) for line in lines[4:7])
        assert ns == pytest.approx(1e9 / (qps * macs), rel=0.01)
        assert 0 <= float(lines[-1].split("\t")[1]) < 60

    def test_same_seed_reproduces_the_model_file(self, tmp_path, capsys, corpus):
        model_a, _ = self.train_model(tmp_path, capsys, corpus)
        saved = model_a.read_bytes()
        model_b, _ = self.train_model(tmp_path, capsys, corpus)
        assert model_b.read_bytes() == saved

    def test_score_appends_scores(self, tmp_path, capsys, corpus):
        model, _ = self.train_model(tmp_path, capsys, corpus)
        nbest = tmp_path / "nbest.txt"
        nbest.write_text("1 ||| red cat runs ||| tm=0.5\n"
                         "mangled\n"
                         "1 ||| red dog\n")
        out = tmp_path / "scored.txt"
        code, _, stderr = run(capsys, "score", model, nbest, "-o", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        first = lines[0].split(" ||| ")
        assert first[:3] == ["1", "red cat runs", "tm=0.5"]
        float(first[3])
        assert "line 2" in stderr

    def test_unnormalised_scores_differ(self, tmp_path, capsys, corpus):
        model, _ = self.train_model(tmp_path, capsys, corpus)
        nbest = tmp_path / "nbest.txt"
        nbest.write_text("1 ||| red cat\n")
        out_n = tmp_path / "n.txt"
        out_u = tmp_path / "u.txt"
        run(capsys, "score", model, nbest, "-o", out_n)
        run(capsys, "score", model, nbest, "-o", out_u, "--unnormalised")
        norm = float(out_n.read_text().split(" ||| ")[-1])
        raw = float(out_u.read_text().split(" ||| ")[-1])
        assert norm != raw

    def test_unnormalised_score_refuses_a_tree_model(self, tmp_path, capsys, corpus):
        """The tree layer never trains R or b, so a tree model's raw scores
        come from its initial draw: ``score --unnormalised`` exits 2 and
        prints nothing, while normalised scoring of the same model runs."""
        model, _ = self.train_model(tmp_path, capsys, corpus, "--regime", "tree",
                                    "--algorithm", "ml_sgd")
        nbest = tmp_path / "nbest.txt"
        nbest.write_text("1 ||| red cat\n")
        code, stdout, stderr = run(capsys, "score", model, nbest, "--unnormalised")
        assert (code, stdout) == (2, "")
        assert "never trains R" in stderr
        code, stdout, _ = run(capsys, "score", model, nbest)
        assert code == 0 and stdout.startswith("1 ||| red cat ||| ")

    def test_info_reports_consistent_accounting(self, tmp_path, capsys, corpus):
        model, _ = self.train_model(tmp_path, capsys, corpus)
        code, stdout, _ = run(capsys, "info", model)
        assert code == 0
        fields = dict(line.split("\t") for line in stdout.strip().splitlines())
        assert fields["regime"] == "class_factored"
        assert int(fields["payload_bytes"]) == 4 * int(fields["parameter_count"])
        total = (int(fields["embedding_params"]) + int(fields["bias_params"])
                 + int(fields["context_params"]) + int(fields["structure_params"]))
        assert total == int(fields["parameter_count"])

    def test_bench_runs(self, tmp_path, capsys, corpus):
        model, _ = self.train_model(tmp_path, capsys, corpus)
        code, stdout, _ = run(capsys, "bench", model, "--queries", "50")
        assert code == 0
        fields = dict(line.split("\t") for line in stdout.strip().splitlines())
        assert int(fields["queries"]) == 50
        assert float(fields["macs_per_query"]) > float(
            fields["macs_per_query_unnorm"])

    def test_standard_and_tree_regimes_train(self, tmp_path, capsys, corpus):
        for regime, algo in (("standard", "nce"), ("tree", "ml_sgd")):
            model, _ = self.train_model(tmp_path, capsys, corpus,
                                        "--regime", regime,
                                        "--algorithm", algo, "--lr", "0.05")
            params, _ = load_model(model)
            assert params.config.regime.startswith(regime)


class TestTrainMatchesTheLibrary:
    """``snlm train`` writes exactly the model that ``starting_parameters``
    and ``train()`` give for the same instances and settings, with each
    regime's default structure and with one loaded from a structure file."""

    @staticmethod
    def structure_file(path, name, vocab):
        """A structure unlike the default, and its flag: classes by id, a
        balanced tree."""
        if name == "class":
            WordClassing(np.arange(len(vocab)) % 3, 3).save(path, vocab)
            return "--classes-file"
        huffman_tree({w: 1 for w in range(len(vocab)) if w != BOS_ID}).save(path, vocab)
        return "--tree-file"

    @pytest.mark.parametrize("name, algorithm, diagonal, from_file", [
        ("standard", "nce", True, False), ("standard", "ml_sgd", False, False),
        ("class", "nce", True, False), ("class", "ml_sgd", True, True),
        ("tree", "ml_sgd", True, False), ("tree", "ml_sgd", True, True)])
    def test_model_file_is_the_library_model(self, tmp_path, capsys, corpus, name,
                                             algorithm, diagonal, from_file):
        regime = cli._REGIME_NAMES[name]
        sentences = list(read_sentences(corpus[0]))
        vocab = build_vocabulary(sentences)
        contexts, targets = instance_arrays(sentences, vocab, 3)
        argv = ["--regime", name, "--algorithm", algorithm, "--diagonal", str(diagonal).lower()]
        structure = None
        if from_file:
            path = tmp_path / "structure.txt"
            argv += [self.structure_file(path, name, vocab), path]
            structure = OUTPUT_LAYERS[regime].load_structure(path, vocab)
        model = tmp_path / "cli.bin"
        code, _, stderr = run(capsys, "train", corpus[0], "--model", model, "--order", "3",
                              "--dim", "4", "--epochs", "2", "--batch", "16", "--lr", "0.2",
                              "--k", "3", "--seed", "5", *argv)
        assert code == 0, stderr

        params = starting_parameters(targets, len(vocab), 3, 4, regime, diagonal, 5, structure)
        if from_file:  # unlike the default structure, so a file left unread would show
            default = starting_parameters(targets, len(vocab), 3, 4, regime, diagonal, 5)
            assert (default.config.layout().structure_bytes()
                    != params.config.layout().structure_bytes())
        train(params, contexts, targets,
              TrainingConfig(algorithm=algorithm, learning_rate=0.2, minibatch_size=16,
                             epochs=2, noise_samples=3, rng_seed=5))
        save_model(tmp_path / "library.bin", params, vocab)
        assert (tmp_path / "library.bin").read_bytes() == model.read_bytes()


class TestLiteralSentenceStart:
    """A literal <s> in text is read as <unk>; it is never a target."""

    def test_train_ppl_and_score_accept_it(self, tmp_path, capsys, corpus):
        train, heldout = corpus
        marked = tmp_path / "marked.txt"
        marked.write_text(train.read_text() + "red <s> cat\n<s>\n")
        model = tmp_path / "model.bin"
        code, _, stderr = run(capsys, "train", marked, "--model", model,
                              "--order", "3", "--dim", "8", "--epochs", "1",
                              "--seed", "7")
        assert code == 0, stderr
        held = tmp_path / "held.txt"
        held.write_text("<s> dog runs\n" + heldout.read_text())
        code, stdout, stderr = run(capsys, "ppl", model, held)
        assert code == 0, stderr
        fields = dict(line.split("\t") for line in stdout.strip().splitlines())
        assert math.isfinite(float(fields["perplexity"]))
        assert int(fields["oov"]) >= 1
        nbest = tmp_path / "hyps.nbest"
        nbest.write_text("0 ||| <s> cat runs ||| 0\n")
        code, stdout, stderr = run(capsys, "score", model, nbest)
        assert code == 0, stderr
        assert math.isfinite(float(stdout.strip().split(" ||| ")[-1]))

    def test_vocab_and_brown_classes_read_it_as_unk(self, tmp_path, capsys, corpus):
        text = corpus[0].read_text()
        outputs = []
        for name, extra in (("marked", "red <s> cat\n<s>\n"),
                            ("unk", "red <unk> cat\n<unk>\n")):
            path = tmp_path / f"{name}.txt"
            path.write_text(text + extra)
            vocab_path, out = tmp_path / f"{name}.vocab", tmp_path / f"{name}.classes"
            assert run(capsys, "vocab", path, "-o", vocab_path)[0] == 0
            code, _, stderr = run(capsys, "classes", "--vocab", vocab_path,
                                  "--method", "brown", "--corpus", path,
                                  "--num-classes", "3", "-o", out)
            assert code == 0, stderr
            outputs.append((vocab_path.read_text(), out.read_text()))
        assert outputs[0] == outputs[1]


class TestLiteralSentenceEnd:
    """A literal </s> in text is read as <unk>, never as the sentence end."""

    def test_train_ppl_and_score_read_it_as_unk(self, tmp_path, capsys, corpus):
        train, heldout = corpus
        outputs = []
        for marker in ("</s>", "<unk>"):
            text = tmp_path / f"train-{len(outputs)}.txt"
            text.write_text(train.read_text() + f"red {marker} cat\n{marker}\n")
            model = tmp_path / f"model-{len(outputs)}.bin"
            code, _, stderr = run(capsys, "train", text, "--model", model,
                                  "--order", "3", "--dim", "8", "--epochs", "1",
                                  "--seed", "7")
            assert code == 0, stderr
            held = tmp_path / f"held-{len(outputs)}.txt"
            held.write_text(f"{marker} dog runs\n" + heldout.read_text())
            code, ppl, stderr = run(capsys, "ppl", model, held)
            assert code == 0, stderr
            fields = dict(line.split("\t") for line in ppl.strip().splitlines())
            assert math.isfinite(float(fields["perplexity"]))
            assert int(fields["oov"]) >= 1
            del fields["queries_per_sec"], fields["ns_per_mac"], fields["load_seconds"]  # timings
            nbest = tmp_path / f"hyps-{len(outputs)}.nbest"
            nbest.write_text(f"0 ||| cat {marker} runs ||| 0\n1 ||| {marker}\n")
            code, scored, stderr = run(capsys, "score", model, nbest)
            assert code == 0, stderr
            scores = [float(line.split(" ||| ")[-1]) for line in scored.splitlines()]
            assert all(math.isfinite(x) for x in scores)
            outputs.append((model.read_bytes(), fields, scores))
        assert outputs[0] == outputs[1]


class TestUndecodableText:
    """A line that is not UTF-8 exits 2 naming path:line, with no traceback.

    The bad line sits past the start of the file, so a line number counted
    from decoded chunks rather than from the bytes would be wrong.
    """

    BAD = b"red \xff cat\n"

    @pytest.fixture
    def model(self, tmp_path, capsys, corpus):
        model = tmp_path / "model.bin"
        code, _, stderr = run(capsys, "train", corpus[0], "--model", model,
                              "--order", "3", "--dim", "4", "--epochs", "1")
        assert code == 0, stderr
        return model

    def bad_file(self, tmp_path, good, tail=b""):
        path = tmp_path / "bad.txt"
        path.write_bytes(good.encode("utf-8") + self.BAD + tail)
        return path, good.count("\n") + 1

    def check(self, capsys, path, line, *argv):
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert f"{path}:{line}: not UTF-8" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("command", ["vocab", "train", "ppl"])
    def test_corpus(self, tmp_path, capsys, corpus, model, command):
        text = corpus[0].read_text()
        path, line = self.bad_file(tmp_path, text, text.encode("utf-8"))
        argv = {"vocab": ["vocab", path, "-o", tmp_path / "v.tsv"],
                "train": ["train", path, "--model", tmp_path / "m.bin", "--dim", "4"],
                "ppl": ["ppl", model, path]}[command]
        self.check(capsys, path, line, *argv)

    def test_nbest_counts_blank_lines(self, tmp_path, capsys, model):
        path, line = self.bad_file(tmp_path, "1 ||| red cat\n\n\n1 ||| dog\n\n")
        self.check(capsys, path, line, "score", model, path)
        assert line == 6

    def test_classes_vocab(self, tmp_path, capsys):
        path, line = self.bad_file(tmp_path, "<unk>\t0\n<s>\t0\n</s>\t0\nred\t5\n")
        self.check(capsys, path, line, "classes", "--vocab", path,
                   "-o", tmp_path / "c.tsv")

    @pytest.mark.parametrize("flag, good", [("--classes-file", "cat\t0\ndog\t1\n"),
                                            ("--tree-file", "2 -1\n0 2 leaf:cat\n")])
    def test_partition_file(self, tmp_path, capsys, corpus, flag, good):
        path, line = self.bad_file(tmp_path, good)
        regime, algorithm = (("class", "nce") if flag == "--classes-file"
                             else ("tree", "ml_sgd"))
        self.check(capsys, path, line, "train", corpus[0], "--model", tmp_path / "m.bin",
                   "--regime", regime, "--algorithm", algorithm, "--dim", "4",
                   "--epochs", "1", flag, path)


class TestBadCounts:
    """Counts out of range on the command line exit 2 with a message."""

    def check(self, capsys, *argv, message):
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert message in stderr
        assert "Traceback" not in stderr

    def test_bench_negative_queries(self, tmp_path, capsys, corpus):
        model = tmp_path / "model.bin"
        assert run(capsys, "train", corpus[0], "--model", model, "--order", "3",
                   "--dim", "4", "--epochs", "1")[0] == 0
        self.check(capsys, "bench", model, "--queries", "-5",
                   message="--queries must be >= 1")
        self.check(capsys, "bench", model, "--seed", "-1",
                   message="--seed must be >= 0")

    @pytest.mark.parametrize("flag,field", [("--lr", "learning_rate"),
                                            ("--l2", "l2_strength")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_optimizer_settings(self, tmp_path, capsys, corpus, flag,
                                           field, value):
        model = tmp_path / "model.bin"
        self.check(capsys, "train", corpus[0], "--model", model, "--order", "3",
                   "--dim", "4", "--epochs", "1", flag, value, message=field)
        assert not model.exists()

    def test_step_decay_at_or_below_zero(self, tmp_path, capsys, corpus):
        """--lr 1 --l2 5 gives each step a decay of 1 - 5: refused up front,
        naming both flags, before any step runs."""
        model = tmp_path / "model.bin"
        self.check(capsys, "train", corpus[0], "--model", model, "--order", "3",
                   "--dim", "4", "--epochs", "1", "--lr", "1", "--l2", "5",
                   message="learning_rate (--lr) times l2_strength (--l2)")
        assert not model.exists()

    @pytest.mark.parametrize("argv", [["--dim", "100000000000000"],
                                      ["--k", "100000000000000"]])
    def test_sizes_beyond_the_address_space(self, tmp_path, capsys, corpus, argv):
        """A size whose array is larger than a 47-bit address space fails at
        its first allocation, the parameters or the first noise draw, with
        one error line, not a traceback."""
        model = tmp_path / "model.bin"
        code, _, stderr = run(capsys, "train", corpus[0], "--model", model, "--order", "3",
                              "--dim", "4", "--epochs", "1", *argv)
        assert code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert not model.exists()

    def test_bench_queries_beyond_the_address_space(self, tmp_path, capsys, corpus):
        model = tmp_path / "model.bin"
        assert run(capsys, "train", corpus[0], "--model", model, "--order", "3",
                   "--dim", "4", "--epochs", "1")[0] == 0
        code, stdout, stderr = run(capsys, "bench", model, "--queries", "1000000000000000")
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    @pytest.mark.parametrize("argv,flag", [
        (["--regime", "tree"], "--algorithm ml_sgd"),
        (["--batch", "0"], "--batch"),
        (["--epochs", "-1"], "--epochs"),
        (["--k", "-3"], "--k"),
        (["--valid-fraction", "1"], "--valid-fraction"),
        (["--order", "1"], "--order"),
        (["--dim", "0"], "--dim"),
        (["--seed", "-1"], "--seed"),
        (["--regime", "standard", "--tree-file", "t.tree"], "--tree-file"),
        (["--regime", "standard", "--classes-file", "c.cls"], "--classes-file"),
        (["--tree-file", "t.tree"], "--tree-file"),  # under the default, class
        (["--regime", "tree", "--algorithm", "ml_sgd", "--classes-file", "c.cls"],
         "--classes-file"),
        (["--model", "no-such-dir/m.bin"], "--model 'no-such-dir/m.bin'"),
        (["--model", "."], "--model '.'"),
        (["--model", ""], "--model ''"),
        (["--log-file", "no-such-dir/train.log"], "--log-file 'no-such-dir/train.log'"),
        (["--log-file", "."], "--log-file '.'"),
    ])
    def test_training_settings_checked_before_reading(self, tmp_path, capsys,
                                                      flag, argv, monkeypatch):
        def unread(path):
            raise AssertionError(f"read {path} before checking the settings")

        monkeypatch.setattr(cli, "read_sentences", unread)
        monkeypatch.chdir(tmp_path)  # relative paths in argv resolve under tmp_path
        model = tmp_path / "model.bin"
        code, stdout, stderr = run(capsys, "train", tmp_path / "absent.txt",
                                   "--model", model, *argv)
        assert code == 2
        assert stdout == ""
        assert flag in stderr and "Traceback" not in stderr
        assert not model.exists()

    @pytest.mark.parametrize("out", ["no-such-dir/out.txt", "."])
    @pytest.mark.parametrize("argv", [
        ["vocab", "corpus.txt"],
        ["classes", "--vocab", "v.tsv"],
        ["classes", "--vocab", "v.tsv", "--method", "brown", "--corpus", "corpus.txt"],
        ["classes", "--vocab", "v.tsv", "--method", "huffman"],
        ["score", "model.bin", "nbest.txt"],
    ], ids=["vocab", "classes", "classes-brown", "classes-huffman", "score"])
    def test_output_paths_checked_before_reading(self, tmp_path, capsys, monkeypatch,
                                                 argv, out):
        """An ``-o`` path that names no file, or whose directory does not
        exist, is refused with exit 2 before any input is read, as
        ``train`` refuses its ``--model`` and ``--log-file``."""
        def unread(*args, **kwargs):
            raise AssertionError("read an input before checking the output path")

        for name in ("build_vocabulary", "read_sentences", "read_lines", "load_model"):
            monkeypatch.setattr(cli, name, unread)
        monkeypatch.setattr(cli.Vocabulary, "load", unread)
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, *argv, "-o", out)
        assert code == 2
        assert stdout == ""
        assert f"-o/--output {out!r}" in stderr and "Traceback" not in stderr

    def test_train_drops_the_corpus_before_the_model(self, tmp_path, capsys, corpus,
                                                     monkeypatch):
        """``train`` holds the instance arrays, not the sentences: no sentence
        read from the corpus is alive when the parameters are made."""
        class Sentence(list):
            pass

        refs, alive = [], []

        def read(path, _real=cli.read_sentences):
            for tokens in _real(path):
                sentence = Sentence(tokens)
                refs.append(weakref.ref(sentence))
                yield sentence

        def init(*args, _real=cli.starting_parameters, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, "read_sentences", read)
        monkeypatch.setattr(cli, "starting_parameters", init)
        assert run(capsys, "train", corpus[0], "--model", tmp_path / "m.bin", "--order", "3",
                   "--dim", "4", "--epochs", "1")[0] == 0
        assert len(refs) == 120 and alive == [0]

    def test_zero_classes(self, tmp_path, capsys, corpus):
        vocab, out = tmp_path / "vocab.tsv", tmp_path / "classes.tsv"
        assert run(capsys, "vocab", corpus[0], "-o", vocab)[0] == 0
        self.check(capsys, "classes", "--vocab", vocab, "--num-classes", "0",
                   "-o", out, message="num_classes")
        assert not out.exists()

    def test_negative_max_iterations(self, tmp_path, capsys, corpus):
        vocab, out = tmp_path / "vocab.tsv", tmp_path / "classes.tsv"
        assert run(capsys, "vocab", corpus[0], "-o", vocab)[0] == 0
        self.check(capsys, "classes", "--vocab", vocab, "--method", "brown",
                   "--corpus", corpus[0], "--num-classes", "3",
                   "--max-iterations", "-1", "-o", out,
                   message="max_iterations must be >= 0")
        assert not out.exists()


class TestExitCodes:
    def test_usage_errors_return_one(self, capsys):
        assert main(["definitely-not-a-command"]) == 1
        capsys.readouterr()
        assert main(["train"]) == 1  # missing required arguments
        capsys.readouterr()
        assert main([]) == 1
        capsys.readouterr()

    def test_data_errors_return_two(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "ppl", tmp_path / "missing.bin",
                              tmp_path / "missing.txt")
        assert code == 2
        assert "error:" in stderr

    def test_bad_model_file_returns_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model at all")
        code, _, stderr = run(capsys, "info", bad)
        assert code == 2
        assert "error:" in stderr
