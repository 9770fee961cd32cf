"""Binary model serialization."""
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import assert_depths_walk_up, caterpillar, make_params, make_vocab
from snlm.cli import main
from snlm.corpus import Vocabulary, instance_arrays
from snlm.errors import ModelFormatError, SnlmError
from snlm.evaluation import memory_estimate, perplexity
from snlm.model import REGIME_CLASS, REGIME_STANDARD, REGIME_TREE
from snlm.modelfile import _HEADER, ALIGN, MAGIC, load_model, save_model
from snlm.training import TrainingConfig, train

FIRST_TOKEN = _HEADER.size + 8  # the v2 vocabulary block, after its u64 length


def save_v2(path, params, vocab):
    """Write ``params`` in the version 2 layout: version 3's without the
    padding before each payload array."""
    cfg = params.config
    code = {REGIME_STANDARD: 0, REGIME_CLASS: 1, REGIME_TREE: 2}[cfg.regime]
    text = "\n".join(vocab.tokens).encode("utf-8")
    parts = [struct.pack("<4sIIIBBQQ", b"SNLM", 2, cfg.order, cfg.dim, code,
                         int(cfg.diagonal), cfg.vocab_size, len(text)), text,
             np.asarray(vocab.counts, dtype="<i8").tobytes(),
             cfg.layout().structure_bytes()]
    parts += [np.asarray(a, dtype="<f4").tobytes() for _, a in params.arrays()]
    path.write_bytes(b"".join(parts))


def assert_same_model(a, b):
    (pa, va), (pb, vb) = a, b
    assert va.tokens == vb.tokens
    np.testing.assert_array_equal(va.counts, vb.counts)
    for (name, x), (_, y) in zip(pa.arrays(), pb.arrays()):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y, err_msg=name)
    ca, cb = pa.config, pb.config
    assert ((ca.order, ca.dim, ca.regime, ca.diagonal, ca.vocab_size)
            == (cb.order, cb.dim, cb.regime, cb.diagonal, cb.vocab_size))
    if ca.classing is not None:
        np.testing.assert_array_equal(ca.classing.class_of, cb.classing.class_of)
    if ca.tree is not None:
        for field in ("parent", "left", "right", "leaf_word"):
            np.testing.assert_array_equal(getattr(ca.tree, field), getattr(cb.tree, field))


def small_model(regime, seed=130):
    vocab = make_vocab(list("abcd"), counts=[7, 4, 2, 1])
    params = make_params(vocab, regime, order=3, dim=5, seed=seed,
                         num_classes=2, dtype=np.float32)
    return params, vocab


def version_1_file(tmp_path) -> bytes:
    """A model file whose header says version 1."""
    params, vocab = small_model(REGIME_CLASS, seed=146)
    path = tmp_path / "v3.bin"
    save_model(path, params, vocab)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    return bytes(raw)


class TestRoundTrip:
    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS,
                                        REGIME_TREE])
    def test_arrays_survive_bit_for_bit(self, tmp_path, regime):
        params, vocab = small_model(regime)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        loaded, vocab2 = load_model(path)
        assert vocab2.tokens == vocab.tokens
        np.testing.assert_array_equal(vocab2.counts, vocab.counts)
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert b.dtype == np.float32
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_config_fields_survive(self, tmp_path):
        params, vocab = small_model(REGIME_CLASS)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        loaded, _ = load_model(path)
        cfg, out = params.config, loaded.config
        assert (out.order, out.dim, out.regime, out.diagonal, out.vocab_size) \
            == (cfg.order, cfg.dim, cfg.regime, cfg.diagonal, cfg.vocab_size)
        np.testing.assert_array_equal(out.classing.class_of,
                                      cfg.classing.class_of)

    def test_tree_structure_survives(self, tmp_path):
        params, vocab = small_model(REGIME_TREE)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        loaded, _ = load_model(path)
        for field in ("parent", "left", "right", "leaf_word"):
            np.testing.assert_array_equal(getattr(loaded.config.tree, field),
                                          getattr(params.config.tree, field))
        assert_depths_walk_up(loaded.config.tree)

    def test_full_transforms_survive(self, tmp_path):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, order=4, dim=3,
                             diagonal=False, seed=131, dtype=np.float32)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        loaded, _ = load_model(path)
        assert not loaded.config.diagonal
        for Cj, Dj in zip(params.C, loaded.C):
            assert Dj.shape == (3, 3)
            np.testing.assert_array_equal(Cj, Dj)

    def test_perplexity_identical_after_reload(self, tmp_path):
        params, vocab = small_model(REGIME_CLASS, seed=132)
        sentences = [["a", "b"], ["d", "c", "c"]]
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        loaded, vocab2 = load_model(path)
        before = perplexity(params, sentences, vocab)
        after = perplexity(loaded, sentences, vocab2)
        assert before.total_log_prob == after.total_log_prob

    def test_unicode_tokens_survive(self, tmp_path):
        vocab = make_vocab(["naïve", "日本", "x\u00a0y", "a\rb"])
        params = make_params(vocab, REGIME_STANDARD, seed=144, dtype=np.float32)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        assert load_model(path)[1].tokens == vocab.tokens

    def test_float64_models_are_stored_as_float32(self, tmp_path):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, seed=133,
                             dtype=np.float64)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(loaded.Q, params.Q.astype(np.float32))


class TestVersions:
    def test_files_are_written_as_version_4(self, tmp_path):
        params, vocab = small_model(REGIME_CLASS)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        assert struct.unpack_from("<I", path.read_bytes(), 4) == (4,)

    def test_version_1_is_refused_naming_its_version(self, tmp_path):
        path = tmp_path / "v1.bin"
        path.write_bytes(version_1_file(tmp_path))
        with pytest.raises(ModelFormatError, match="version 1"):
            load_model(path)

    def test_ppl_on_a_version_1_file_exits_2(self, tmp_path, capsys):
        path, corpus = tmp_path / "v1.bin", tmp_path / "heldout.txt"
        path.write_bytes(version_1_file(tmp_path))
        corpus.write_text("a b\n")
        assert main(["ppl", str(path), str(corpus)]) == 2
        assert "version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("regime", [REGIME_STANDARD, REGIME_CLASS,
                                        REGIME_TREE])
    def test_version_2_loads_like_its_version_3_twin(self, tmp_path, regime):
        """Standard and class models of versions 2 and 3 load as their
        version 4 file does. Tree models of both are refused, each naming
        its version: their rows held a vector for each side of a choice."""
        # a 23-byte vocabulary block leaves every version 2 array misaligned
        vocab = make_vocab(["a", "b", "c", "dd"], counts=[7, 4, 2, 1])
        params = make_params(vocab, regime, order=3, dim=5, seed=145,
                             num_classes=2, dtype=np.float32)
        v2, v3, v4 = tmp_path / "v2.bin", tmp_path / "v3.bin", tmp_path / "v4.bin"
        save_v2(v2, params, vocab)
        save_model(v4, params, vocab)
        raw = bytearray(v4.read_bytes())
        raw[4:8] = struct.pack("<I", 3)  # version 3 is version 4's layout
        v3.write_bytes(raw)
        assert v2.stat().st_size < v3.stat().st_size
        if regime == REGIME_TREE:
            for version, path in ((2, v2), (3, v3)):
                with pytest.raises(ModelFormatError, match=f"version {version} for a tree"):
                    load_model(path)
            return
        assert_same_model(load_model(v3), load_model(v4))
        from_v2 = load_model(v2)
        assert_same_model(from_v2, load_model(v3))
        assert_same_model(from_v2, (params, vocab))
        for name, arr in from_v2[0].arrays():
            assert arr.flags.aligned and arr.flags.writeable, name
            assert arr.flags.owndata, name  # copied out of the map

    def test_token_with_a_newline_is_rejected(self, tmp_path):
        vocab = Vocabulary(["<unk>", "<s>", "</s>", "a\nb"], [0, 0, 0, 1])
        params = make_params(vocab, REGIME_STANDARD, seed=147, dtype=np.float32)
        with pytest.raises(ModelFormatError, match="newline"):
            save_model(tmp_path / "model.bin", params, vocab)

    def test_block_token_count_must_match_the_header(self, tmp_path):
        params, vocab = small_model(REGIME_STANDARD, seed=148)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        raw = bytearray(path.read_bytes())
        sep = raw.index(b"\n", FIRST_TOKEN)
        raw[sep] = ord("x")  # two tokens become one
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match="tokens"):
            load_model(path)


class TestMappedLoad:
    def test_arrays_are_aligned_views_of_the_file(self, tmp_path):
        params, vocab = small_model(REGIME_TREE, seed=150)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        loaded, _ = load_model(path)
        for name, arr in loaded.arrays():
            assert not arr.flags.owndata, name
            assert arr.ctypes.data % ALIGN == 0, name

    def test_empty_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("regime, algorithm", [(REGIME_STANDARD, "nce"),
                                                   (REGIME_CLASS, "nce"),
                                                   (REGIME_TREE, "ml_sgd")])
    def test_training_writes_private_pages(self, tmp_path, regime, algorithm):
        """A mapped model trains to the bytes of its in-memory twin, and the
        file it was mapped from is unchanged."""
        params, vocab = small_model(regime, seed=151)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        saved = path.read_bytes()
        rng = np.random.default_rng(152)
        sentences = [list(rng.choice(list("abcd"), size=int(rng.integers(2, 7))))
                     for _ in range(40)]
        contexts, targets = instance_arrays(sentences, vocab, n=3)
        tc = TrainingConfig(algorithm=algorithm, minibatch_size=8, epochs=1,
                            noise_samples=3, l2_strength=1e-3, rng_seed=153)
        mapped = load_model(path)[0]
        want = train(params.copy(), contexts, targets, tc).params
        got = train(mapped, contexts, targets, tc).params
        for (name, a), (_, b) in zip(want.arrays(), got.arrays()):
            assert a.tobytes() == b.tobytes(), name
        assert got.Q.tobytes() != params.Q.tobytes()
        assert path.read_bytes() == saved


class TestAtomicSave:
    def test_saving_over_a_mapped_path_keeps_the_loaded_model(self, tmp_path):
        path = tmp_path / "model.bin"
        sentences = [["a", "b"], ["d", "c", "c"]]
        params, vocab = small_model(REGIME_CLASS, seed=154)
        save_model(path, params, vocab)
        loaded, vocab2 = load_model(path)
        before = perplexity(loaded, sentences, vocab2).total_log_prob
        other, other_vocab = small_model(REGIME_TREE, seed=155)
        save_model(path, other, other_vocab)
        assert perplexity(loaded, sentences, vocab2).total_log_prob == before
        assert load_model(path)[0].config.regime == REGIME_TREE
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_failed_save_keeps_the_old_file_and_no_temporary(self, tmp_path,
                                                             monkeypatch):
        path = tmp_path / "model.bin"
        params, vocab = small_model(REGIME_STANDARD, seed=156)
        save_model(path, params, vocab)
        saved, first = path.read_bytes(), params.arrays()[:1]

        def arrays_then_fail():
            yield from first
            raise OSError("No space left on device")

        monkeypatch.setattr(params, "arrays", arrays_then_fail)
        with pytest.raises(OSError, match="No space"):
            save_model(path, params, vocab)
        assert path.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


class TestSectionSizes:
    def test_reported_sizes_sum_to_the_file(self, tmp_path):
        params, vocab = small_model(REGIME_TREE, seed=134)
        path = tmp_path / "model.bin"
        sizes = save_model(path, params, vocab)
        assert sum(sizes.values()) == path.stat().st_size
        assert sizes["payload"] == memory_estimate(params.config).payload_bytes

    def test_estimate_matches_serialized_payload(self, tmp_path):
        rng = np.random.default_rng(135)
        for regime in (REGIME_STANDARD, REGIME_CLASS, REGIME_TREE):
            for trial in range(4):
                n_words = int(rng.integers(2, 12))
                vocab = make_vocab([f"w{i}" for i in range(n_words)])
                params = make_params(
                    vocab, regime,
                    order=int(rng.integers(2, 5)),
                    dim=int(rng.integers(1, 9)),
                    diagonal=bool(rng.integers(2)),
                    num_classes=2, seed=int(rng.integers(1000)),
                    dtype=np.float32)
                path = tmp_path / f"{regime}-{trial}.bin"
                sizes = save_model(path, params, vocab)
                est = memory_estimate(params.config, vocab)
                assert est.payload_bytes == sizes["payload"]


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        params, vocab = small_model(REGIME_STANDARD, seed=136)
        save_model(path, params, vocab)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "model.bin"
        params, vocab = small_model(REGIME_STANDARD, seed=137)
        save_model(path, params, vocab)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "model.bin"
        params, vocab = small_model(REGIME_STANDARD, seed=138)
        save_model(path, params, vocab)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        params, vocab = small_model(REGIME_STANDARD, seed=139)
        save_model(path, params, vocab)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_magic_is_four_bytes(self):
        assert MAGIC == b"SNLM"
        assert len(MAGIC) == 4


class TestCorruptFiles:
    """A damaged file loads or raises an SnlmError: no other exception, and
    no allocation sized by a length field the file cannot back."""

    @pytest.fixture(params=[REGIME_STANDARD, REGIME_CLASS, REGIME_TREE])
    def raw(self, request, tmp_path):
        params, vocab = small_model(request.param, seed=140)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        return path.read_bytes()

    def test_every_truncation_point_raises(self, raw, tmp_path):
        path = tmp_path / "cut.bin"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(SnlmError):
                load_model(path)

    def test_seeded_bit_flips_load_or_raise(self, raw, tmp_path):
        path = tmp_path / "flipped.bin"
        rng = np.random.default_rng(141)
        for bit in rng.choice(8 * min(400, len(raw)), size=800, replace=False):
            damaged = bytearray(raw)
            damaged[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(damaged)
            try:
                load_model(path)
            except SnlmError:
                pass

    def test_undecodable_token_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.bin"
        params, vocab = small_model(REGIME_STANDARD, seed=142)
        save_model(path, params, vocab)
        raw = bytearray(path.read_bytes())
        raw[FIRST_TOKEN] = 0xFF  # first byte of the first token
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_huge_length_fields_are_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "model.bin"
        params, vocab = small_model(REGIME_TREE, seed=143)
        save_model(path, params, vocab)
        raw = path.read_bytes()
        # vocab_size, the last header field, then the vocabulary block's length
        for offset, fmt in ((_HEADER.size - 8, "<Q"), (_HEADER.size, "<Q")):
            damaged = bytearray(raw)
            damaged[offset:offset + struct.calcsize(fmt)] = struct.pack(fmt, 2 ** 31)
            path.write_bytes(damaged)
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_caterpillar_tree_is_rejected_before_padding_its_paths(self, tmp_path):
        vocab = make_vocab([f"w{i}" for i in range(6000)])
        params = make_params(vocab, REGIME_TREE, order=2, dim=2, seed=149,
                             dtype=np.float32)
        path = tmp_path / "model.bin"
        sizes = save_model(path, params, vocab)
        words = params.config.tree.leaf_word[:params.config.tree.num_leaves]
        nodes = np.stack(caterpillar(words), axis=1)
        start = sizes["header"] + sizes["vocab"] + 8  # past num_nodes and root
        raw = bytearray(path.read_bytes())
        raw[start:start + nodes.size * 4] = nodes.astype("<i4").tobytes()
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            with pytest.raises(SnlmError, match="deeper than"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        V = len(vocab)
        assert peak < V * V / 16  # padded paths take 9 bytes per word per level
