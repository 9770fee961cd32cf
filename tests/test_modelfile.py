"""Binary model serialization."""
import struct

import numpy as np
import pytest

from conftest import make_params, make_vocab
from snlm.errors import ModelFormatError, SnlmError
from snlm.evaluation import memory_estimate, perplexity
from snlm.model import REGIME_CLASS, REGIME_STANDARD, REGIME_TREE
from snlm.modelfile import MAGIC, load_model, payload_nbytes, save_model


def small_model(regime, seed=130):
    vocab = make_vocab(list("abcd"), counts=[7, 4, 2, 1])
    params = make_params(vocab, regime, order=3, dim=5, seed=seed,
                         num_classes=2, dtype=np.float32)
    return params, vocab


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

    def test_float64_models_are_stored_as_float32(self, tmp_path):
        vocab = make_vocab(list("ab"))
        params = make_params(vocab, REGIME_STANDARD, seed=133,
                             dtype=np.float64)
        path = tmp_path / "model.bin"
        save_model(path, params, vocab)
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(loaded.Q, params.Q.astype(np.float32))


class TestSectionSizes:
    def test_reported_sizes_sum_to_the_file(self, tmp_path):
        params, vocab = small_model(REGIME_TREE, seed=134)
        path = tmp_path / "model.bin"
        sizes = save_model(path, params, vocab)
        assert sum(sizes.values()) == path.stat().st_size
        assert sizes["payload"] == payload_nbytes(params)

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
        raw[26 + 4] = 0xFF  # first byte of the first token, after its length
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_huge_length_fields_are_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "model.bin"
        params, vocab = small_model(REGIME_TREE, seed=143)
        save_model(path, params, vocab)
        raw = path.read_bytes()
        for offset, fmt in ((18, "<Q"), (26, "<I")):  # vocab_size, first token length
            damaged = bytearray(raw)
            damaged[offset:offset + struct.calcsize(fmt)] = struct.pack(fmt, 2 ** 31)
            path.write_bytes(damaged)
            with pytest.raises(ModelFormatError):
                load_model(path)
