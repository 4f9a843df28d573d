import itertools

import numpy as np
import pytest

import codeword_oracles
from codeword_oracles import consistent_codewords, coset_split
from mzqbc import codes, kernels
from mzqbc.codes import (
    bits_from_string,
    code_from_generator,
    extended_hamming_8_4,
    golay_24_12,
    hamming_7_4,
    string_from_bits,
    parity,
    random_code,
    repetition_code,
    message_mask,
    sample_codeword,
)
from mzqbc.util import GuardError


def brute_force_min_distance(gen: np.ndarray) -> int:
    """Independent oracle: enumerate messages with itertools."""
    k, n = gen.shape
    best = n + 1
    for msg in itertools.product((0, 1), repeat=k):
        if not any(msg):
            continue
        word = np.zeros(n, dtype=np.uint8)
        for j, bit in enumerate(msg):
            if bit:
                word ^= gen[j]
        best = min(best, int(word.sum()))
    return best


class TestConstruction:
    def test_repetition_3_1_3(self):
        code = repetition_code(3)
        assert (code.n, code.k, code.d) == (3, 1, 3)

    def test_hamming_7_4_3(self):
        code = hamming_7_4()
        assert (code.n, code.k, code.d) == (7, 4, 3)
        assert code.d == brute_force_min_distance(code.generator)

    def test_extended_hamming_8_4_4(self):
        code = extended_hamming_8_4()
        assert (code.n, code.k, code.d) == (8, 4, 4)
        assert code.d == brute_force_min_distance(code.generator)

    def test_golay_24_12_8(self):
        code = golay_24_12()
        assert (code.n, code.k, code.d) == (24, 12, 8)

    def test_identity_generator_distance_one(self):
        code = code_from_generator(np.eye(5, dtype=np.uint8))
        assert code.d == 1

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="not full rank"):
            code_from_generator([[1, 0, 1], [1, 0, 1]])

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            code_from_generator([[2, 0, 1]])

    def test_enumeration_guard(self):
        gen = np.hstack([np.eye(25, dtype=np.uint8), np.ones((25, 1), dtype=np.uint8)])
        with pytest.raises(GuardError, match="enumeration too large"):
            code_from_generator(gen)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_code_distance_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        code = random_code(n=9, k=4, rng=rng)
        assert code.d == brute_force_min_distance(code.generator)


def _sample_codes():
    """The builtins, then random codes whose n is not a multiple of 8."""
    rng = np.random.default_rng(31)
    return [factory() for factory in codes.BUILTIN_CODES.values()] + [
        random_code(n=int(n), k=int(k), rng=rng) for n, k in ((5, 3), (11, 6), (13, 9), (17, 10))
    ]


class TestMinimumWords:
    @pytest.mark.parametrize("index", range(8))
    def test_match_enumeration(self, index):
        code = _sample_codes()[index]
        words = kernels.unpack_rows(code.min_words, code.n)
        np.testing.assert_array_equal(words, codeword_oracles.min_weight_words(code))
        assert (words.sum(axis=1) == code.d).all()

    @pytest.mark.parametrize("index", range(8))
    def test_codewords_match_generator_product(self, index, monkeypatch):
        # the span walk lists the codewords in message order; chunks of 8
        # messages cross chunk edges
        monkeypatch.setattr(kernels, "_CHUNK_BITS", 3)
        code = _sample_codes()[index]
        chunks = kernels._span_chunks(kernels.pack_rows(code.generator))
        words = np.concatenate([kernels.unpack_rows(c, code.n) for c in chunks])
        np.testing.assert_array_equal(words, codeword_oracles.codewords(code))


class TestParity:
    def test_zero_codeword(self):
        assert parity(np.zeros(5, dtype=np.uint8), bits_from_string("10101")) == 0

    def test_direct_formula(self):
        assert parity(bits_from_string("101"), bits_from_string("101")) == 0
        assert parity(bits_from_string("110"), bits_from_string("101")) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            parity(bits_from_string("10"), bits_from_string("101"))


class TestCosetSplit:
    def test_repetition_split(self):
        code = repetition_code(3)
        c0, c1 = coset_split(code, bits_from_string("111"))
        assert [string_from_bits(w) for w in c0] == ["000"]
        assert [string_from_bits(w) for w in c1] == ["111"]

    def test_hamming_balance_for_every_usable_r(self):
        # whenever the parity functional is nonconstant on the code, the
        # split is exactly half/half (brute force over all nonzero r)
        code = hamming_7_4()
        nonconstant = 0
        for bits in itertools.product((0, 1), repeat=7):
            r = np.array(bits, dtype=np.uint8)
            if not r.any():
                continue
            c0, c1 = coset_split(code, r)
            if len(c1):
                nonconstant += 1
                assert len(c0) == len(c1) == 8
        assert nonconstant > 0

    def test_zero_r_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            coset_split(hamming_7_4(), np.zeros(7, dtype=np.uint8))

    def test_split_partitions_code(self):
        code = extended_hamming_8_4()
        r = bits_from_string("11100000")
        c0, c1 = coset_split(code, r)
        assert len(c0) + len(c1) == 1 << code.k
        for w in c0:
            assert parity(w, r) == 0
        for w in c1:
            assert parity(w, r) == 1


class TestSampleCodeword:
    def test_singleton_subset(self):
        code = repetition_code(3)
        rng = np.random.default_rng(0)
        w = sample_codeword(code, message_mask(code, bits_from_string("111")), 1, rng)
        assert string_from_bits(w) == "111"

    def test_parity_postcondition(self):
        code = hamming_7_4()
        r = bits_from_string("1010000")
        t = message_mask(code, r)
        rng = np.random.default_rng(1)
        for b in (0, 1):
            for _ in range(20):
                assert parity(sample_codeword(code, t, b, rng), r) == b

    def test_empirical_uniformity(self):
        # chi-square over the 8 parity-0 Hamming codewords, 10^4 draws;
        # 21.85 is the 7-dof critical value at the 3-sigma level
        code = hamming_7_4()
        t = message_mask(code, bits_from_string("1010000"))
        rng = np.random.default_rng(7)
        draws = [string_from_bits(sample_codeword(code, t, 0, rng)) for _ in range(10_000)]
        words, counts = np.unique(draws, return_counts=True)
        assert len(words) == 8
        expected = 10_000 / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 21.85

    def test_empty_subset_rejected(self):
        # an r with an empty parity-1 half never reaches the draw: its mask
        # is rejected
        code = extended_hamming_8_4()  # self-dual: codeword masks give a constant parity
        r = codeword_oracles.codewords(code)[3]
        assert r.any()
        assert len(coset_split(code, r)[1]) == 0
        with pytest.raises(ValueError, match="orthogonal"):
            message_mask(code, r)

    @staticmethod
    def assert_same_draws(code, rng, masks=6, draws=5, listed=True):
        """Same seed, same word as the generator-product sampler and, when
        `listed`, the enumerating one, for random masks r that commit a bit."""
        for _ in range(masks):
            r = rng.integers(0, 2, size=code.n, dtype=np.uint8)
            try:
                t = message_mask(code, r)
            except ValueError:
                continue  # r commits no bit: there is nothing to draw from
            for b in (0, 1):
                seed = int(rng.integers(1 << 31))
                fast, product, slow = (np.random.default_rng(seed) for _ in range(3))
                for _ in range(draws):
                    got = sample_codeword(code, t, b, fast)
                    want = codeword_oracles.sample_codeword_from_mask(code, t, b, product)
                    assert got.dtype == want.dtype == np.uint8
                    assert np.array_equal(got, want)
                    if listed:
                        listed_word = codeword_oracles.sample_codeword(code, r, b, slow)
                        assert np.array_equal(got, listed_word)
                after = fast.random()  # the streams are still in step
                assert product.random() == after
                if listed:
                    assert slow.random() == after

    @pytest.mark.parametrize("factory", [hamming_7_4, extended_hamming_8_4, golay_24_12])
    def test_draw_for_draw_matches_enumeration(self, factory):
        self.assert_same_draws(factory(), np.random.default_rng(11), masks=12)

    @pytest.mark.parametrize("seed", range(8))
    def test_draw_for_draw_matches_enumeration_random_codes(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(10, 17))
        code = random_code(n, int(rng.integers(1, n)), rng)
        self.assert_same_draws(code, rng)

    def test_beyond_materialize_guard(self):
        code = random_code(28, 22, np.random.default_rng(5))
        r = np.zeros(code.n, dtype=np.uint8)
        r[:2] = 1
        t = message_mask(code, r)
        rng = np.random.default_rng(0)
        for b in (0, 1):
            w = sample_codeword(code, t, b, rng)
            assert code.contains(w)
            assert parity(w, r) == b
        # 2^22 words are too many to list, not to build one by one
        self.assert_same_draws(code, np.random.default_rng(6), listed=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_draw_for_draw_at_length_64(self, seed):
        rng = np.random.default_rng(6400 + seed)
        self.assert_same_draws(codeword_oracles.length_64_code(rng), rng)


class TestContains:
    @staticmethod
    def rank_membership(code, word):
        return codes.gf2_rank(np.vstack([code.generator, word])) == code.k

    @staticmethod
    def check(code, rng, words=60):
        for _ in range(words):
            m = rng.integers(0, 2, size=code.k, dtype=np.uint8)
            cw = (m @ code.generator % 2).astype(np.uint8)
            flipped = cw.copy()
            flipped[rng.integers(code.n)] ^= 1
            noise = rng.integers(0, 2, size=code.n, dtype=np.uint8)
            for word in (cw, flipped, noise):
                assert code.contains(word) == TestContains.rank_membership(code, word)
            assert code.contains(cw)
            assert code.d == 1 or not code.contains(flipped)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rank_membership(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(4, 33))
        code = random_code(n, int(rng.integers(1, min(n, 17))), rng)
        self.check(code, rng)

    @pytest.mark.parametrize("factory", [hamming_7_4, extended_hamming_8_4, golay_24_12])
    def test_builtin_codes(self, factory):
        self.check(factory(), np.random.default_rng(7))

    def test_beyond_materialize_guard(self):
        rng = np.random.default_rng(8)
        self.check(random_code(28, 22, rng), rng)

    def test_wrong_length_is_not_a_codeword(self):
        assert not hamming_7_4().contains(np.zeros(8, dtype=np.uint8))

    def test_entries_other_than_bits_are_not_a_codeword(self):
        # a 2 or a 3 is no bit, wherever it stands, even where reading it
        # as nonzero, or as a sum of powers of two, lands on a codeword
        code = extended_hamming_8_4()
        for word in codeword_oracles.codewords(code):
            for i in range(code.n):
                for value in (2, 3, 255):
                    bad = word.copy()
                    bad[i] = value
                    assert not code.contains(bad)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_word_and_flip_at_length_64(self, seed):
        rng = np.random.default_rng(6410 + seed)
        code = codeword_oracles.length_64_code(rng)
        words = codeword_oracles.codewords(code)
        assert words[:, 63].any()
        flips = np.eye(64, dtype=np.uint8)
        for word in words:
            assert code.contains(word)
            assert code.d < 2 or not any(code.contains(word ^ e) for e in flips)
        self.check(code, rng)


class TestMessageMask:
    def test_matches_generator_product_as_r_changes(self):
        code = golay_24_12()
        rng = np.random.default_rng(12)
        for _ in range(4):
            r = rng.integers(0, 2, size=code.n, dtype=np.uint8)
            t = codes.message_mask(code, r)
            assert np.array_equal(t, code.generator.astype(int) @ r % 2)
            assert t.dtype == np.uint8
            assert not t.flags.writeable

    def test_rejects_a_bad_r(self):
        code = hamming_7_4()
        r = bits_from_string("1010000")
        with pytest.raises(ValueError, match="r is orthogonal to every codeword"):
            codes.message_mask(code, np.zeros(7, dtype=np.uint8))
        with pytest.raises(ValueError, match="length 7"):
            codes.message_mask(code, r[None, :])
        assert codes.message_mask(code, list(r)).tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("factory", [repetition_code, hamming_7_4, extended_hamming_8_4])
    def test_rejects_exactly_the_r_that_commit_no_bit(self, factory):
        # every r: accepted iff both listed parity halves are nonempty
        code = factory()
        for bits in itertools.product((0, 1), repeat=code.n):
            r = np.array(bits, dtype=np.uint8)
            commits = r.any() and len(coset_split(code, r)[1]) > 0
            if commits:
                codes.message_mask(code, r)
            else:
                with pytest.raises(ValueError, match="orthogonal"):
                    codes.message_mask(code, r)


class TestConsistentCodewords:
    def test_no_constraints_returns_all(self):
        code = hamming_7_4()
        assert len(consistent_codewords(code, [], [])) == 16

    def test_full_constraints_unique(self):
        code = hamming_7_4()
        w = codeword_oracles.codewords(code)[5]
        out = consistent_codewords(code, list(range(7)), w)
        assert len(out) == 1
        assert np.array_equal(out[0], w)

    def test_systematic_positions_halve(self):
        # fixing m systematic coordinates leaves exactly 2^(k-m) codewords
        code = hamming_7_4()
        out = consistent_codewords(code, [0, 1, 2], [1, 0, 1])
        assert len(out) == 2

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            consistent_codewords(hamming_7_4(), [1, 1], [0, 0])


class TestLinearity:
    @pytest.mark.parametrize("factory", [repetition_code, hamming_7_4, extended_hamming_8_4])
    def test_sum_of_codewords_is_codeword(self, factory):
        # `contains` accepts every pairwise sum and rejects it with any one
        # bit flipped: that word lies at distance 1 < d from a codeword
        code = factory()
        words = {string_from_bits(w) for w in codeword_oracles.codewords(code)}
        lst = codeword_oracles.codewords(code)
        flips = np.eye(code.n, dtype=np.uint8)
        for i in range(len(lst)):
            for j in range(len(lst)):
                word = lst[i] ^ lst[j]
                assert string_from_bits(word) in words
                assert code.contains(word)
                assert not any(code.contains(word ^ e) for e in flips)

    @pytest.mark.parametrize("factory", [repetition_code, hamming_7_4, extended_hamming_8_4, golay_24_12])
    def test_pairwise_distance_at_least_d(self, factory):
        code = factory()
        words = codeword_oracles.codewords(code)
        # by linearity it suffices to check weights, but check pairs anyway
        # on a subsample for the larger codes
        idx = range(len(words)) if len(words) <= 16 else range(0, len(words), 37)
        for i in idx:
            for j in idx:
                if i != j:
                    assert int((words[i] ^ words[j]).sum()) >= code.d


class TestFiles:
    def test_generator_roundtrip(self, tmp_path):
        path = tmp_path / "gen.txt"
        path.write_text("1000110\n0100101\n0010011\n0001111\n")
        code = codes.read_generator_file(path)
        assert (code.n, code.k, code.d) == (7, 4, 3)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "gen.txt"
        path.write_text("101\n10\n")
        with pytest.raises(ValueError):
            codes.read_generator_file(path)
