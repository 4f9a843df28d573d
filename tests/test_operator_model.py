import numpy as np
import pytest

import codeword_oracles
import operator_oracles as oracles
from mzqbc import codes, kernels
from mzqbc.codes import bits_from_string
from mzqbc.operator_model import intercept_mask, reduced_states, state_change
from mzqbc.protocol import ProtocolParams
from mzqbc.util import GuardError, haar_unitary
from operator_oracles import (
    CompositeSystem,
    DensityMatrix,
    apply_mode_unitary,
    bob_reduced_state,
    bypass_unitary,
    committed_density,
    initial_composite_state,
    intercept_unitary,
    partial_trace,
    sparse_overlap,
    to_dense,
    trace_distance,
)

R111 = bits_from_string("111")


class TestCommittedDensity:
    """The committed states, as the library reads them and as the sparse
    committed-density oracle of `operator_oracles` lists them.  The full
    intercept and empty-subset tests check the library against the oracle;
    the others check the oracle itself."""

    def test_singleton_subset_is_pure(self):
        rho = committed_density(codes.repetition_code(3), R111, 0)
        assert rho.indices.tolist() == [0]
        assert rho.weights.tolist() == [1.0]
        assert to_dense(rho).purity() == pytest.approx(1.0)

    def test_hamming_orthogonality_and_purity(self):
        code = codes.hamming_7_4()
        r = bits_from_string("1010000")
        rho0 = committed_density(code, r, 0)
        rho1 = committed_density(code, r, 1)
        assert sparse_overlap(rho0, rho1) == 0.0
        assert sparse_overlap(rho0, rho0) == pytest.approx(1 / 8)  # purity of 8-word mixture
        dense0, dense1 = to_dense(rho0), to_dense(rho1)
        assert abs(oracles.overlap(dense0, dense1)) <= 1e-12
        assert dense0.purity() == pytest.approx(1 / 8)

    @pytest.mark.parametrize("name", sorted(codes.BUILTIN_CODES))
    def test_full_intercept_reads_the_committed_overlap(self, name):
        # with every photon intercepted the receiver's states are the
        # committed mixtures: criterion 6 reads their overlap off the mask
        code = codes.builtin_code(name)
        everything = np.ones(code.n, dtype=bool)
        rng = np.random.default_rng(13)
        masks = 0
        while masks < 3:
            r = rng.integers(0, 2, size=code.n, dtype=np.uint8)
            if not r.any() or not codes.message_mask(code, r).any():
                continue
            masks += 1
            rho0, rho1 = committed_density(code, r, 0), committed_density(code, r, 1)
            assert reduced_states(code, r, everything) == (1.0, 0.0)
            assert sparse_overlap(rho0, rho1) == 0.0
            if code.n <= 3:
                assert trace_distance(to_dense(rho0), to_dense(rho1)) == 1.0

    def test_empty_subset_rejected(self):
        code = codes.extended_hamming_8_4()
        r = codeword_oracles.codewords(code)[1]  # self-dual: parity constant on the code
        with pytest.raises(ValueError, match="committed subset empty"):
            committed_density(code, r, 1)
        with pytest.raises(ValueError, match="committed subset empty"):
            codes.sample_codeword(code, codes.message_mask(code, r), 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="orthogonal"):
            reduced_states(code, r, np.ones(code.n, dtype=bool))
        with pytest.raises(ValueError, match="orthogonal"):
            ProtocolParams(code=code, r=r, R=0.3, f=0.25)

    def test_dense_conversion_guarded(self):
        rho = committed_density(codes.repetition_code(13), np.ones(13, dtype=np.uint8), 0)
        assert rho.dim == 1 << 13  # sparse form is fine at any enumerable n
        with pytest.raises(GuardError):
            to_dense(rho)

    def test_overlap_dim_mismatch(self):
        a = committed_density(codes.repetition_code(3), R111, 0)
        b = committed_density(codes.repetition_code(4), np.ones(4, dtype=np.uint8), 0)
        with pytest.raises(ValueError):
            sparse_overlap(a, b)


class TestModeUnitaries:
    def test_bypass_swap_squares_to_identity(self):
        u = bypass_unitary()
        assert np.allclose(u @ u, np.eye(4), atol=1e-12)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_intercept_unitary_is_unitary(self):
        u = intercept_unitary()
        assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)

    def test_intercept_records_the_bit(self):
        # |b>|2> -> |b>|b> on the (committed qubit, record qutrit) pair
        u = intercept_unitary()
        for b in (0, 1):
            vec = np.zeros(6, dtype=complex)
            vec[b * 3 + 2] = 1.0  # |b, 2>
            out = u @ vec
            expect = np.zeros(6, dtype=complex)
            expect[b * 3 + b] = 1.0
            assert np.allclose(out, expect, atol=1e-12)


class TestPipeline:
    def test_all_bypass_swaps_contents(self):
        code = codes.code_from_generator(np.eye(2, dtype=np.uint8))
        system = CompositeSystem(n=2)
        alpha = committed_density(code, bits_from_string("11"), 1)
        # receiver qubits start in |1> so the swap is visible
        full = initial_composite_state(
            system, alpha, beta_qubit=np.array([0.0, 1.0], dtype=complex)
        )
        out = apply_mode_unitary(system, ["bypass", "bypass"], full)
        # committed register now holds the receiver's |11>
        alpha_red = partial_trace(
            out.matrix, system.dims, [system.alpha_axis(0), system.alpha_axis(1)]
        )
        assert alpha_red[3, 3] == pytest.approx(1.0, abs=1e-12)
        # returned register holds the old committed mixture
        beta_red = partial_trace(out.matrix, system.dims, system.beta_axes())
        assert np.allclose(beta_red, to_dense(alpha).matrix, atol=1e-12)
        # record qutrits untouched
        g_red = partial_trace(out.matrix, system.dims, [system.gamma_axis(0)])
        assert g_red[2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_all_intercept_writes_records_and_keeps_alpha(self):
        code = codes.repetition_code(3)
        system = CompositeSystem(n=3)
        alpha = committed_density(code, R111, 1)  # pure |111>
        full = initial_composite_state(system, alpha)
        out = apply_mode_unitary(system, ["intercept"] * 3, full)
        for i in range(3):
            g = partial_trace(out.matrix, system.dims, [system.gamma_axis(i)])
            assert g[1, 1] == pytest.approx(1.0, abs=1e-12)
        a_red = partial_trace(
            out.matrix, system.dims, [system.alpha_axis(i) for i in range(3)]
        )
        assert a_red[7, 7] == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_of_composite_step(self):
        code = codes.code_from_generator(np.array([[1]], dtype=np.uint8))
        system = CompositeSystem(n=1)
        alpha = committed_density(code, bits_from_string("1"), 0)
        full = initial_composite_state(system, alpha)
        for modes in (["bypass"], ["intercept"]):
            out = apply_mode_unitary(system, modes, full)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
            assert out.check_psd() >= -1e-9

    def test_gamma_must_start_unmeasured(self):
        system = CompositeSystem(n=1)
        beta = DensityMatrix.from_pure(np.array([1, 0], dtype=complex)).matrix
        alpha = DensityMatrix.from_pure(np.array([1, 0], dtype=complex)).matrix
        gamma = np.zeros((3, 3), dtype=complex)
        gamma[0, 0] = 1.0  # wrong: record already set
        state = DensityMatrix(oracles.kron_all([beta, alpha, gamma]))
        with pytest.raises(ValueError, match="unmeasured"):
            apply_mode_unitary(system, ["intercept"], state)

    def test_intercept_budget_enforced(self):
        code = codes.repetition_code(3)
        system = CompositeSystem(n=3)
        full = initial_composite_state(system, committed_density(code, R111, 0))
        with pytest.raises(ValueError, match="exceeds"):
            apply_mode_unitary(system, ["intercept", "intercept", "bypass"], full,
                               max_intercepts=1)

    def test_dimension_guard(self):
        with pytest.raises(GuardError, match="n <= 3"):
            CompositeSystem(n=4)


class TestReducedState:
    def test_product_state_reduces_to_non_beta_part(self):
        system = CompositeSystem(n=1)
        code = codes.code_from_generator(np.array([[1]], dtype=np.uint8))
        alpha = committed_density(code, bits_from_string("1"), 1)
        full = initial_composite_state(system, alpha)
        red = bob_reduced_state(full, system)
        expect = np.kron(to_dense(alpha).matrix, np.diag([0, 0, 1.0]))
        assert np.allclose(red.matrix, expect, atol=1e-12)
        assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_bypass_hands_receiver_the_fiducial(self):
        system = CompositeSystem(n=1)
        code = codes.code_from_generator(np.array([[1]], dtype=np.uint8))
        alpha = committed_density(code, bits_from_string("1"), 1)
        fid = np.array([1, 1], dtype=complex) / np.sqrt(2)
        full = initial_composite_state(system, alpha, beta_qubit=fid)
        out = apply_mode_unitary(system, ["bypass"], full)
        red = bob_reduced_state(out, system)
        expect = np.kron(np.outer(fid, fid.conj()), np.diag([0, 0, 1.0]))
        assert np.allclose(red.matrix, expect, atol=1e-12)


def _model_report(code, r, modes, trials, rng):
    """The oracles' report fields from `reduced_states` and `state_change`,
    under the oracles' Haar draws: `trials` of them from `rng`, in order."""
    intercepted = intercept_mask(modes, code.n)
    distance, base_overlap = reduced_states(code, r, intercepted)
    changes = [
        state_change(code, r, intercepted, haar_unitary(1 << code.n, rng))
        for _ in range(trials)
    ]
    return {
        "max_deviation": max(dev for dev, _ in changes),
        "max_overlap_deviation": max(dev for _, dev in changes),
        "reduced_overlap": base_overlap,
        "reduced_trace_distance": distance,
    }


class TestInvariance:
    @pytest.mark.parametrize(
        "n,gen,modes",
        [
            (1, [[1]], ["intercept"]),
            (2, [[1, 0], [0, 1]], ["intercept", "bypass"]),
            (3, [[1, 1, 1]], ["intercept", "bypass", "intercept"]),
        ],
    )
    def test_beta_rotations_invisible_to_receiver(self, n, gen, modes):
        code = codes.code_from_generator(np.array(gen, dtype=np.uint8))
        report = _model_report(
            code, np.ones(n, dtype=np.uint8), modes, 10, np.random.default_rng(13)
        )
        assert report["max_deviation"] <= 1e-9
        assert report["max_overlap_deviation"] <= 1e-9

    def test_intercept_records_are_distinguishable(self):
        code = codes.repetition_code(3)
        intercepted = intercept_mask(["intercept", "bypass", "bypass"], 3)
        assert reduced_states(code, R111, intercepted) == (1.0, 0.0)

    def test_mode_errors(self):
        with pytest.raises(ValueError, match="one mode per photon"):
            intercept_mask(["bypass"] * 2, 3)
        with pytest.raises(ValueError, match="unknown mode 'measure'"):
            intercept_mask(["bypass", "measure", "bypass"], 3)
        assert intercept_mask(["bypass", "intercept"], 2).tolist() == [False, True]

    def test_r_orthogonal_to_the_code_rejected_before_any_draw(self):
        # nogo draws nothing; the one-V change rejects the same r
        code = codes.extended_hamming_8_4()
        r = np.ones(8, dtype=np.uint8)
        intercepted = intercept_mask(["intercept"] + ["bypass"] * 7, 8)
        with pytest.raises(ValueError, match="r is orthogonal to every codeword"):
            reduced_states(code, r, intercepted)
        with pytest.raises(ValueError, match="r is orthogonal to every codeword"):
            state_change(code, r, intercepted, np.eye(1 << 8))

    def test_extended_hamming(self):
        code = codes.extended_hamming_8_4()
        modes = ["intercept"] + ["bypass"] * 7
        report = _model_report(
            code, bits_from_string("10000000"), modes, 3, np.random.default_rng(2)
        )
        assert report["max_deviation"] <= 1e-9
        assert report["max_overlap_deviation"] <= 1e-9
        # the intercepted photon is the parity bit: records tell the bits apart
        assert report["reduced_overlap"] == 0.0
        assert report["reduced_trace_distance"] == 1.0
        # one intercepted photon that does not fix the parity reveals nothing
        intercepted = intercept_mask(modes, 8)
        assert reduced_states(code, bits_from_string("01000000"), intercepted) == (0.0, 0.5)

    def test_exact_unitary_changes_nothing(self):
        # a permutation is an exact unitary: every column has norm 1
        code = codes.extended_hamming_8_4()
        intercepted = intercept_mask(["intercept", "bypass"] * 4, 8)
        v = np.eye(1 << 8)[np.random.default_rng(3).permutation(1 << 8)]
        assert state_change(code, bits_from_string("01000000"), intercepted, v) == (0.0, 0.0)


REPORT_FIELDS = (
    "max_deviation", "max_overlap_deviation", "reduced_overlap", "reduced_trace_distance"
)


def _random_case(rng, n):
    """A random full-rank code of length n, an r with G r^T != 0 and a mode
    list."""
    k = int(rng.integers(1, n + 1))
    while True:
        gen = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if codes.gf2_rank(gen) == k:
            break
    code = codes.code_from_generator(gen)
    while True:
        r = rng.integers(0, 2, size=n, dtype=np.uint8)
        if r.any() and codes.message_mask(code, r).any():
            break
    modes = [("bypass", "intercept")[int(x)] for x in rng.integers(0, 2, size=n)]
    return code, r, modes


def _both_reports(code, r, modes, seed, beta=None, trials=3):
    """The model's and the dense report from generators seeded alike, the
    dense one with the fiducial `beta`, and the two generators afterwards."""
    fast_rng, dense_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = _model_report(code, r, modes, trials, fast_rng)
    dense = oracles.alice_local_invariance(
        CompositeSystem(n=code.n), modes, code, r, trials, dense_rng, beta
    )
    return fast, dense, fast_rng, dense_rng


class TestOracleAgreement:
    """The pattern-counting model against the dense 12^n pipeline (about
    1.4 s per dense call at n = 3, so n = 3 gets one random case per
    fiducial).  The fiducial is the oracle's only: the model has none."""

    @pytest.mark.parametrize("n,cases", [(1, 6), (2, 6), (3, 1)])
    @pytest.mark.parametrize(
        "fiducial", [None, (0.6, 0.8), (0.6, 0.8j), (1 + 2j, -0.5 + 0.25j)]
    )
    def test_report_matches_dense_oracle(self, n, cases, fiducial):
        rng = np.random.default_rng(1300 + n)
        beta = None if fiducial is None else np.array(fiducial, dtype=complex)
        for _ in range(cases):
            code, r, modes = _random_case(rng, n)
            fast, dense, fast_rng, dense_rng = _both_reports(
                code, r, modes, int(rng.integers(1 << 30)), beta
            )
            for key in REPORT_FIELDS:
                assert fast[key] == pytest.approx(dense[key], abs=1e-12), key
            # same Haar draws, in the same order: the generators end level
            assert fast_rng.bit_generator.state == dense_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_mode_list_matches_dense_oracle(self, n):
        code = codes.repetition_code(n)
        r = np.eye(n, dtype=np.uint8)[0]
        for mask in range(1 << n):
            modes = ["intercept" if mask >> i & 1 else "bypass" for i in range(n)]
            fast, dense, _, _ = _both_reports(code, r, modes, mask, trials=2)
            for key in REPORT_FIELDS:
                assert fast[key] == pytest.approx(dense[key], abs=1e-12), key


class TestGramOracle:
    """The pattern-counting model against the Gram matrix of the receiver's
    branch kets (`operator_oracles.gram_local_invariance`); 151 random cases
    with n from 2 to 9."""

    @pytest.mark.parametrize(
        "n,cases", [(2, 30), (3, 30), (4, 25), (5, 25), (6, 20), (7, 12), (8, 6), (9, 3)]
    )
    def test_report_matches_gram_oracle(self, n, cases):
        rng = np.random.default_rng(1700 + n)
        for _ in range(cases):
            code, r, modes = _random_case(rng, n)
            fiducial = rng.normal(size=2) + 1j * rng.normal(size=2)
            seed = int(rng.integers(1 << 30))
            fast_rng, gram_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fast = _model_report(code, r, modes, 2, fast_rng)
            gram = oracles.gram_local_invariance(modes, code, r, 2, gram_rng, fiducial)
            for key in REPORT_FIELDS:
                assert fast[key] == pytest.approx(gram[key], abs=1e-12), key
            assert fast_rng.bit_generator.state == gram_rng.bit_generator.state
            # the closed forms are exact: distinct patterns or 2^rank of them
            intercepted = np.array([m == "intercept" for m in modes])
            rank = codes.gf2_rank(code.generator[:, intercepted])
            assert (fast["reduced_trace_distance"], fast["reduced_overlap"]) in (
                (1.0, 0.0), (0.0, 2.0**-rank)
            )

    def test_non_unitary_draw_is_summed_per_pattern(self, monkeypatch):
        # a Haar draw changes the weights by roundoff only, so the fields
        # above agree to 1e-12 however the changes are grouped; a Gaussian
        # draw changes them by O(1/m0) and shows the per-pattern sums
        def gaussian(dim, rng):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            return z / np.sqrt(2 * dim)

        monkeypatch.setattr(oracles, "haar_unitary", gaussian)
        rng = np.random.default_rng(1800)
        for n in (2, 3, 4, 5, 6) * 4:
            code, r, modes = _random_case(rng, n)
            seed = int(rng.integers(1 << 30))
            draws = np.random.default_rng(seed)
            intercepted = intercept_mask(modes, n)
            changes = [
                state_change(code, r, intercepted, gaussian(1 << n, draws)) for _ in range(2)
            ]
            gram = oracles.gram_local_invariance(modes, code, r, 2, np.random.default_rng(seed))
            fast = max(dev for dev, _ in changes), max(dev for _, dev in changes)
            assert fast[0] > 1e-6
            assert fast[0] == pytest.approx(gram["max_deviation"], rel=1e-9, abs=1e-12)
            assert fast[1] == pytest.approx(gram["max_overlap_deviation"], rel=1e-9, abs=1e-12)


class TestPosterior:
    """The receiver's posterior on the committed bit: exactly 1 when the
    known positions fix the parity (`kernels.parity_determined`), else 1/2,
    as `nogo` reports it."""

    @staticmethod
    def determined(code, r, known):
        t = code.generator.astype(int) @ r % 2  # r may be 0 here
        return kernels.parity_determined(code.generator, t, np.atleast_2d(known)).tolist()

    @staticmethod
    def counted(code, r, positions, values):
        """Whether every codeword agreeing with the known bits has one parity."""
        agree = codeword_oracles.consistent_codewords(code, positions, values)
        return len(set((agree @ r % 2).tolist())) == 1

    def test_balanced_when_nothing_known(self):
        code = codes.hamming_7_4()
        r = bits_from_string("1010000")
        assert self.determined(code, r, np.zeros(7, dtype=bool)) == [False]
        assert not self.counted(code, r, [], [])

    def test_degenerate_when_everything_known(self):
        code = codes.hamming_7_4()
        r = bits_from_string("1010000")
        w = codeword_oracles.codewords(code)[9]
        assert self.determined(code, r, np.ones(7, dtype=bool)) == [True]
        assert self.counted(code, r, list(range(7)), w)

    def test_partial_knowledge_hamming(self):
        # three systematic positions known, r inside them: 2 consistent
        # codewords of one parity
        code = codes.hamming_7_4()
        r = bits_from_string("1010000")
        known = np.zeros(7, dtype=bool)
        known[:3] = True
        assert self.determined(code, r, known) == [True]
        assert self.counted(code, r, [0, 1, 2], [1, 0, 1])
        known[2] = False
        assert self.determined(code, r, known) == [False]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_codeword_counting(self, seed):
        rng = np.random.default_rng(700 + seed)
        factories = [codes.hamming_7_4, codes.extended_hamming_8_4, codes.golay_24_12]
        if seed < len(factories):
            code = factories[seed]()
        else:
            n = int(rng.integers(6, 15))
            code = codes.random_code(n, int(rng.integers(1, n)), rng)
        words = codeword_oracles.codewords(code)
        r = rng.integers(0, 2, size=(60, code.n), dtype=np.uint8)
        known = rng.random((60, code.n)) < rng.random((60, 1))
        known[0], known[1] = False, True  # nothing known, everything known
        got = [self.determined(code, r[i], known[i])[0] for i in range(60)]
        want = []
        for i in range(60):
            positions = np.flatnonzero(known[i])
            word = words[rng.integers(len(words))]
            want.append(self.counted(code, r[i], positions, word[positions]))
        assert got == want
        assert got[1] and True in got[2:] and False in got[2:]

    def test_beyond_materialize_guard(self):
        code = codes.random_code(28, 22, np.random.default_rng(5))
        r = np.zeros(code.n, dtype=np.uint8)
        r[:2] = 1
        known = np.zeros((4, code.n), dtype=bool)
        known[1] = True
        known[2, :2] = True
        known[3, 0] = True
        assert self.determined(code, r, known) == [False, True, True, False]
        # criterion 6's reading: every photon intercepted, 2^22 words unlisted
        assert reduced_states(code, r, known[1]) == (1.0, 0.0)


class TestDensityMatrixValidation:
    def test_not_hermitian_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_psd_check(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(m).check_psd()

    def test_trace_distance_orthogonal_pures(self):
        a = DensityMatrix.from_pure(np.array([1, 0], dtype=complex))
        b = DensityMatrix.from_pure(np.array([0, 1], dtype=complex))
        assert trace_distance(a, b) == pytest.approx(1.0)
