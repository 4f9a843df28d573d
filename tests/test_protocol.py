import json
import math
from fractions import Fraction

import numpy as np
import pytest

import codeword_oracles
import optics_oracles as oracle
from protocol_oracles import sample_intercept_posterior
from mzqbc import codes, kernels, protocol
from mzqbc.codes import bits_from_string
from mzqbc.protocol import (
    ACCEPT,
    ABORT_CHEATING_BOB,
    CONTINUE,
    INTERCEPT,
    REJECT_INTERCEPT_MISMATCH,
    REJECT_NOT_CODEWORD,
    REJECT_PARITY,
    Announcement,
    FullInterceptBob,
    HonestAlice,
    HonestBob,
    MidpointCheatAlice,
    PartialInterceptBob,
    ProtocolParams,
    binding_pair,
    efficiency_metrics,
    escape_probability,
    honest_announcement,
    intercept_posterior,
    run_binding_experiment,
    run_commit,
    run_concealing_experiment,
    run_unveil,
)
from mzqbc.strategies import FullMeasureLate, SingleChannel
from mzqbc.util import BLOCK_TRIALS, block_seed_sequences, block_slices


def make_params(**kw):
    defaults = dict(
        code=codes.extended_hamming_8_4(),
        r=bits_from_string("11100000"),
        R=0.3,
        f=0.5,
        epsilon=0.5,
        seed=0,
    )
    defaults.update(kw)
    return ProtocolParams(**defaults)


#: epsilon grid for the integer abort cutoff: every builtin code gets counts
#: exactly on the boundary n' = epsilon*(n - d), where the float estimate can
#: land one ulp below 1 - d/n (Golay at 0.25, 0.5 and 1 aborts at 4, 8, 16)
ABORT_EPSILONS = (0.1, 0.125, 0.25, 0.3, 1 / 3, 0.375, 0.5, 2 / 3, 0.75, 1.0)
#: every builtin code with d < n, the ones a session accepts
ABORT_CODES = [name for name in codes.BUILTIN_CODES
               if codes.builtin_code(name).d < codes.builtin_code(name).n]


class TestParams:
    def test_threshold(self):
        assert make_params().threshold == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ABORT_CODES)
    def test_abort_at_is_the_exact_rational_rule(self, name):
        code = codes.builtin_code(name)
        n, d = code.n, code.d
        on_boundary = 0
        for eps in ABORT_EPSILONS:
            params = make_params(code=code, r=np.eye(1, n, dtype=np.uint8)[0], epsilon=eps)
            # n'/(eps n) >= 1 - d/n, every term an exact rational
            estimates = [Fraction(c) / (Fraction(eps) * n) for c in range(n + 1)]
            assert [c >= params.abort_at for c in range(n + 1)] == [
                e >= 1 - Fraction(d, n) for e in estimates
            ]
            on_boundary += estimates.count(1 - Fraction(d, n))
        assert on_boundary > 0

    def test_zero_r_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_params(r=np.zeros(8, dtype=np.uint8))

    def test_r_orthogonal_to_the_code_rejected(self):
        # 11100001 is a codeword of the self-dual extended Hamming code:
        # every codeword has parity 0 against it, so no bit is committed
        with pytest.raises(ValueError, match="orthogonal"):
            make_params(r=bits_from_string("11100001"))

    def test_message_mask_is_kept_read_only(self):
        params = make_params(code=codes.golay_24_12(), r=np.eye(1, 24, 5, dtype=np.uint8)[0])
        t = params.t
        assert t.dtype == np.uint8
        assert np.array_equal(t, params.code.generator.astype(int) @ params.r % 2)
        assert not t.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t[0] ^= 1

    def test_wrong_length_r_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_params(r=bits_from_string("111"))

    def test_f_range_checked(self):
        with pytest.raises(ValueError):
            make_params(f=1.5)

    @pytest.mark.parametrize("epsilon", [0.5, None])
    def test_reflectivity_checked_with_or_without_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="reflectivity must lie in"):
            make_params(R=1.5, epsilon=epsilon)

    def test_given_epsilon_runs_no_optics(self, monkeypatch):
        def no_optics(bs):
            raise AssertionError("protocol_epsilon ran")

        monkeypatch.setattr(protocol.strategies, "protocol_epsilon", no_optics)
        params = make_params(R=0.2, epsilon=0.5)
        assert (params.bs.R, params.epsilon) == (0.2, 0.5)

    def test_full_dimension_code_rejected(self):
        with pytest.raises(ValueError, match="k < n"):
            make_params(
                code=codes.code_from_generator(np.eye(8, dtype=np.uint8)),
                r=bits_from_string("11111111"),
            )

    def test_repetition_code_rejected_for_sessions(self):
        # d = n leaves no abort margin, so the session layer refuses it
        with pytest.raises(ValueError, match="d < n"):
            make_params(code=codes.repetition_code(3), r=bits_from_string("111"))

    def test_default_epsilon_is_family_floor(self):
        p = make_params(epsilon=None, R=0.2)
        assert p.epsilon == pytest.approx(0.2, abs=1e-12)


class TestCommit:
    @pytest.mark.parametrize("R", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_honest_session_is_perfect(self, R, bit):
        params = make_params(R=R, f=0.0)
        rng = np.random.default_rng(5)
        t = run_commit(HonestAlice(bit), HonestBob(f=0.0), params, rng)
        assert t.n_mismatch == 0
        assert t.f_estimate == 0.0
        assert t.alice_verdict == CONTINUE
        assert run_unveil(t, honest_announcement(t)) == ACCEPT

    def test_estimator_soundness(self):
        # with the blind-guess resend (flag rate 1/2) and epsilon = 1/2 the
        # estimate is unbiased for f
        params = make_params(f=0.3)
        rng = np.random.default_rng(9)
        sessions = 3000
        total = 0.0
        for _ in range(sessions):
            t = run_commit(HonestAlice(0), HonestBob(f=0.3), params, rng)
            total += t.f_estimate
        mean = total / sessions
        # per-photon mismatch is Bernoulli(f*eps); propagate to f_estimate
        var = 0.3 * 0.5 * (1 - 0.3 * 0.5) / (0.5**2 * params.n * sessions)
        assert abs(mean - 0.3) < 3 * math.sqrt(var)

    def test_full_intercept_records_every_bit(self):
        params = make_params()
        rng = np.random.default_rng(3)
        t = run_commit(HonestAlice(1), FullInterceptBob(), params, rng)
        assert all(m == INTERCEPT for m in t.modes)
        assert protocol.transcript_to_dict(t)["learned_bits"] == t.codeword.tolist()

    def test_partial_intercept_exact_count(self):
        params = make_params()
        rng = np.random.default_rng(3)
        t = run_commit(HonestAlice(0), PartialInterceptBob(m=3), params, rng)
        assert sum(m == INTERCEPT for m in t.modes) == 3

    @pytest.mark.parametrize(
        "bob",
        [
            HonestBob(f=0.4),
            HonestBob(f=0.4, strategy=SingleChannel()),
            PartialInterceptBob(m=3),
            PartialInterceptBob(m=5, strategy=FullMeasureLate()),
            FullInterceptBob(),
        ],
        ids=repr,
    )
    def test_draws_intercepts_then_one_uniform_per_photon(self, bob):
        # after the codeword: the intercepts (n doubles against f, or one
        # permutation), then one uniform per photon, which picks its event
        # as the dict oracle's scalar running sum over the distribution of
        # its (intercepted, bit) does; the blind guess's coin is a weight
        # of that distribution, not a draw
        params = make_params(R=0.3)
        bs, n = params.bs, params.n
        for seed in range(20):
            t = run_commit(HonestAlice(seed % 2), bob, params, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            word = codes.sample_codeword(params.code, params.t, seed % 2, rng)
            if isinstance(bob, HonestBob):
                intercepted = rng.random(n) < bob.f
            elif isinstance(bob, PartialInterceptBob):
                intercepted = np.isin(np.arange(n), rng.permutation(n)[: bob.m])
            else:
                intercepted = np.ones(n, dtype=bool)
            events = []
            for hit, bit in zip(intercepted, word.tolist()):
                dist = (
                    oracle.intercept_detection(bob.strategy, bit, bs)
                    if hit
                    else oracle.detection_distribution(oracle.encode(bit, bs), bs)
                )
                events.append(oracle.sample_event(dist, rng))
            assert np.array_equal(t.codeword, word)
            assert t.modes == [INTERCEPT if hit else protocol.BYPASS for hit in intercepted]
            assert t.alice_events == events
            assert t.n_mismatch == sum(
                ev != oracle.expected_event(bit) for ev, bit in zip(events, word.tolist())
            )

    def test_boundary_estimate_aborts(self):
        # late resends are flagged with certainty; intercepting exactly
        # half the photons with epsilon=1 lands the estimate on the
        # threshold, which must abort
        params = make_params(epsilon=1.0)
        rng = np.random.default_rng(0)
        t = run_commit(
            HonestAlice(0),
            PartialInterceptBob(m=4, strategy=FullMeasureLate()),
            params,
            rng,
        )
        assert t.n_mismatch == 4
        assert t.f_estimate == pytest.approx(params.threshold)
        assert t.alice_verdict == ABORT_CHEATING_BOB


class TestUnveil:
    def _intercepted_transcript(self):
        params = make_params()
        rng = np.random.default_rng(17)
        return run_commit(HonestAlice(0), FullInterceptBob(), params, rng)

    def test_not_codeword_checked_first(self):
        t = self._intercepted_transcript()
        bad = t.codeword.copy()
        bad[0] ^= 1  # weight-1 change never lands on a codeword (d=4)
        # wrong parity too, but the membership check fires first
        assert run_unveil(t, Announcement(b=1 - t.committed_b, c=bad)) == REJECT_NOT_CODEWORD

    def test_parity_mismatch_rejected(self):
        t = self._intercepted_transcript()
        assert run_unveil(t, Announcement(b=1 - t.committed_b, c=t.codeword)) == REJECT_PARITY

    def test_intercepted_flip_rejected(self):
        t = self._intercepted_transcript()
        params = t.params
        # another codeword with the same parity differs on >= d positions,
        # all of them intercepted here
        same_parity = [
            w
            for w in codeword_oracles.coset_split(params.code, params.r)[t.committed_b]
            if not np.array_equal(w, t.codeword)
        ]
        assert run_unveil(t, Announcement(b=t.committed_b, c=same_parity[0])) == (
            REJECT_INTERCEPT_MISMATCH
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_partial_intercept_rejects_exactly_the_intercepted_changes(self, m):
        # every other same-parity codeword: accepted iff it differs from the
        # sent one only on bypassed positions
        params = make_params()
        verdicts = set()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            t = run_commit(HonestAlice(seed % 2), PartialInterceptBob(m=m), params, rng)
            intercepted = np.array(t.modes) == INTERCEPT
            for w in codeword_oracles.coset_split(params.code, params.r)[t.committed_b]:
                if np.array_equal(w, t.codeword):
                    continue
                touched = (w != t.codeword) & intercepted
                want = REJECT_INTERCEPT_MISMATCH if touched.any() else ACCEPT
                assert run_unveil(t, Announcement(b=t.committed_b, c=w)) == want
                verdicts.add(want)
        assert verdicts == {ACCEPT, REJECT_INTERCEPT_MISMATCH}

    def test_wrong_length_announcement(self):
        t = self._intercepted_transcript()
        with pytest.raises(ValueError):
            run_unveil(t, Announcement(b=0, c=bits_from_string("111")))


class TestClosedForms:
    def test_posterior_values(self):
        assert intercept_posterior(0.5, 0.5) == pytest.approx(1 / 3, abs=1e-15)
        assert intercept_posterior(0.7, 0.0) == pytest.approx(0.7)
        assert intercept_posterior(0.0, 0.5) == 0.0

    def test_posterior_guards(self):
        with pytest.raises(ValueError):
            intercept_posterior(1.0, 1.0)
        with pytest.raises(ValueError):
            intercept_posterior(-0.1, 0.5)

    def test_escape_values(self):
        assert escape_probability(0.3, 0) == 1.0
        assert escape_probability(1.0, 3) == 0.0
        assert escape_probability(1 / 3, 2) == pytest.approx(4 / 9, abs=1e-15)

    def test_escape_guards(self):
        with pytest.raises(ValueError):
            escape_probability(1.2, 1)
        with pytest.raises(ValueError):
            escape_probability(0.5, -1)


class TestBindingExperiment:
    def test_pair_has_min_distance_and_opposite_parity(self):
        code = codes.extended_hamming_8_4()
        r = bits_from_string("11100000")
        mid, target = binding_pair(code, r)
        assert not code.contains(mid)
        assert code.contains(target)
        assert int((mid != target).sum()) == code.d // 2

    def test_f_zero_always_accepts(self):
        rep = run_binding_experiment(make_params(f=0.0), trials=2000)
        assert rep["accept_rate_among_proceed"] == 1.0
        assert rep["accept_rate_unconditioned"] == 1.0
        assert rep["predicted_escape"] == 1.0

    def test_f_one_never_accepts(self):
        rep = run_binding_experiment(make_params(f=1.0, epsilon=0.01), trials=2000)
        assert rep["accept_rate_unconditioned"] == 0.0
        assert rep["predicted_escape"] == pytest.approx(0.0)

    def test_matches_posterior_prediction(self):
        rep = run_binding_experiment(make_params(), trials=50_000)
        assert rep["flips"] == 2
        assert rep["predicted_escape"] == pytest.approx(4 / 9, abs=1e-15)
        assert abs(rep["accept_rate_among_proceed"] - 4 / 9) < rep["three_sigma"]

    def test_monotone_in_f(self):
        # exactly, on the prediction; statistically, on the measurement
        rates = {}
        preds = {}
        for f in (0.2, 0.5, 0.8):
            rep = run_binding_experiment(make_params(f=f), trials=20_000)
            rates[f] = rep["accept_rate_among_proceed"]
            preds[f] = rep["predicted_escape"]
        assert preds[0.2] > preds[0.5] > preds[0.8]
        assert rates[0.2] > rates[0.5] > rates[0.8]

    def test_monotone_in_d(self):
        r8 = bits_from_string("11100000")
        r24 = bits_from_string("1" + "0" * 23)
        p = intercept_posterior(0.5, 0.5)
        short = escape_probability(p, codes.extended_hamming_8_4().d // 2)
        long = escape_probability(p, codes.golay_24_12().d // 2)
        assert long < short
        rep8 = run_binding_experiment(make_params(r=r8), trials=20_000)
        rep24 = run_binding_experiment(
            make_params(code=codes.golay_24_12(), r=r24), trials=20_000
        )
        assert rep24["accept_rate_among_proceed"] < rep8["accept_rate_among_proceed"]

    @pytest.mark.parametrize("seed", range(8))
    def test_pair_matches_codeword_list(self, seed):
        rng = np.random.default_rng(500 + seed)
        factories = [codes.hamming_7_4, codes.extended_hamming_8_4, codes.golay_24_12]
        if seed < len(factories):
            code = factories[seed]()
        else:
            while True:  # the midpoint needs d >= 2
                n = int(rng.integers(5, 16))
                code = codes.random_code(n, int(rng.integers(1, n)), rng)
                if code.d >= 2:
                    break
        for _ in range(20):
            r = rng.integers(0, 2, size=code.n, dtype=np.uint8)
            got = binding_pair(code, r)
            want = codeword_oracles.binding_pair(code, r)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_pair_without_an_odd_minimum_word(self):
        # 1...1 is a codeword of the self-dual code: every parity is 0
        code = codes.extended_hamming_8_4()
        r = np.ones(8, dtype=np.uint8)
        assert not (codeword_oracles.codewords(code) @ r % 2).any()
        got = binding_pair(code, r)
        want = codeword_oracles.binding_pair(code, r)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_beyond_materialize_guard(self):
        code = codes.random_code(n=28, k=22, rng=np.random.default_rng(5))
        assert code.k == 22
        r = np.zeros(code.n, dtype=np.uint8)
        r[:2] = 1
        rep = run_binding_experiment(make_params(code=code, r=r, f=0.3), trials=40_000)
        assert rep["flips"] == (code.d + 1) // 2
        assert 0 < rep["predicted_escape"] < 1
        assert abs(rep["accept_rate_among_proceed"] - rep["predicted_escape"]) < rep["three_sigma"]

    def test_thread_count_below_one_rejected(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                run_binding_experiment(make_params(), trials=100, threads=threads)
            with pytest.raises(ValueError, match="threads must be >= 1"):
                run_concealing_experiment(make_params(), m=2, trials=100, threads=threads)

    def test_thread_count_does_not_change_results(self):
        a = run_binding_experiment(make_params(), trials=30_000, threads=1)
        b = run_binding_experiment(make_params(), trials=30_000, threads=3)
        assert a == b


def _flip_idx(code, r):
    mid, target = binding_pair(code, r)
    return np.flatnonzero(mid != target)


def _uniforms_split(g, m, n):
    """A block's (m, n) uint32 uniforms by splitting each raw PCG64 output
    into its low and then its high 32 bits, dropping the last high half
    when m * n is odd."""
    raw = g.bit_generator.random_raw(-(-m * n // 2))
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
    return halves[: m * n].astype(np.uint32).reshape(m, n)


def _counts_drawn_whole(g, m, n, f, eps, flip_idx, cutoff):
    """A block's binding counts from the whole split of its raw stream."""
    return kernels.binding_counts(
        _uniforms_split(g, m, n), kernels.uint32_threshold(f),
        kernels.uint32_threshold(f * eps), flip_idx, cutoff,
    )


class TestBindingStreams:
    """Each block's uniforms against its raw PCG64 stream split by hand.

    The contract: a block of m trials at n photons draws ceil(m * n / 2)
    raw outputs once, and its uniforms are their low and high 32-bit
    halves in turn, so the draws are the same on every platform and at
    every thread count.  The golden digests would move with them.
    """

    @pytest.mark.parametrize("n", [8, 13, 24])  # 13: m * n is odd for odd m
    @pytest.mark.parametrize("m", [1, 4095, 4096, 4097, BLOCK_TRIALS])
    def test_chunked_block_matches_whole_arrays(self, m, n):
        seq = np.random.SeedSequence([m, n])
        g, oracle = np.random.default_rng(seq), np.random.default_rng(seq)
        np.testing.assert_array_equal(protocol._uniforms32(g, m, n), _uniforms_split(oracle, m, n))
        # one draw of ceil(m * n / 2) outputs: an odd m * n drops the last high half
        assert g.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_golay_blocks_match_whole_arrays(self, threads):
        trials = 2 * BLOCK_TRIALS + 5000  # three blocks, the last one ragged
        params = make_params(
            code=codes.golay_24_12(), r=bits_from_string("1" + "0" * 23),
            f=0.3, epsilon=0.3, seed=21,
        )
        flip_idx = _flip_idx(params.code, params.r)
        counts = sum(
            _counts_drawn_whole(
                np.random.default_rng(seq), hi - lo, 24, params.f, params.epsilon,
                flip_idx, params.abort_at,
            )
            for seq, (lo, hi) in zip(block_seed_sequences(21, trials), block_slices(trials))
        )
        proceed, proceed_accept, accept, abort = counts.tolist()
        rep = run_binding_experiment(params, trials, threads=threads)
        assert rep["proceed_trials"] == proceed
        assert rep["accept_rate_among_proceed"] == proceed_accept / proceed
        assert rep["accept_rate_unconditioned"] == accept / trials
        assert rep["abort_frequency"] == abort / trials
        assert 0 < abort < trials


class TestConcealingExperiment:
    def test_no_interception_is_perfectly_balanced(self):
        rep = run_concealing_experiment(make_params(), m=0, trials=500)
        assert rep["mean_posterior_true_bit"] == pytest.approx(0.5)
        assert rep["mean_max_posterior"] == pytest.approx(0.5)
        assert rep["abort_frequency"] == 0.0

    def test_full_interception_pins_the_codeword(self):
        rep = run_concealing_experiment(make_params(), m=8, trials=500)
        assert rep["mean_posterior_true_bit"] == pytest.approx(1.0)

    def test_full_interception_abort_frequency(self):
        rep = run_concealing_experiment(make_params(), m=8, trials=50_000)
        expected = 1 - 9 / 256  # estimate below threshold needs n' <= 1
        sigma = math.sqrt(expected * (1 - expected) / 50_000)
        assert abs(rep["abort_frequency"] - expected) < 3 * sigma

    @pytest.mark.parametrize("m", [0, 1, 5, 8])
    def test_every_trial_intercepts_exactly_m_positions(self, m, monkeypatch):
        seen = []

        def record(generator, t, intercept, u_mis, t_eps, abort_at):
            seen.append(intercept.sum(axis=1))
            return np.zeros(2)

        monkeypatch.setattr(kernels, "concealing_stats", record)
        run_concealing_experiment(make_params(), m=m, trials=BLOCK_TRIALS + 7)
        counts = np.concatenate(seen)
        assert counts.shape == (BLOCK_TRIALS + 7,) and (counts == m).all()

    def test_mismatch_uniforms_follow_the_keys_in_the_raw_stream(self, monkeypatch):
        seen = []

        def record(generator, t, intercept, u_mis, t_eps, abort_at):
            seen.append(u_mis)
            return np.zeros(2)

        monkeypatch.setattr(kernels, "concealing_stats", record)
        trials = BLOCK_TRIALS + 7  # a ragged block of 7 * 8 trials x photons
        run_concealing_experiment(make_params(seed=3), m=4, trials=trials)
        for u_mis, seq, (lo, hi) in zip(
            seen, block_seed_sequences(3, trials), block_slices(trials)
        ):
            g = np.random.default_rng(seq)
            g.random((hi - lo, 8))  # the position keys
            np.testing.assert_array_equal(u_mis, _uniforms_split(g, hi - lo, 8))

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            run_concealing_experiment(make_params(), m=9, trials=10)

    def test_thread_count_does_not_change_results(self):
        a = run_concealing_experiment(make_params(), m=4, trials=20_000, threads=1)
        b = run_concealing_experiment(make_params(), m=4, trials=20_000, threads=4)
        assert a == b


class TestPosteriorOracle:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(2)
        res = sample_intercept_posterior(0.5, 0.5, 100_000, rng)
        assert abs(res["empirical_posterior"] - 1 / 3) < res["three_sigma"]

    def test_f_zero(self):
        rng = np.random.default_rng(2)
        res = sample_intercept_posterior(0.0, 0.5, 10_000, rng)
        assert res["empirical_posterior"] == 0.0


class TestEfficiency:
    def test_default_ratio_is_ten(self):
        rep = efficiency_metrics(make_params(f=0.25))
        assert rep["photon_ratio"] == 10.0
        assert rep["duration_ratio"] == 10.0
        assert rep["photons_current"] == pytest.approx(2.0)
        assert rep["photons_prior"] == pytest.approx(20.0)

    def test_f_zero_sends_nothing(self):
        rep = efficiency_metrics(make_params(f=0.0))
        assert rep["photons_current"] == 0.0
        assert rep["photons_prior"] == 0.0


class TestSerialization:
    def test_transcript_round_trips_through_json(self):
        params = make_params()
        rng = np.random.default_rng(1)
        t = run_commit(HonestAlice(0), HonestBob(f=0.5), params, rng)
        doc = json.loads(json.dumps(protocol.transcript_to_dict(t)))
        assert doc["codeword"] == codes.string_from_bits(t.codeword)
        assert doc["n_mismatch"] == t.n_mismatch
        assert len(doc["events"]) == params.n

    def test_midpoint_cheat_transcript(self):
        params = make_params()
        rng = np.random.default_rng(1)
        t = run_commit(MidpointCheatAlice(), HonestBob(f=0.5), params, rng)
        assert t.committed_b is None
        assert t.cheat_target is not None
        with pytest.raises(ValueError):
            honest_announcement(t)
