import csv
import math

import numpy as np
import pytest

import optics_oracles as oracle
from operator_oracles import haar_unitary
from optics_oracles import GeneralCausal, decode_certainty
from mzqbc import cli, codes, optics, protocol, strategies
from mzqbc.optics import RAIL_X, RAIL_Y, BeamSplitterParams
from mzqbc.strategies import (
    BlindGuessOnTime,
    FullMeasureLate,
    SingleChannel,
    average_detection_prob,
    detection_prob,
    floor_strategy,
    protocol_epsilon,
    strategy_table_rows,
)

R_GRID = [round(0.1 * i, 1) for i in range(1, 10)]


class TestClosedForms:
    @pytest.mark.parametrize("R", R_GRID)
    @pytest.mark.parametrize("bit", [0, 1])
    def test_blind_guess_is_half(self, R, bit):
        assert detection_prob(BlindGuessOnTime(), bit, BeamSplitterParams(R)) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.parametrize("R", R_GRID)
    @pytest.mark.parametrize("bit", [0, 1])
    def test_full_measure_late_always_flagged(self, R, bit):
        assert detection_prob(FullMeasureLate(), bit, BeamSplitterParams(R)) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("R", R_GRID)
    @pytest.mark.parametrize("bit", [0, 1])
    def test_single_channel_optimal_is_min_R_T(self, R, bit):
        got = detection_prob(SingleChannel(), bit, BeamSplitterParams(R))
        assert got == pytest.approx(min(R, 1 - R), abs=1e-12)

    def test_single_channel_fixed_rails(self):
        # an X-only packet on time is flagged with T for bit 0, R for bit 1
        bs = BeamSplitterParams(0.3)
        x_only = optics.detection_table(optics.packet(RAIL_X, 0), bs)
        assert optics.flag_probability(x_only, 0) == pytest.approx(0.7, abs=1e-12)
        assert optics.flag_probability(x_only, 1) == pytest.approx(0.3, abs=1e-12)


class TestMonteCarloOracle:
    @pytest.mark.parametrize(
        "strategy,expected",
        [
            (BlindGuessOnTime(), 0.5),
            (FullMeasureLate(), 1.0),
            (SingleChannel(), 0.3),
        ],
    )
    def test_sampled_flag_frequency(self, strategy, expected):
        bs = BeamSplitterParams(0.3)
        rng = np.random.default_rng(11)
        n = 20_000
        _, sums = strategies.outcome_tables(strategy, bs)
        for bit in (0, 1):
            # one uniform per intercepted photon, as `protocol.run_commit` draws
            picks = optics.pick_events(sums[1, bit], rng.random(n))
            flags = np.count_nonzero(picks != optics.expected_index(bit))
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(flags / n - expected) <= max(3 * sigma, 1e-9)


class TestApplyStrategy:
    def test_blind_guess_matching_resend_is_identical(self):
        # a fair coin over the two honest encodings, whatever the sent bit
        bs = BeamSplitterParams(0.3)
        for bit in (0, 1):
            weighted = strategies.resent(BlindGuessOnTime(), bit, bs)
            assert [w for w, _ in weighted] == [0.5, 0.5]
            for guess, (_, state) in enumerate(weighted):
                assert np.array_equal(state, optics.encode(guess, bs))

    def test_full_measure_late_shifts_both_packets(self):
        bs = BeamSplitterParams(0.3)
        [(w, resent)] = strategies.resent(FullMeasureLate(), 0, bs)
        assert w == 1.0
        assert np.argwhere(resent).tolist() == [[0, 1], [1, 2]]  # (X, 1), (Y, 2)

    def test_single_channel_puts_everything_on_one_rail(self):
        bs = BeamSplitterParams(0.3)
        [(w, resent)] = strategies.resent(SingleChannel(), 0, bs)
        assert w == 1.0
        assert np.array_equal(resent, optics.packet(RAIL_Y, 1))


class TestEpsilonBounds:
    def test_protocol_default_is_min_R_T(self):
        assert protocol_epsilon(BeamSplitterParams(0.2)) == pytest.approx(0.2, abs=1e-12)


def capture_both_packets_strategy(R: float) -> GeneralCausal:
    """Keep the whole photon (never resend) and decode it exactly.

    u1 captures the X packet into storage marking the ancilla; u2 captures
    the Y packet, then rotates the ancilla so the two (orthogonal) branch
    vectors land on the computational basis.  Decode certainty is 1 and
    every photon shows up as a missing click.
    """
    t, r = math.sqrt(1 - R), math.sqrt(R)
    # block basis order for u1: (X,e0),(X,e1),(K,e0),(K,e1)
    u1 = np.zeros((4, 4), dtype=complex)
    u1[3, 0] = 1.0  # photon arriving on X -> kept, ancilla flipped
    u1[0, 3] = 1.0
    u1[1, 1] = 1.0
    u1[2, 2] = 1.0
    # block basis order for u2: (Y,e0),(Y,e1),(K,e0),(K,e1)
    perm = np.zeros((4, 4), dtype=complex)
    perm[2, 0] = 1.0  # photon arriving on Y -> kept, ancilla unchanged
    perm[0, 2] = 1.0
    perm[1, 1] = 1.0
    perm[3, 3] = 1.0
    # branch ancilla vectors (e0,e1): bit0 -> (t, -i r), bit1 -> (-i r, t)
    w = np.array([[t, 1j * r], [1j * r, t]], dtype=complex)
    rot = np.eye(4, dtype=complex)
    rot[2:, 2:] = w  # rotate the kept photon's ancilla
    return GeneralCausal(u1=u1, u2=rot @ perm, ancilla_dim=2)


class TestGeneralCausal:
    def test_non_unitary_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = 2.0
        with pytest.raises(ValueError, match="not unitary"):
            GeneralCausal(u1=m, u2=np.eye(4, dtype=complex), ancilla_dim=2)

    def test_identity_couplings_are_a_bypass(self):
        bs = BeamSplitterParams(0.3)
        s = GeneralCausal(
            u1=np.eye(4, dtype=complex), u2=np.eye(4, dtype=complex), ancilla_dim=2
        )
        assert oracle.average_detection_prob(s, bs) == pytest.approx(0.0, abs=1e-12)
        assert decode_certainty(s, bs) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        bs = BeamSplitterParams(0.3)
        s = GeneralCausal(
            u1=haar_unitary(4, rng), u2=haar_unitary(4, rng), ancilla_dim=2
        )
        for bit in (0, 1):
            out = oracle._general_causal_output(s, bit, bs)
            assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-10)
            rec = oracle.apply_strategy(s, oracle.encode(bit, bs), bs, rng)
            assert rec.resent.total_probability() == pytest.approx(1.0, abs=1e-9)

    def test_capture_both_packets_learns_with_certainty(self):
        bs = BeamSplitterParams(0.3)
        s = capture_both_packets_strategy(0.3)
        assert decode_certainty(s, bs) == pytest.approx(1.0, abs=1e-12)
        # never resends: every photon is flagged as a missing click
        for bit in (0, 1):
            assert oracle.detection_prob(s, bit, bs) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(4)
        for bit in (0, 1):
            rec = oracle.apply_strategy(s, oracle.encode(bit, bs), bs, rng)
            assert rec.learned_bit == bit
            assert rec.resent.absorbed == pytest.approx(1.0)

    def test_informative_strategies_are_detectable(self):
        # anything that learns the bit with certainty while emitting on
        # time must be flagged with nonvanishing probability
        bs = BeamSplitterParams(0.3)
        rng = np.random.default_rng(6)
        candidates = list(strategies.closed_form_strategies())
        candidates.append(capture_both_packets_strategy(0.3))
        for _ in range(40):
            candidates.append(
                GeneralCausal(
                    u1=haar_unitary(4, rng), u2=haar_unitary(4, rng), ancilla_dim=2
                )
            )
        for s in candidates:
            if decode_certainty(s, bs) >= 1.0 - 1e-6:
                assert oracle.average_detection_prob(s, bs) > 1e-6


def unitary_with_columns(cols: np.ndarray, rng) -> np.ndarray:
    """A unitary whose leading columns are the orthonormal `cols`, the rest
    completed from a Haar draw."""
    m = haar_unitary(cols.shape[0], rng)
    m[:, : cols.shape[1]] = cols
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unit(dim: int, rng) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def withheld_u1(a: int, rng) -> np.ndarray:
    """A random u1 that keeps all the X content: |X, 0> goes to a random
    kept state (block order (X, 0..a-1), (kept, 0..a-1)), so x = 0."""
    col = np.concatenate([np.zeros(a), random_unit(a, rng)])
    return unitary_with_columns(col[:, None], rng)


def certain_decode_strategy(a: int, bs, rng) -> GeneralCausal:
    """A random coupling that decodes with certainty: X withheld, then u2
    sends the two (orthogonal) bit states to random vectors on disjoint sets
    of declared outcomes (block order (Y, 0..a-1), (kept, 0..a-1))."""
    u1 = withheld_u1(a, rng)
    kept = u1[a:, 0]
    inputs = []
    for bit in (0, 1):
        enc = optics.encode(bit, bs)
        y = np.zeros(a, dtype=complex)
        y[0] = enc[1, 1]  # (Y, 1)
        inputs.append(np.concatenate([y, enc[0, 0] * kept]))  # (X, 0)
    order = rng.permutation(2 * a)
    cut = int(rng.integers(1, 2 * a))
    outputs = []
    for support in (order[:cut], order[cut:]):
        v = np.zeros(2 * a, dtype=complex)
        v[support] = random_unit(len(support), rng)
        outputs.append(v)
    w_in = unitary_with_columns(np.stack(inputs, axis=1), rng)
    w_out = unitary_with_columns(np.stack(outputs, axis=1), rng)
    return GeneralCausal(u1=u1, u2=w_out @ w_in.conj().T, ancilla_dim=a)


class TestSearch:
    """The `search_best` rows: the exact floor of the strategies that learn
    the bit with certainty."""

    def test_floor_is_min_R_T(self):
        bs = BeamSplitterParams(0.3)
        assert average_detection_prob(floor_strategy(bs), bs) == pytest.approx(0.3, abs=1e-9)

    def test_never_above_closed_form_minimum(self):
        for R in R_GRID:
            bs = BeamSplitterParams(R)
            eps = average_detection_prob(floor_strategy(bs), bs)
            assert eps <= min(
                average_detection_prob(s, bs) for s in strategies.closed_form_strategies()
            )

    def test_symmetric_case_bounded_by_half(self):
        bs = BeamSplitterParams(0.5)
        assert average_detection_prob(floor_strategy(bs), bs) <= 0.5 + 1e-9

    def test_symmetric_tie_takes_blind_guess(self, tmp_path, capsys):
        # at R = 1/2 blind guess and single channel tie up to roundoff; the
        # rows carry blind guess's per-bit values, the first in list order
        cfg = tmp_path / "tie.cfg"
        cfg.write_text("R = 0.5\nsearch_trials = 20\n")
        assert cli.main(["strategies", "--config", str(cfg)]) == 0
        by_name = {}
        for row in csv.DictReader(capsys.readouterr().out.splitlines()):
            by_name.setdefault(row["strategy"], []).append(float(row["detection_prob"]))
        assert by_name["search_best"] == by_name["blind_guess_on_time"]
        assert by_name["search_best"] == [0.4999999999999998] * 2
        assert by_name["single_channel"] == [0.4999999999999999] * 2
        assert isinstance(floor_strategy(BeamSplitterParams(0.5)), BlindGuessOnTime)

    @pytest.mark.parametrize("R", [0.2, 0.3, 0.4, 0.6])
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_random_couplings_respect_the_floor(self, R, a):
        bs = BeamSplitterParams(R)
        rng = np.random.default_rng(int(10 * R) * 10 + a)
        x_amps = [abs(optics.encode(bit, bs)[0, 0]) ** 2 for bit in (0, 1)]  # (X, 0)
        for _ in range(30):
            haar = GeneralCausal(
                u1=haar_unitary(2 * a, rng), u2=haar_unitary(2 * a, rng), ancilla_dim=a
            )
            withheld = GeneralCausal(u1=withheld_u1(a, rng), u2=haar_unitary(2 * a, rng), ancilla_dim=a)
            certain = certain_decode_strategy(a, bs, rng)
            assert decode_certainty(certain, bs) >= 1.0 - oracle.CERTAINTY_TOL
            # the argument's first step: (sent, j) has probability >= |a_b x_j|^2
            x = haar.u1[:a, 0]
            for bit in (0, 1):
                dist = oracle.outcome_distribution(haar, bit, bs)
                for j in range(a):
                    bound = x_amps[bit] * abs(x[j]) ** 2
                    assert dist.get((0, j), 0.0) >= bound - 1e-12
            # with x = 0 the floor holds whatever u2 does
            assert oracle.average_detection_prob(withheld, bs) >= 0.5 - 1e-12
            for s in (haar, withheld, certain):
                if decode_certainty(s, bs) >= 1.0 - oracle.CERTAINTY_TOL:
                    assert oracle.average_detection_prob(s, bs) >= 0.5 - 1e-12


def test_strategy_table_rows():
    rows = strategy_table_rows([0.3])
    assert len(rows) == 6
    by_name = {(r["strategy"], r["bit"]): r["detection_prob"] for r in rows}
    assert by_name[("blind_guess_on_time", 0)] == pytest.approx(0.5)
    assert by_name[("single_channel", 1)] == pytest.approx(0.3, abs=1e-12)


def test_outcome_tables_hold_one_entry_per_strategy_and_splitter():
    # a splitter is its R alone, so the strategies grid and a session at
    # R = 0.3 share their tables
    strategies.outcome_tables.cache_clear()
    strategy_table_rows(R_GRID)
    params = protocol.ProtocolParams(
        code=codes.extended_hamming_8_4(), r=codes.bits_from_string("11100000"), R=0.3, f=0.25
    )
    protocol.run_commit(
        protocol.HonestAlice(0), protocol.HonestBob(f=0.25), params, np.random.default_rng(0)
    )
    assert strategies.outcome_tables.cache_info().currsize == 3 * len(R_GRID)
