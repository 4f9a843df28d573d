import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzqbc import strategies
from mzqbc.optics import (
    EVENTS,
    EXPECTED_BIN,
    MAX_BIN,
    RAIL_X,
    RAIL_Y,
    SHAPE,
    BeamSplitterParams,
    DetectionEvent,
    bs_apply,
    delay_apply,
    detection_table,
    encode,
    flag_probability,
    packet,
    phase_apply,
    pick_events,
    running_sums,
)
from mzqbc.strategies import BlindGuessOnTime, FullMeasureLate, SingleChannel

R_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
#: rows of a state
X, Y = 0, 1


def detection_distribution(state, params):
    """`detection_table` as an event -> probability dict of its nonzero
    entries."""
    return {ev: p for ev, p in zip(EVENTS, detection_table(state, params).tolist()) if p != 0.0}


def pick_one(table, u):
    """The event one uniform picks from `table`."""
    return EVENTS[int(pick_events(running_sums(table), np.array(u)))]


def bs_matrix(R):
    """The 2x2 convention as an explicit matrix, for algebra checks."""
    t, r = math.sqrt(1 - R), -1j * math.sqrt(R)
    return np.array([[t, r], [r, t]])


class TestBeamSplitter:
    def test_source_input_gives_encoded_amplitudes(self):
        # photon entering the Y port with R=0.3 splits into sqrt(0.7) on Y
        # and -i*sqrt(0.3) on X
        out = bs_apply(packet(RAIL_Y, 0), 0, BeamSplitterParams(0.3))
        assert out[Y, 0] == pytest.approx(math.sqrt(0.7), abs=1e-15)
        assert out[X, 0] == pytest.approx(-1j * math.sqrt(0.3), abs=1e-15)

    @pytest.mark.parametrize("R", R_GRID)
    def test_single_input_splits_T_R(self, R):
        out = bs_apply(packet(RAIL_X, 0), 0, BeamSplitterParams(R))
        assert abs(out[X, 0]) ** 2 == pytest.approx(1 - R, abs=1e-12)
        assert abs(out[Y, 0]) ** 2 == pytest.approx(R, abs=1e-12)

    @pytest.mark.parametrize("R", R_GRID)
    def test_matrix_unitary(self, R):
        u = bs_matrix(R)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_double_splitter_with_pi_phase_returns_photon(self):
        # oracle: BS(0.5) . diag(1,-1) . BS(0.5) = diag(1,-1), so the photon
        # deterministically exits on its input rail
        u = bs_matrix(0.5) @ np.diag([1.0, -1.0]) @ bs_matrix(0.5)
        assert np.max(np.abs(u - np.diag([1.0, -1.0]))) < 1e-12
        state = bs_apply(packet(RAIL_X, 0), 0, BeamSplitterParams(0.5))
        state = phase_apply(state, RAIL_Y, math.pi)
        state = bs_apply(state, 0, BeamSplitterParams(0.5))
        assert abs(state[X, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_untouched_modes_pass_through(self):
        state = (packet(RAIL_X, 0) + packet(RAIL_Y, 2)) / math.sqrt(2)
        out = bs_apply(state, 0, BeamSplitterParams(0.3))
        assert out[Y, 2] == state[Y, 2]


class TestPhaseAndDelay:
    def test_phase_zero_is_identity(self):
        state = encode(0, BeamSplitterParams(0.3))
        assert np.array_equal(phase_apply(state, RAIL_Y, 0.0), state)

    def test_phase_pi_flips_sign(self):
        state = encode(0, BeamSplitterParams(0.3))  # amp(Y,1) = sqrt(0.7)
        out = phase_apply(state, RAIL_Y, math.pi)
        assert out[Y, 1] == pytest.approx(-math.sqrt(0.7), abs=1e-15)

    def test_delay_zero_identity_and_shift(self):
        state = packet(RAIL_X, 0)
        assert np.array_equal(delay_apply(state, RAIL_X, 0), state)
        assert delay_apply(state, RAIL_X, 1)[X, 1] == 1.0

    def test_delay_beyond_max_bin_rejected(self):
        with pytest.raises(ValueError):
            delay_apply(packet(RAIL_X, MAX_BIN), RAIL_X, 1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            delay_apply(packet(RAIL_X, 1), RAIL_X, -1)


class TestEncode:
    def test_encoded_amplitudes_R03(self):
        s0 = encode(0, BeamSplitterParams(0.3))
        assert s0[Y, 1] == pytest.approx(0.8366600265340756, abs=1e-12)
        assert s0[X, 0] == pytest.approx(-0.5477225575051661j, abs=1e-12)
        s1 = encode(1, BeamSplitterParams(0.3))
        assert s1[X, 0] == pytest.approx(0.8366600265340756, abs=1e-12)
        assert s1[Y, 1] == pytest.approx(-0.5477225575051661j, abs=1e-12)

    def test_symmetric_case_equal_magnitudes(self):
        for b in (0, 1):
            s = encode(b, BeamSplitterParams(0.5))
            assert abs(s[X, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert abs(s[Y, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_timing_y_packet_delayed(self):
        s = encode(0, BeamSplitterParams(0.3))
        assert np.argwhere(s).tolist() == [[X, 0], [Y, 1]]

    @pytest.mark.parametrize("R", R_GRID)
    def test_encoded_states_orthogonal(self, R):
        s0, s1 = encode(0, BeamSplitterParams(R)), encode(1, BeamSplitterParams(R))
        assert abs(np.vdot(s0, s1)) < 1e-12

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            encode(2, BeamSplitterParams(0.3))


class TestDetection:
    @pytest.mark.parametrize("R", R_GRID)
    @pytest.mark.parametrize("bit", [0, 1])
    def test_honest_point_mass(self, R, bit):
        dist = detection_distribution(encode(bit, BeamSplitterParams(R)), BeamSplitterParams(R))
        assert dist.get(DetectionEvent(bit, EXPECTED_BIN), 0.0) == pytest.approx(1.0, abs=1e-12)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("R", [0.2, 0.3, 0.7])
    def test_single_packet_split(self, R):
        # one packet on (Y,1) reaches the final splitter alone: it exits to
        # D0 with probability T and D1 with probability R
        dist = detection_distribution(packet(RAIL_Y, 1), BeamSplitterParams(R))
        assert dist[DetectionEvent(0, 1)] == pytest.approx(1 - R, abs=1e-12)
        assert dist[DetectionEvent(1, 1)] == pytest.approx(R, abs=1e-12)


    def test_sample_point_mass(self):
        rng = np.random.default_rng(0)
        bs = BeamSplitterParams(0.3)
        for _ in range(32):
            table = detection_table(encode(0, bs), bs)
            assert pick_one(table, rng.random()) == DetectionEvent(0, EXPECTED_BIN)

    def test_sample_deterministic_for_fixed_seed(self):
        bs = BeamSplitterParams(0.3)
        table = detection_table(packet(RAIL_Y, 1), bs)
        draws1 = [pick_one(table, np.random.default_rng(123).random()) for _ in range(3)]
        assert len(set(draws1)) == 1

    def test_sample_frequencies_match_distribution(self):
        bs = BeamSplitterParams(0.3)
        rng = np.random.default_rng(42)
        n = 100_000
        picks = pick_events(running_sums(detection_table(packet(RAIL_Y, 1), bs)), rng.random(n))
        hits = np.count_nonzero(picks == EVENTS.index(DetectionEvent(1, 1)))
        p = 0.3
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_sample_reads_the_running_sums(self):
        # the event whose running sum first exceeds u; past the last sum
        # (rounding can leave it below 1) the last event with a nonzero
        # probability, not the zero entries after it
        table = detection_table(packet(RAIL_Y, 1), BeamSplitterParams(0.3))
        assert [EVENTS[i] for i in np.flatnonzero(table)] == [
            DetectionEvent(0, 1), DetectionEvent(1, 1)
        ]
        sums = running_sums(table)
        d0, d1 = EVENTS.index(DetectionEvent(0, 1)), EVENTS.index(DetectionEvent(1, 1))
        assert sums[d0] == table[d0] and np.isinf(sums[d1:]).all()
        u = np.array([0.0, sums[d0], np.nextafter(1.0, 0.0), 1.0])
        assert pick_events(sums, u).tolist() == [d0, d1, d1, d1]

    def test_no_click_is_a_flag_for_either_bit(self):
        # a photon kept off the rails leaves an all-zero state: no click
        empty = detection_table(np.zeros(SHAPE, dtype=complex), BeamSplitterParams(0.3))
        assert empty.tolist() == [0.0] * len(EVENTS)
        assert flag_probability(empty, 0) == flag_probability(empty, 1) == 1.0


class TestMixTables:
    def test_single_table_at_weight_one_is_itself(self):
        # single-branch resends: the intercepted row is the resent state's
        # own table, and the bypassed row the sender's encoding
        bs = BeamSplitterParams(0.3)
        for strategy in (FullMeasureLate(), SingleChannel()):
            tables, _ = strategies.outcome_tables(strategy, bs)
            for bit in (0, 1):
                [(w, state)] = strategies.resent(strategy, bit, bs)
                assert w == 1.0
                assert np.array_equal(tables[1, bit], detection_table(state, bs))
                assert np.array_equal(tables[0, bit], detection_table(encode(bit, bs), bs))

    def test_weights_sum_per_event_in_sampling_order(self):
        bs = BeamSplitterParams(0.3)
        tables, sums = strategies.outcome_tables(BlindGuessOnTime(), bs)
        assert not tables.flags.writeable and not sums.flags.writeable
        guesses = [detection_table(encode(g, bs), bs) for g in (0, 1)]
        for bit in (0, 1):
            want = {}
            for w, table in zip((0.5, 0.5), guesses):
                for ev, p in zip(EVENTS, table.tolist()):
                    want[ev] = want.get(ev, 0.0) + w * p
            assert dict(zip(EVENTS, tables[1, bit].tolist())) == want
            # the honest D0 and D1 clicks of the two guesses, nothing else
            assert [EVENTS[i] for i in np.flatnonzero(tables[1, bit])] == [
                DetectionEvent(0, 1), DetectionEvent(1, 1)
            ]
            assert np.cumsum(tables[1, bit])[-1] == pytest.approx(1.0, abs=1e-12)


class TestInvariants:
    @given(
        R=st.floats(0.05, 0.95),
        bit=st.integers(0, 1),
        theta=st.floats(0, 2 * math.pi),
        bins=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_conserved_through_pipeline(self, R, bit, theta, bins):
        bs = BeamSplitterParams(R)
        state = encode(bit, bs)
        state = phase_apply(state, RAIL_X, theta)
        state = delay_apply(state, RAIL_X, bins)
        state = bs_apply(state, 1, bs)
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)

    @given(theta=st.floats(0, 2 * math.pi), bit=st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_global_phase_invisible(self, theta, bit):
        bs = BeamSplitterParams(0.3)
        plain = detection_distribution(encode(bit, bs), bs)
        shifted = encode(bit, bs)
        shifted = phase_apply(shifted, RAIL_X, theta)
        shifted = phase_apply(shifted, RAIL_Y, theta)
        dist = detection_distribution(shifted, bs)
        for ev in set(plain) | set(dist):
            assert dist.get(ev, 0.0) == pytest.approx(plain.get(ev, 0.0), abs=1e-12)


class TestValidation:
    def test_params_reject_out_of_range(self):
        for R in (0.0, 1.0, -0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="reflectivity"):
                BeamSplitterParams(R=R)

    def test_symmetric_splitter_is_valid(self):
        # R = T binds nothing, but the splitter builds: the blind guess and
        # the single channel both flag at 1/2, and the floor takes the blind
        # guess, first in list order, on that tie
        bs = BeamSplitterParams(R=0.5)
        for strategy in (BlindGuessOnTime(), SingleChannel()):
            for bit in (0, 1):
                p = strategies.detection_prob(strategy, bit, bs)
                assert p == pytest.approx(0.5, abs=1e-12)
        assert isinstance(strategies.floor_strategy(bs), BlindGuessOnTime)
