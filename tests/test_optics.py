import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzqbc import optics
from mzqbc.optics import (
    MAX_BIN,
    NO_CLICK,
    RAIL_X,
    RAIL_Y,
    BeamSplitterParams,
    DetectionEvent,
    Mode,
    photon_state,
    bs_apply,
    delay_apply,
    detection_table,
    encode,
    expected_event,
    flag_probability,
    mix_tables,
    phase_apply,
    sample_event,
)

R_GRID = [round(0.1 * i, 1) for i in range(1, 10)]


def params_for(R):
    return BeamSplitterParams(R=R, symmetric_ok=True)


def detection_distribution(state, params):
    """`detection_table` as an event -> probability dict."""
    table = detection_table(state, params)
    return dict(zip(table.events, table.probs))


def bs_matrix(R):
    """The 2x2 convention as an explicit matrix, for algebra checks."""
    t, r = math.sqrt(1 - R), -1j * math.sqrt(R)
    return np.array([[t, r], [r, t]])


class TestBeamSplitter:
    def test_source_input_gives_encoded_amplitudes(self):
        # photon entering the Y port with R=0.3 splits into sqrt(0.7) on Y
        # and -i*sqrt(0.3) on X
        state = photon_state({Mode(RAIL_Y, 0): 1.0})
        out = bs_apply(state, 0, params_for(0.3))
        assert out.amp(RAIL_Y, 0) == pytest.approx(math.sqrt(0.7), abs=1e-15)
        assert out.amp(RAIL_X, 0) == pytest.approx(-1j * math.sqrt(0.3), abs=1e-15)

    @pytest.mark.parametrize("R", R_GRID)
    def test_single_input_splits_T_R(self, R):
        state = photon_state({Mode(RAIL_X, 0): 1.0})
        out = bs_apply(state, 0, params_for(R))
        assert abs(out.amp(RAIL_X, 0)) ** 2 == pytest.approx(1 - R, abs=1e-12)
        assert abs(out.amp(RAIL_Y, 0)) ** 2 == pytest.approx(R, abs=1e-12)

    @pytest.mark.parametrize("R", R_GRID)
    def test_matrix_unitary(self, R):
        u = bs_matrix(R)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_double_splitter_with_pi_phase_returns_photon(self):
        # oracle: BS(0.5) . diag(1,-1) . BS(0.5) = diag(1,-1), so the photon
        # deterministically exits on its input rail
        u = bs_matrix(0.5) @ np.diag([1.0, -1.0]) @ bs_matrix(0.5)
        assert np.max(np.abs(u - np.diag([1.0, -1.0]))) < 1e-12
        state = photon_state({Mode(RAIL_X, 0): 1.0})
        state = bs_apply(state, 0, params_for(0.5))
        state = phase_apply(state, RAIL_Y, math.pi)
        state = bs_apply(state, 0, params_for(0.5))
        assert abs(state.amp(RAIL_X, 0)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_untouched_modes_pass_through(self):
        state = photon_state(
            {Mode(RAIL_X, 0): 1 / math.sqrt(2), Mode(RAIL_Y, 2): 1 / math.sqrt(2)}
        )
        out = bs_apply(state, 0, params_for(0.3))
        assert out.amp(RAIL_Y, 2) == state.amp(RAIL_Y, 2)


class TestPhaseAndDelay:
    def test_phase_zero_is_identity(self):
        state = encode(0, params_for(0.3))
        assert np.array_equal(phase_apply(state, RAIL_Y, 0.0).amps, state.amps)

    def test_phase_pi_flips_sign(self):
        state = encode(0, params_for(0.3))  # amp(Y,1) = sqrt(0.7)
        out = phase_apply(state, RAIL_Y, math.pi)
        assert out.amp(RAIL_Y, 1) == pytest.approx(-math.sqrt(0.7), abs=1e-15)

    def test_delay_zero_identity_and_shift(self):
        state = photon_state({Mode(RAIL_X, 0): 1.0})
        assert np.array_equal(delay_apply(state, RAIL_X, 0).amps, state.amps)
        assert delay_apply(state, RAIL_X, 1).amp(RAIL_X, 1) == 1.0

    def test_delay_beyond_max_bin_rejected(self):
        state = photon_state({Mode(RAIL_X, MAX_BIN): 1.0})
        with pytest.raises(ValueError):
            delay_apply(state, RAIL_X, 1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            delay_apply(photon_state({Mode(RAIL_X, 1): 1.0}), RAIL_X, -1)


class TestEncode:
    def test_encoded_amplitudes_R03(self):
        s0 = encode(0, params_for(0.3))
        assert s0.amp(RAIL_Y, 1) == pytest.approx(0.8366600265340756, abs=1e-12)
        assert s0.amp(RAIL_X, 0) == pytest.approx(-0.5477225575051661j, abs=1e-12)
        s1 = encode(1, params_for(0.3))
        assert s1.amp(RAIL_X, 0) == pytest.approx(0.8366600265340756, abs=1e-12)
        assert s1.amp(RAIL_Y, 1) == pytest.approx(-0.5477225575051661j, abs=1e-12)

    def test_symmetric_case_equal_magnitudes(self):
        for b in (0, 1):
            s = encode(b, params_for(0.5))
            assert abs(s.amp(RAIL_X, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert abs(s.amp(RAIL_Y, 1)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_timing_y_packet_delayed(self):
        s = encode(0, params_for(0.3))
        assert s.modes() == {Mode(RAIL_X, 0), Mode(RAIL_Y, 1)}

    @pytest.mark.parametrize("R", R_GRID)
    def test_encoded_states_orthogonal(self, R):
        s0, s1 = encode(0, params_for(R)), encode(1, params_for(R))
        inner = sum(
            s0.amp(*m).conjugate() * s1.amp(*m) for m in s0.modes()
        )
        assert abs(inner) < 1e-12

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            encode(2, params_for(0.3))


class TestDetection:
    @pytest.mark.parametrize("R", R_GRID)
    @pytest.mark.parametrize("bit", [0, 1])
    def test_honest_point_mass(self, R, bit):
        dist = detection_distribution(encode(bit, params_for(R)), params_for(R))
        assert dist.get(expected_event(bit), 0.0) == pytest.approx(1.0, abs=1e-12)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("R", [0.2, 0.3, 0.7])
    def test_single_packet_split(self, R):
        # one packet on (Y,1) reaches the final splitter alone: it exits to
        # D0 with probability T and D1 with probability R
        state = photon_state({Mode(RAIL_Y, 1): 1.0})
        dist = detection_distribution(state, params_for(R))
        assert dist[DetectionEvent(0, 1)] == pytest.approx(1 - R, abs=1e-12)
        assert dist[DetectionEvent(1, 1)] == pytest.approx(R, abs=1e-12)

    def test_vacuum_gives_no_click(self):
        dist = detection_distribution(optics.VACUUM, params_for(0.3))
        assert dist == {NO_CLICK: 1.0}

    def test_sample_point_mass(self):
        rng = np.random.default_rng(0)
        bs = params_for(0.3)
        for _ in range(32):
            table = detection_table(encode(0, bs), bs)
            assert sample_event(table, rng.random()) == expected_event(0)

    def test_sample_deterministic_for_fixed_seed(self):
        bs = params_for(0.3)
        state = photon_state({Mode(RAIL_Y, 1): 1.0})
        table = detection_table(state, bs)
        draws1 = [sample_event(table, np.random.default_rng(123).random()) for _ in range(3)]
        assert len(set(draws1)) == 1

    def test_sample_frequencies_match_distribution(self):
        bs = params_for(0.3)
        state = photon_state({Mode(RAIL_Y, 1): 1.0})
        rng = np.random.default_rng(42)
        n = 100_000
        table = detection_table(state, bs)
        hits = sum(sample_event(table, u) == DetectionEvent(1, 1) for u in rng.random(n).tolist())
        p = 0.3
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_sample_reads_the_running_sums(self):
        # the event whose running sum first exceeds u; past the last sum
        # (rounding can leave it below 1) the last event
        state = photon_state({Mode(RAIL_Y, 1): 1.0})
        table = detection_table(state, params_for(0.3))
        assert table.events == (DetectionEvent(0, 1), DetectionEvent(1, 1))
        assert sample_event(table, 0.0) == DetectionEvent(0, 1)
        assert sample_event(table, table.cumulative[0]) == DetectionEvent(1, 1)
        assert sample_event(table, 1.0) == DetectionEvent(1, 1)

    def test_no_click_is_a_flag_for_either_bit(self):
        vacuum = detection_table(optics.VACUUM, params_for(0.3))
        assert flag_probability(vacuum, 0) == flag_probability(vacuum, 1) == 1.0


class TestMixTables:
    def test_single_table_at_weight_one_is_itself(self):
        bs = params_for(0.3)
        table = detection_table(photon_state({Mode(RAIL_Y, 1): 1.0}), bs)
        assert mix_tables([(1.0, table)]) == table

    def test_weights_sum_per_event_in_sampling_order(self):
        bs = params_for(0.3)
        y_late = detection_table(photon_state({Mode(RAIL_Y, 2): 1.0}), bs)
        y_on_time = detection_table(photon_state({Mode(RAIL_Y, 1): 1.0}), bs)
        vacuum = detection_table(optics.VACUUM, bs)
        mixed = mix_tables([(0.25, vacuum), (0.5, y_late), (0.25, y_on_time)])
        assert mixed.events == (
            DetectionEvent(0, 1), DetectionEvent(0, 2),
            DetectionEvent(1, 1), DetectionEvent(1, 2), NO_CLICK,
        )
        want = {NO_CLICK: 0.25}
        for w, table in [(0.5, y_late), (0.25, y_on_time)]:
            for ev, p in zip(table.events, table.probs):
                want[ev] = want.get(ev, 0.0) + w * p
        assert dict(zip(mixed.events, mixed.probs)) == want
        assert mixed.cumulative[-1] == pytest.approx(1.0, abs=1e-12)


class TestInvariants:
    @given(
        R=st.floats(0.05, 0.95),
        bit=st.integers(0, 1),
        theta=st.floats(0, 2 * math.pi),
        bins=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_conserved_through_pipeline(self, R, bit, theta, bins):
        bs = params_for(R)
        state = encode(bit, bs)
        state = phase_apply(state, RAIL_X, theta)
        state = delay_apply(state, RAIL_X, bins)
        state = bs_apply(state, 1, bs)
        assert state.total_probability() == pytest.approx(1.0, abs=1e-12)

    @given(theta=st.floats(0, 2 * math.pi), bit=st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_global_phase_invisible(self, theta, bit):
        bs = params_for(0.3)
        plain = detection_distribution(encode(bit, bs), bs)
        shifted = encode(bit, bs)
        shifted = phase_apply(shifted, RAIL_X, theta)
        shifted = phase_apply(shifted, RAIL_Y, theta)
        dist = detection_distribution(shifted, bs)
        for ev in set(plain) | set(dist):
            assert dist.get(ev, 0.0) == pytest.approx(plain.get(ev, 0.0), abs=1e-12)


class TestValidation:
    def test_params_reject_out_of_range(self):
        with pytest.raises(ValueError):
            BeamSplitterParams(R=0.0)

    def test_symmetric_needs_flag(self):
        with pytest.raises(ValueError):
            BeamSplitterParams(R=0.5)
        BeamSplitterParams(R=0.5, symmetric_ok=True)

    def test_state_normalization_checked(self):
        with pytest.raises(ValueError):
            photon_state({Mode(RAIL_X, 0): 0.5})

    def test_state_rejects_unknown_rail_and_bin(self):
        with pytest.raises(ValueError):
            photon_state({Mode("Z", 0): 1.0})
        with pytest.raises(ValueError):
            photon_state({Mode(RAIL_X, MAX_BIN + 1): 1.0})
