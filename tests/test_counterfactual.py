import json
import math

import numpy as np
import pytest

import codeword_oracles
import protocol_oracles
from mzqbc import cli, codes, kernels, optics, protocol
from mzqbc import counterfactual as cf_module
from mzqbc.counterfactual import (
    FbsConfig,
    attack_session,
    blocked_dd_probability,
    fbs_sweep_rows,
    probe_chain,
)


def make_params(f=0.25, seed=0):
    return protocol.ProtocolParams(
        code=codes.extended_hamming_8_4(),
        r=codes.bits_from_string("11100000"),
        R=0.3,
        f=f,
        epsilon=0.5,
        seed=seed,
    )


class TestProbeChain:
    @pytest.mark.parametrize("m", [1, 3, 7, 25, 100])
    def test_unblocked_transfers_completely(self, m):
        dc, _, absorbed = probe_chain(m, [0.0])
        assert dc[0] == pytest.approx(1.0, abs=1e-12)
        assert absorbed[0] == 0.0

    @pytest.mark.parametrize("m", [1, 5, 25, 100])
    def test_blocked_matches_closed_form(self, m):
        dc, dd, _ = probe_chain(m, [0.0], blocked=True)
        assert dd[0] == pytest.approx(blocked_dd_probability(m), abs=1e-12)
        assert dc[0] == 0.0

    def test_blocked_m25_value(self):
        assert blocked_dd_probability(25) == pytest.approx(0.9059591594, abs=1e-9)

    def test_blocked_loss_shrinks_with_m(self):
        losses = [
            1 - probe_chain(m, [0.0], blocked=True)[1][0] for m in (1, 2, 4, 8, 16, 32, 64, 128)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        assert 1 - probe_chain(100, [0.0], blocked=True)[1][0] <= 0.05

    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.0, math.pi])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_probability_conservation(self, theta, blocked):
        total = sum(probe_chain(40, [theta], blocked))
        assert total[0] == pytest.approx(1.0, abs=1e-12)

    def test_defense_phase_suppresses_transfer(self):
        # far from the zero-phase resonance the transfer nearly vanishes
        assert probe_chain(100, [math.pi])[0][0] < 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FbsConfig(cycles=0)

    @pytest.mark.parametrize("m", [1, 5, 25, 50, 100, 200, 1000])
    def test_batched_chain_matches_scalar_loop_bit_for_bit(self, m):
        # signed zeros, a full turn, a tiny phase and a large one
        # go through the stacked buffer's negated and broadcast products
        edges = [0.0, -0.0, math.pi, 2 * math.pi, 1e-300, 1e6]
        thetas = np.concatenate([edges, np.random.default_rng(m).random(1200) * (2 * math.pi)])
        dc, dd, absorbed = probe_chain(m, thetas)
        for theta, got in zip(thetas.tolist(), zip(dc.tolist(), dd.tolist(), absorbed.tolist())):
            want = protocol_oracles.fbs_run(m, False, theta)
            assert got == (want["Dc"], want["Dd"], want["Absorbed"])
        blocked = [a.tolist() for a in probe_chain(m, thetas[:3], blocked=True)]
        want = protocol_oracles.fbs_run(m, True)
        assert blocked == [[want[key]] * 3 for key in ("Dc", "Dd", "Absorbed")]
        for flag in (False, True):
            assert [p.tolist() for p in probe_chain(m, [], flag)] == [[], [], []]


class TestDefenseInvariance:
    def test_zero_phase_identical(self):
        bs = optics.BeamSplitterParams(R=0.3)
        dist = protocol_oracles.defense_honest_invariance(0, 0.0, bs)
        table = optics.detection_table(optics.encode(0, bs), bs)
        assert dist == protocol_oracles.table_distribution(table)

    def test_arbitrary_phase_keeps_point_mass(self):
        bs = optics.BeamSplitterParams(R=0.3)
        dist = protocol_oracles.defense_honest_invariance(0, 1.234, bs)
        honest = optics.DetectionEvent(0, optics.EXPECTED_BIN)
        assert dist.get(honest, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_hundred_phase_sweep(self):
        bs = optics.BeamSplitterParams(R=0.3)
        for bit in (0, 1):
            for k in range(100):
                theta = 2 * math.pi * k / 100
                dist = protocol_oracles.defense_honest_invariance(bit, theta, bs)
                honest = optics.DetectionEvent(bit, optics.EXPECTED_BIN)
                assert dist.get(honest, 0.0) == pytest.approx(1.0, abs=1e-12)


class TestAttack:
    def test_defense_off_identifies_modes(self):
        rng = np.random.default_rng(5)
        rep = attack_session(make_params(), False, FbsConfig(cycles=200), rng, sessions=60)
        assert rep["mode_accuracy"] >= 0.99
        assert rep["mean_Dc_bypass"] == pytest.approx(1.0, abs=1e-12)
        assert rep["cheat_success_rate"] > 0.2

    def test_attack_runs_the_chain_once_per_call(self, monkeypatch):
        calls = []

        def counted(cycles, thetas, blocked=False):
            calls.append((len(thetas), blocked))
            return probe_chain(cycles, thetas, blocked)

        monkeypatch.setattr(cf_module, "probe_chain", counted)
        params = make_params()
        for defense_on in (False, True):
            for sessions in (1, 10):
                calls.clear()
                rng = np.random.default_rng(5)
                attack_session(params, defense_on, FbsConfig(cycles=50), rng, sessions=sessions)
                # one unblocked chain: a single phase 0 without the defense,
                # the bypass photons of every session with it
                bypassed = np.count_nonzero(
                    np.random.default_rng(5).random((sessions, params.n)) >= params.f
                )
                assert calls == [(bypassed if defense_on else 1, False)]

    @pytest.mark.parametrize("cycles", [5, 50, 200])
    @pytest.mark.parametrize("sessions", [1, 10, 60])
    def test_undefended_dc_is_the_scalar_chain_at_phase_zero(self, cycles, sessions):
        # every bypassed photon sees phase 0: the report is that one chain's
        # Dc as computed, not a mean of copies of it
        rep = attack_session(
            make_params(), False, FbsConfig(cycles=cycles), np.random.default_rng(5),
            sessions=sessions,
        )
        assert rep["mean_Dc_bypass"] == protocol_oracles.fbs_run(cycles, False, 0.0)["Dc"]

    def test_intercepted_probe_never_reaches_dc(self):
        dc, _, _ = probe_chain(50, [0.0, 1.0, 2.5], blocked=True)
        assert dc.tolist() == [0.0, 0.0, 0.0]

    def test_defense_on_blinds_the_probe(self):
        rng = np.random.default_rng(5)
        off = attack_session(make_params(), False, FbsConfig(cycles=200), rng, sessions=60)
        on = attack_session(make_params(), True, FbsConfig(cycles=200), rng, sessions=60)
        assert on["mean_Dc_bypass"] < 1.0
        assert on["mode_accuracy"] < off["mode_accuracy"]
        assert on["cheat_success_rate"] < off["cheat_success_rate"]

    def test_no_intercept_reads_every_mode_and_always_cheats(self):
        rng = np.random.default_rng(8)
        rep = attack_session(make_params(f=0.0), False, FbsConfig(cycles=50), rng, sessions=40)
        assert rep["mode_accuracy"] == 1.0
        assert rep["cheat_success_rate"] == 1.0

    @pytest.mark.parametrize("defense_on", [False, True])
    def test_full_intercept_reads_every_mode_and_never_cheats(self, defense_on):
        rng = np.random.default_rng(8)
        rep = attack_session(make_params(f=1.0), defense_on, FbsConfig(cycles=50), rng, sessions=40)
        assert rep["mode_accuracy"] == 1.0
        assert rep["cheat_success_rate"] == 0.0
        assert rep["mean_Dc_bypass"] is None

    def test_cli_prints_null_when_no_photon_is_bypassed(self, tmp_path, capsys):
        cfg = tmp_path / "attack.cfg"
        cfg.write_text("builtin_code = extended_hamming\nf = 1\nM = 5\nsessions = 3\n")
        assert cli.main(["counterfactual", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(text, parse_constant=reject)
        assert set(doc["reports"]) == {"defense_off", "defense_on"}
        for rep in doc["reports"].values():
            assert rep["mean_Dc_bypass"] is None
            assert rep["mode_accuracy"] == 1.0

    @pytest.mark.parametrize("f", [0.1, 0.25])
    def test_defended_mode_accuracy_follows_the_mode_law(self, f):
        # an intercepted photon is always read right, a bypassed one with
        # probability P(Dc); intercepting with probability 1 - f instead
        # would read 1 - f + f * P(Dc)
        sessions = 2500
        rep = attack_session(
            make_params(f=f), True, FbsConfig(cycles=20), np.random.default_rng(11),
            sessions=sessions,
        )
        dc = rep["mean_Dc_bypass"]
        p = f + (1 - f) * dc
        sigma = math.sqrt(p * (1 - p) / (sessions * 8))
        assert abs(rep["mode_accuracy"] - p) < 4 * sigma
        assert abs(1 - f + f * dc - p) > 8 * sigma

    def test_attack_runs_no_commit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the attack must not run a commit")

        monkeypatch.setattr(protocol, "run_commit", refuse)
        for defense_on in (False, True):
            rep = attack_session(
                make_params(), defense_on, FbsConfig(cycles=50), np.random.default_rng(2),
                sessions=5,
            )
            assert rep["sessions"] == 5

    def test_honest_protocol_unaffected_by_defense(self):
        # the sender's own statistics stay exact while the defense runs
        params = make_params(f=0.0)
        rng = np.random.default_rng(3)
        t = protocol.run_commit(
            protocol.HonestAlice(0), protocol.HonestBob(f=0.0), params, rng
        )
        assert t.n_mismatch == 0
        assert t.alice_verdict == protocol.CONTINUE


class TestTryFlip:
    """The attack's flip test, a session cheats iff the positions she keeps
    leave the parity open, against unveiling the first flipped codeword."""

    @staticmethod
    def flip_exists(code, r, inferred_bypass):
        t = codes.message_mask(code, r)
        return not kernels.parity_determined(code.generator, t, ~inferred_bypass[None, :])[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_codeword_search(self, seed):
        # the probe labels a subset of the true bypass positions as bypass
        rng = np.random.default_rng(900 + seed)
        factories = [codes.hamming_7_4, codes.extended_hamming_8_4, codes.golay_24_12]
        if seed < len(factories):
            code = factories[seed]()
        else:
            n = int(rng.integers(8, 15))
            code = codes.random_code(n, int(rng.integers(2, n - 2)), rng)
        verdicts = []
        while len(verdicts) < 40:
            r = rng.integers(0, 2, size=code.n, dtype=np.uint8)
            if not r.any() or not codes.message_mask(code, r).any():
                continue
            f = float(rng.uniform(0.0, 0.6))
            params = protocol.ProtocolParams(code=code, r=r, R=0.3, f=f, epsilon=0.5)
            t = protocol.run_commit(
                protocol.HonestAlice(int(rng.integers(2))), protocol.HonestBob(f=f), params, rng
            )
            bypass = np.array([m == protocol.BYPASS for m in t.modes])
            inferred = bypass & (rng.random(code.n) < 0.9)
            got = self.flip_exists(code, r, inferred)
            assert got == codeword_oracles.try_flip(t, inferred.tolist())
            verdicts.append(got)
        assert set(verdicts) == {False, True}

    def test_beyond_materialize_guard(self):
        code = codes.random_code(28, 22, np.random.default_rng(5))
        r = np.zeros(code.n, dtype=np.uint8)
        r[:2] = 1
        assert self.flip_exists(code, r, np.ones(code.n, dtype=bool)) is True
        assert self.flip_exists(code, r, np.zeros(code.n, dtype=bool)) is False


def test_sweep_rows_cardinality_and_fields():
    rows = fbs_sweep_rows([1, 5], [0.0, 1.0, 2.0])
    assert len(rows) == 6
    assert set(rows[0]) == {
        "M", "theta", "Dc_bypass", "Dd_bypass", "Dc_intercept",
        "Dd_intercept", "absorbed_intercept",
    }
    for row in rows:
        assert row["Dc_intercept"] == 0.0
