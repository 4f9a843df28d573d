import csv
import json
import math
from collections import Counter

import numpy as np
import pytest

import codeword_oracles
from mzqbc import checks, cli, codes, config as config_mod, optics, protocol
from mzqbc.config import ConfigError, parse_config_text


HONEST_CFG = """\
# one honest session
builtin_code = extended_hamming
r = 11100000
R = 0.3
f = 0.0
epsilon = 0.5
seed = 42
alice = honest
commit_bit = 0
bob = honest
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_basic_parse(self):
        cfg = parse_config_text("a = 1\n# comment\nb= two words \n")
        assert cfg == {"a": "1", "b": "two words"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected key"):
            parse_config_text("just words\n")

    def test_canonical_hash_is_order_independent(self):
        a = parse_config_text("x = 1\ny = 2\n")
        b = parse_config_text("y = 2\nx = 1\n")
        assert config_mod.config_hash(a) == config_mod.config_hash(b)

    def test_typed_getters(self):
        cfg = {"n": "5", "x": "0.25", "grid": "1, 2,3"}
        assert config_mod.get_int(cfg, "n") == 5
        assert config_mod.get_float(cfg, "x") == 0.25
        assert config_mod.get_int_list(cfg, "grid") == [1, 2, 3]
        with pytest.raises(ConfigError, match="missing required"):
            config_mod.get_int(cfg, "absent")
        with pytest.raises(ConfigError, match="expected integer"):
            config_mod.get_int(cfg, "x")
        lists = [
            (config_mod.get_float_list, "0.5, 1,2e-1", [0.5, 1.0, 0.2], "0.5, x", "numbers"),
            (config_mod.get_int_list, "1, 2,3", [1, 2, 3], "1, 2.5", "integers"),
            (config_mod.get_str_list, " a,b , c", ["a", "b", "c"], None, "names"),
        ]
        for getter, value, want, bad, what in lists:
            assert getter({"key": value}, "key") == want
            for raw in [","] + ([bad] if bad else []):
                with pytest.raises(ConfigError) as exc:
                    getter({"key": raw}, "key")
                assert str(exc.value) == f"key 'key': expected comma-separated {what}, got {raw!r}"


class TestUnusedKeys:
    def test_misspelt_key_is_named_and_output_unchanged(self, tmp_path, capsys):
        assert cli.main(["strategies", "--format", "json"]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        cfg = write_cfg(tmp_path, "search_trails = 5\nformat = json\n")
        assert cli.main(["strategies", "--config", cfg]) == 0
        typo = capsys.readouterr()
        # the same rows (the hash covers the stray key): no search ran
        assert json.loads(typo.out)["table"] == json.loads(plain.out)["table"]
        assert typo.err == "warning: unused config key(s): search_trails\n"

    def test_keys_read_per_sweep_point_count(self, tmp_path, capsys):
        # every grid point reads r, seed and epsilon from the config; the
        # grid gives its code, so builtin_code is never read
        cfg = write_cfg(
            tmp_path, "r = 11100000\nepsilon = 0.4\nf_grid = 0.5\ntrials = 500\nbuiltin_code = golay\n"
        )
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert capsys.readouterr().err == "warning: unused config key(s): builtin_code\n"

    def test_sweep_point_keys_overridden_by_grids_are_unused(self, tmp_path, capsys):
        grids = "f_grid = 0.5\nR_grid = 0.3\nr = 11100000\ntrials = 500\n"
        assert cli.main(["sweep", "--config", write_cfg(tmp_path, grids)]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        cfg = write_cfg(tmp_path, grids + "f = 0.3\nR = 0.4\n")
        assert cli.main(["sweep", "--config", cfg]) == 0
        shadowed = capsys.readouterr()
        assert shadowed.err == "warning: unused config key(s): R, f\n"

        def rows(out):  # the config hash covers the ignored keys
            return [{k: v for k, v in row.items() if k != "config_hash"}
                    for row in csv.DictReader(out.splitlines())]

        assert rows(shadowed.out) == rows(plain.out)
        assert [row["f"] for row in rows(shadowed.out)] == ["0.5"]

    def test_csv_counterfactual_does_not_read_m(self, tmp_path, capsys):
        # the CSV grid comes from M_grid, so a single M is unused there
        assert cli.main(["counterfactual", "--format", "csv"]) == 0
        plain = capsys.readouterr()
        cfg = write_cfg(tmp_path, "M = 7\n")
        assert cli.main(["counterfactual", "--format", "csv", "--config", cfg]) == 0
        stray = capsys.readouterr()
        assert stray.err == "warning: unused config key(s): M\n"

        def rows(out):  # the config hash covers the stray key
            return [{k: v for k, v in row.items() if k != "config_hash"}
                    for row in csv.DictReader(out.splitlines())]

        assert rows(stray.out) == rows(plain.out)

    @pytest.mark.parametrize(
        "argv", [["nogo"], ["strategies"], ["counterfactual", "--format", "csv"]], ids=" ".join
    )
    def test_seed_that_is_never_drawn_from_is_unused(self, tmp_path, capsys, argv):
        # printing the seed in the provenance is not a read: the payload and
        # its hash stay, the config key is named, and --seed draws no warning
        assert cli.main(argv) == 0
        plain = capsys.readouterr()
        assert cli.main(argv + ["--config", write_cfg(tmp_path, "seed = 3\n")]) == 0
        stray = capsys.readouterr()
        assert stray.err == "warning: unused config key(s): seed\n"
        assert stray.out == plain.out.replace('"seed": 0', '"seed": 3').replace(",0\n", ",3\n")
        assert cli.main(argv + ["--seed", "3"]) == 0
        flag = capsys.readouterr()
        assert (flag.out, flag.err) == (stray.out, "")

    def test_flags_are_not_config_keys(self, capsys):
        # every subcommand takes every flag; strategies reads no seed or trials
        assert cli.main(["strategies", "--seed", "3", "--trials", "9"]) == 0
        assert capsys.readouterr().err == ""


class TestParser:
    def test_flags_may_come_before_the_command(self, capsys):
        assert cli.main(["nogo", "--seed", "3"]) == 0
        after = capsys.readouterr()
        assert cli.main(["--seed", "3", "nogo"]) == 0
        assert capsys.readouterr() == after

    @pytest.mark.parametrize(
        "argv",
        [[], ["frobnicate"], ["nogo", "--bogus"], ["nogo", "--format", "xml"]],
        ids=["missing", "unknown-command", "unknown-flag", "format-xml"],
    )
    def test_usage_error_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mzqbc: error: " in captured.err

    @pytest.mark.parametrize("command", ["strategies", "counterfactual"])
    @pytest.mark.parametrize("fmt", ["xml", "CSV"])
    def test_config_file_format_is_checked_like_the_flag(self, command, fmt, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"format = {fmt}\n")
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: format must be csv or json, got {fmt!r}\n"

    @pytest.mark.parametrize(
        "command, fmt, want",
        [
            ("run", "csv", "format must be json, got 'csv'"),
            ("nogo", "csv", "format must be json, got 'csv'"),
            ("sweep", "json", "format must be csv, got 'json'"),
            ("verify", "json", "format must be unset, got 'json'"),  # it prints text
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_format_the_command_cannot_write_exits_2(
        self, command, fmt, want, source, tmp_path, capsys
    ):
        if source == "flag":
            argv = [command, "--format", fmt]
        else:
            argv = [command, "--config", write_cfg(tmp_path, f"format = {fmt}\n")]
        assert cli.main(argv + ["--trials", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {want}\n"

    @pytest.mark.parametrize(
        "argv", [["run"], ["nogo"], ["sweep", "--trials", "100"], ["strategies"]], ids=" ".join
    )
    def test_format_the_command_writes_changes_nothing(self, argv, capsys):
        assert cli.main(argv) == 0
        plain = capsys.readouterr()
        fmt = "csv" if argv[0] in ("sweep", "strategies") else "json"
        assert cli.main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr() == plain

    def test_dispatches_a_command_patched_onto_the_module(self, monkeypatch, capsys):
        # the benchmark's tracer wraps cli.cmd_* after import
        calls = []

        def traced(cfg):
            calls.append(dict(cfg))
            return 0

        monkeypatch.setattr(cli, "cmd_nogo", traced)
        assert cli.main(["nogo", "--seed", "3"]) == 0
        assert calls == [{"seed": "3"}]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv", [["nogo"], ["strategies"], ["counterfactual", "--format", "csv"]], ids=" ".join
    )
    def test_out_file_holds_the_stdout_bytes(self, argv, tmp_path, capsys):
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "payload"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()


class TestRun:
    def test_honest_session(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HONEST_CFG)
        out = tmp_path / "transcript.json"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_mismatch"] == 0
        assert doc["alice_verdict"] == "continue"
        assert doc["unveil"] == "accept"
        assert doc["seed"] == 42
        assert "config_hash" in doc
        summary = capsys.readouterr().err
        assert "accept" in summary

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, HONEST_CFG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["run", "--config", cfg, "--out", str(out1)])
        cli.main(["run", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_fbs_probe_is_an_unknown_policy(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "alice = fbs_probe\n")
        assert cli.main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: unknown alice policy 'fbs_probe'\n"

    @pytest.mark.parametrize("bit", ["2", "-1"])
    def test_commit_bit_outside_zero_one_is_parameter_error(self, bit, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"commit_bit = {bit}\n")
        assert cli.main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: commit_bit must be 0 or 1, got {bit}\n"

    def test_non_finite_json_value_is_an_error(self):
        with pytest.raises(ValueError):
            cli._emit_json(config_mod.Config({}), {"value": math.nan})

    def test_zero_r_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "builtin_code = extended_hamming\nr = 00000000\n")
        assert cli.main(["run", "--config", cfg]) == 2
        assert "nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "nogo"])
    def test_guard_violation_exit_code(self, command, tmp_path, capsys):
        # every code is built with its minimum distance, so k = 25 is too
        # large for every subcommand
        rows = "\n".join("0" * i + "1" + "0" * (25 - i) for i in range(25))
        gen = tmp_path / "big.txt"
        gen.write_text(rows + "\n")
        cfg = write_cfg(tmp_path, f"code_file = {gen}\nr = {'1'*26}\n")
        assert cli.main([command, "--config", cfg]) == 3
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("R", ["1", "nan"])
    def test_reflectivity_outside_zero_one_is_parameter_error(self, R, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"R = {R}\n")
        assert cli.main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: reflectivity must lie in (0,1), got {float(R)}\n"

    @pytest.mark.parametrize("argv, text", [
        (["sweep", "--trials", "100"], "codes = hamming\nR_grid = 1.5\nepsilon = 0.5\n"),
        (["counterfactual"], "R = 1.5\nepsilon = 0.5\n"),
    ], ids=["sweep", "counterfactual"])
    def test_reflectivity_checked_with_epsilon_given(self, argv, text, tmp_path, capsys):
        # a given epsilon skips the optics, not the check on R
        assert cli.main(argv + ["--config", write_cfg(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reflectivity must lie in (0,1), got 1.5\n"

    @pytest.mark.parametrize("commit_bit", [0, 1])
    def test_r_orthogonal_to_the_code_is_config_error(self, tmp_path, capsys, commit_bit):
        text = HONEST_CFG.replace("r = 11100000", "r = 11100001").replace(
            "commit_bit = 0", f"commit_bit = {commit_bit}"
        )
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        assert "orthogonal" in capsys.readouterr().err

    @staticmethod
    def k22_config(tmp_path, extra=""):
        """A random (28, 22) code file and a config that commits to it."""
        rng = np.random.default_rng(3)
        while True:
            gen = rng.integers(0, 2, size=(22, 28), dtype=np.uint8)
            if codes.gf2_rank(gen) == 22 and (gen[:, :3].sum(axis=1) % 2).any():
                break
        path = tmp_path / "k22.txt"
        path.write_text("".join(codes.string_from_bits(row) + "\n" for row in gen))
        text = f"code_file = {path}\nr = {'111' + '0' * 25}\nseed = 4\n{extra}"
        return write_cfg(tmp_path, text)

    def test_run_past_codeword_matrix_guard(self, tmp_path):
        # k = 22: committing needs no codeword list
        out = tmp_path / "k22.json"
        assert cli.main(["run", "--config", self.k22_config(tmp_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["k"] == 22
        assert doc["unveil"] == "accept"

    def test_midpoint_cheat_past_codeword_matrix_guard(self, tmp_path):
        # nor does the cheat's pair, read off the stored minimum-weight words
        cfg = self.k22_config(tmp_path, "alice = midpoint_cheat\nf = 0\n")
        out = tmp_path / "k22.json"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["k"] == 22
        assert doc["committed_b"] is None
        assert doc["unveil"] == "accept"

    def test_midpoint_cheat_run(self, tmp_path):
        text = HONEST_CFG.replace("alice = honest", "alice = midpoint_cheat").replace(
            "f = 0.0", "f = 0.5"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "cheat.json"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["committed_b"] is None
        assert doc["unveil"] in (
            "accept", "reject_intercept_mismatch",
        )


class TestSweep:
    def test_grid_rows_and_columns(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "f_grid = 0, 0.25, 0.5\nbuiltin_code = extended_hamming\n"
            "r = 11100000\ntrials = 2000\nseed = 1\n",
        )
        assert cli.main(["sweep", "--config", cfg]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3
        assert rows[0]["photon_ratio"] == "10.0"
        assert "predicted_escape" in rows[0]
        assert "config_hash" in rows[0]
        # accept rate column sits next to its prediction
        header = list(rows[0])
        assert header.index("predicted_escape") == header.index("cheat_accept_rate") + 1

    def test_empty_grid_is_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "f_grid = ,\n")
        assert cli.main(["sweep", "--config", cfg]) == 2

    def test_every_point_is_checked_before_any_game(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a game ran before every point was checked")

        monkeypatch.setattr(protocol, "run_binding_experiment", refuse)
        monkeypatch.setattr(protocol, "run_concealing_experiment", refuse)
        cfg = write_cfg(tmp_path, "codes = golay\nR_grid = 0.3, 1.5\n")
        assert cli.main(["sweep", "--trials", "100000", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reflectivity must lie in (0,1), got 1.5\n"


class TestStrategies:
    def test_table_values(self, capsys):
        assert cli.main(["strategies"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 9 * 3 * 2
        by_key = {(r["strategy"], r["R"], r["bit"]): float(r["detection_prob"]) for r in rows}
        assert by_key[("blind_guess_on_time", "0.3", "0")] == pytest.approx(0.5)
        assert by_key[("full_measure_late", "0.3", "1")] == pytest.approx(1.0)
        assert by_key[("single_channel", "0.2", "0")] == pytest.approx(0.2, abs=1e-12)


class TestNogo:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "nogo.json"
        assert cli.main(["nogo", "--out", str(out), "--trials", "5"]) == 0
        doc = json.loads(out.read_text())
        assert doc["code"] == "(3,1,3)"
        assert doc["max_deviation"] <= 1e-9
        assert doc["posteriors"]["no_knowledge"] == [0.5, 0.5]
        assert doc["overlaps"]["reduced_overlap"] == pytest.approx(0.0, abs=1e-12)

    def test_extended_hamming_with_r(self, tmp_path):
        cfg = write_cfg(tmp_path, "builtin_code = extended_hamming\nr = 10000000\n")
        out = tmp_path / "nogo.json"
        assert cli.main(["nogo", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["code"] == "(8,4,4)"
        assert doc["max_deviation"] <= 1e-9
        assert doc["max_overlap_deviation"] <= 1e-9
        assert doc["overlaps"]["reduced_trace_distance"] == 1.0
        assert doc["overlaps"]["reduced_overlap"] == 0.0
        assert doc["posteriors"]["mean_max_with_intercepted_known"] == 1.0

    def test_open_parity_overlap_is_two_to_the_minus_rank(self, tmp_path):
        # positions 2 and 3 carry two independent message bits, neither of
        # them the parity bit 1: four equally likely patterns on both sides
        cfg = write_cfg(
            tmp_path,
            "builtin_code = extended_hamming\nr = 10000000\n"
            "modes = bypass, intercept, intercept, bypass, bypass, bypass, bypass, bypass\n",
        )
        out = tmp_path / "nogo.json"
        assert cli.main(["nogo", "--config", cfg, "--out", str(out), "--trials", "3"]) == 0
        doc = json.loads(out.read_text())
        assert doc["overlaps"]["reduced_overlap"] == 0.25
        assert doc["overlaps"]["reduced_trace_distance"] == 0.0
        assert doc["posteriors"]["mean_max_with_intercepted_known"] == 0.5
        assert doc["max_overlap_deviation"] <= 1e-9

    def test_unread_keys_leave_the_provenance_alone(self, tmp_path, capsys):
        # nogo never reads `trials`: identical payloads, identical bytes; a
        # key it reads is hashed
        assert cli.main(["nogo"]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["nogo", "--trials", "3"]) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["config_hash"] == config_mod.config_hash({})
        cfg = write_cfg(tmp_path, "builtin_code = repetition\ntrials = 3\n")
        assert cli.main(["nogo", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config_hash"] == config_mod.config_hash({"builtin_code": "repetition"})

    def test_self_dual_code_needs_an_explicit_r(self, tmp_path, capsys):
        # r = 1...1 is a codeword of the self-dual extended Hamming code
        cfg = write_cfg(tmp_path, "builtin_code = extended_hamming\n")
        assert cli.main(["nogo", "--config", cfg]) == 2
        assert "r is orthogonal to every codeword" in capsys.readouterr().err

    def test_unknown_mode_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "modes = intercept, measure, bypass\n")
        assert cli.main(["nogo", "--config", cfg]) == 2
        assert "unknown mode 'measure'" in capsys.readouterr().err

    @staticmethod
    def counted(code, r, intercepted):
        """Trace distance and overlap of the receiver's two states, counted
        over the codewords: the pattern on the intercepted positions, per
        parity."""
        words = codeword_oracles.codewords(code)
        probs = []
        for b in (0, 1):
            half = words[words @ r % 2 == b][:, intercepted]
            probs.append({x: n / len(half) for x, n in Counter(map(bytes, half)).items()})
        p0, p1 = probs
        distance = sum(abs(p0.get(x, 0.0) - p1.get(x, 0.0)) for x in p0.keys() | p1.keys()) / 2
        return distance, sum(p0[x] * p1[x] for x in p0.keys() & p1.keys())

    def test_golay_matches_pattern_counting(self, tmp_path):
        code = codes.golay_24_12()
        r = np.eye(1, 24, dtype=np.uint8)[0]
        open_s = np.zeros(24, dtype=bool)
        open_s[1:8] = True  # {0, ..., 7} is no octad: position 0 stays open
        information_set = np.arange(24) < 12
        for intercepted, want in ((open_s, (0.0, 2.0**-7)), (information_set, (1.0, 0.0))):
            modes = ", ".join("intercept" if x else "bypass" for x in intercepted)
            cfg = write_cfg(
                tmp_path, f"builtin_code = golay\nr = 1{'0' * 23}\nmodes = {modes}\n"
            )
            out = tmp_path / "nogo.json"
            assert cli.main(["nogo", "--config", cfg, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc["code"] == "(24,12,8)"
            got = (
                doc["overlaps"]["reduced_trace_distance"],
                doc["overlaps"]["reduced_overlap"],
            )
            assert got == want
            assert self.counted(code, r, intercepted) == pytest.approx(want, abs=1e-12)
            assert doc["max_deviation"] == doc["max_overlap_deviation"] == 0.0


class TestCounterfactual:
    def test_json_report(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "builtin_code = extended_hamming\nr = 11100000\nf = 0.25\n"
            "M = 50\nsessions = 10\nseed = 2\n",
        )
        out = tmp_path / "attack.json"
        assert cli.main(["counterfactual", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["reports"]) == {"defense_off", "defense_on"}
        assert doc["reports"]["defense_off"]["mode_accuracy"] >= 0.99

    def test_unknown_defense_is_parameter_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "defense = maybe\nM = 5\nsessions = 2\n")
        assert cli.main(["counterfactual", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: defense must be on, off, or both\n"

    @pytest.mark.parametrize("which", ["off", "on"])
    def test_one_defense_setting(self, which, tmp_path, capsys):
        common = "M = 50\nsessions = 10\nseed = 5\n"
        docs = {}
        for setting in (which, "both"):
            cfg = write_cfg(tmp_path, f"{common}defense = {setting}\n", name=f"{setting}.cfg")
            assert cli.main(["counterfactual", "--config", cfg]) == 0
            docs[setting] = json.loads(capsys.readouterr().out)
        key = f"defense_{which}"
        assert list(docs[which]["reports"]) == [key]
        if which == "off":
            # the undefended attack draws first, so both runs see the same draws
            assert docs["off"]["reports"] == {key: docs["both"]["reports"][key]}
        else:
            assert docs["on"]["reports"][key]["defense_on"] is True
            assert docs["on"]["reports"][key]["mean_Dc_bypass"] < 1.0

    def test_csv_grid(self, capsys):
        assert cli.main(["counterfactual", "--format", "csv"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 4 * 13
        assert all(float(r["Dc_intercept"]) == 0.0 for r in rows)


NON_POSITIVE_COUNTS = {
    "sweep-trials-0": (["sweep", "--trials", "0"], ""),
    "sweep-trials-negative": (["sweep", "--trials", "-5"], ""),
    "sweep-threads-0": (["sweep", "--threads", "0"], ""),
    "sweep-threads-negative": (["sweep", "--threads", "-3"], ""),
    # the predecessor scheme's sending slots per photon
    "sweep-s_over_n-0": (["sweep"], "s_over_n = 0\n"),
    "sweep-s_over_n-negative": (["sweep"], "s_over_n = -2\n"),
    "counterfactual-sessions-0": (["counterfactual"], "sessions = 0\n"),
    "counterfactual-csv-M-0": (["counterfactual", "--format", "csv"], "M_grid = 1, 0\n"),
    "counterfactual-csv-M-negative": (["counterfactual", "--format", "csv"], "M_grid = 1, -3\n"),
    "counterfactual-csv-theta_points-0": (["counterfactual", "--format", "csv"], "theta_points = 0\n"),
    "counterfactual-csv-theta_points-negative": (
        ["counterfactual", "--format", "csv"], "theta_points = -2\n"),
}


@pytest.mark.parametrize("case", list(NON_POSITIVE_COUNTS))
def test_non_positive_count_is_parameter_error(case, tmp_path, capsys):
    argv, text = NON_POSITIVE_COUNTS[case]
    assert cli.main(argv + ["--config", write_cfg(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


class TestVerify:
    def test_pristine_build_passes(self, capsys):
        for seed in (0, 362, 1758924355):  # 362 and 1758924355 failed a sampled posterior check
            assert cli.main(["verify", "--seed", str(seed)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 9
            assert all(line.startswith("PASS ") and ", margin +" in line for line in lines)

    def test_removed_knobs_are_ignored(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "tol_mz = 1e-20\nperturb_bs = true\ntol_posterior_sigmas = 0\n")
        assert cli.main(["verify", "--config", cfg]) == 0
        assert capsys.readouterr().err == (
            "warning: unused config key(s): perturb_bs, tol_mz, tol_posterior_sigmas\n"
        )

    def test_perturbed_convention_fails(self, monkeypatch, capsys):
        encode = optics.encode

        def quarter_wave_error(bit, bs):  # a quarter-wave error on rail X
            return optics.phase_apply(encode(bit, bs), optics.RAIL_X, math.pi / 2)

        monkeypatch.setattr(optics, "encode", quarter_wave_error)
        assert cli.main(["verify"]) == 1
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "mz_determinism" in ln]
        assert line.startswith("FAIL mz_determinism")
        assert ", margin -" in line

    @pytest.mark.parametrize("shift, ok, margin", [
        (0.0, True, "margin +5.200e-03"),
        (0.01, False, "margin -4.800e-03"),  # a closed form off by 0.01
    ], ids=["exact", "shifted"])
    def test_posterior_oracle_prints_the_comparison_that_holds(
        self, monkeypatch, shift, ok, margin
    ):
        closed_form = protocol.intercept_posterior
        monkeypatch.setattr(protocol, "intercept_posterior", lambda f, e: closed_form(f, e) + shift)
        (res,) = checks.intercept_posterior_oracle()
        assert res.name == "intercept_posterior_oracle.grid_deviation"
        assert res.passed is ok and res.summary.endswith(margin)
