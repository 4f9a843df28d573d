"""Batch experiment runner.

One parser, built at import: `mzqbc COMMAND [flags]`, the flags in any
order around the command; `main` runs the module's `cmd_COMMAND` as it
stands at the call.  Commands, with the formats they write (default
first): run (one session; json), sweep (parameter grids; csv), strategies
(detection-probability table; csv, json), nogo (operator-model report;
json), counterfactual (probe attack report, json, or probe-chain grid,
csv), verify (invariant suite; text only).

Exit codes: 0 success, 2 config or parameter error (a format the command
cannot write among them), 3 size-guard violation, and 1 from `verify`
when an invariant fails.  All randomness
flows from one master seed (per-trial blocks are split deterministically),
and every CSV/JSON emission carries the config hash and seed; a CSV's
columns are its rows' keys, in order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import codes as codes_mod
from . import config as config_mod
from . import checks, counterfactual, operator_model, optics, protocol, strategies
from .config import ConfigError
from .util import GuardError

_FORMATS = ("csv", "json")

#: each command and the formats it writes, its default first
_WRITES = {"run": ("json",), "sweep": ("csv",), "strategies": ("csv", "json"),
           "nogo": ("json",), "counterfactual": ("json", "csv"), "verify": ()}

_PARSER = argparse.ArgumentParser(
    prog="mzqbc",
    description="Interferometric bit-commitment simulator and analysis runner",
)
_PARSER.add_argument("command", choices=_WRITES)
_PARSER.add_argument("--config", help="key = value config file")
_PARSER.add_argument("--seed", type=int, help="master seed (overrides config)")
_PARSER.add_argument("--out", help="output path (default: stdout)")
_PARSER.add_argument("--format", choices=_FORMATS, help="output format")
_PARSER.add_argument("--trials", type=int, help="trial count (overrides config)")
_PARSER.add_argument("--threads", type=int, help="worker threads (overrides config)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        loaded = config_mod.load_config(args.config) if args.config else {}
        cfg = _merge_config(args, loaded)
        _format(cfg, args.command)  # before the command writes anything
        # looked up per call, so that a function patched onto this module
        # (the benchmark's tracer wraps cmd_*) is the one dispatched
        status = globals()[f"cmd_{args.command}"](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    unused = sorted(set(loaded) - cfg.read)
    if unused:
        print(f"warning: unused config key(s): {', '.join(unused)}", file=sys.stderr)
    return status


def _merge_config(args, loaded: dict[str, str]) -> config_mod.Config:
    cfg = config_mod.Config(loaded)
    for key in ("seed", "out", "format", "trials", "threads"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = str(val)
    return cfg


# --- shared pieces ------------------------------------------------------------

def _load_code(cfg, default: str = "extended_hamming") -> codes_mod.LinearCode:
    path = config_mod.get_str(cfg, "code_file", None)
    if path is not None:
        return codes_mod.read_generator_file(path)
    name = config_mod.get_str(cfg, "builtin_code", default)
    return codes_mod.builtin_code(name)


def _load_params(cfg, code=None, R=None, f=None) -> protocol.ProtocolParams:
    code = code or _load_code(cfg)
    r_raw = config_mod.get_str(cfg, "r", None)
    seed = config_mod.get_int(cfg, "seed", 0)
    if r_raw is None:
        r = _default_r(code, seed)
    else:
        r = codes_mod.bits_from_string(r_raw)
    if R is None:
        R = config_mod.get_float(cfg, "R", 0.3)
    eps = config_mod.get_float(cfg, "epsilon", None)
    if f is None:
        f = config_mod.get_float(cfg, "f", 0.25)
    return protocol.ProtocolParams(code=code, r=r, R=R, f=f, epsilon=eps, seed=seed)


def _default_r(code, seed) -> np.ndarray:
    """A deterministic nonzero mask with both committed subsets nonempty."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11CE)))
    for _ in range(1000):
        r = rng.integers(0, 2, size=code.n, dtype=np.uint8)
        if r.any() and codes_mod.message_mask(code, r).any():
            return r
    raise ValueError("could not find a usable r; supply one explicitly")


def _alice_policy(cfg) -> protocol.AlicePolicy:
    name = config_mod.get_str(cfg, "alice", "honest")
    if name == "honest":
        return protocol.HonestAlice(bit=config_mod.get_int(cfg, "commit_bit", 0))
    if name == "midpoint_cheat":
        return protocol.MidpointCheatAlice()
    raise ConfigError(f"unknown alice policy {name!r}")


def _bob_policy(cfg) -> protocol.BobPolicy:
    name = config_mod.get_str(cfg, "bob", "honest")
    if name == "honest":
        return protocol.HonestBob(f=config_mod.get_float(cfg, "f", 0.25))
    if name == "full_intercept":
        return protocol.FullInterceptBob()
    if name == "partial_intercept":
        return protocol.PartialInterceptBob(m=config_mod.get_int(cfg, "m"))
    raise ConfigError(f"unknown bob policy {name!r}")


# the provenance hash covers the keys the subcommand read, less these, so a
# key it ignores (`trials` to `nogo`) leaves the hash alone, and printing
# the seed reads no key (an ignored `seed` is warned about).  `out` and
# `threads` never change a payload (trial blocks are seed-split
# independently of the worker count).  `format` is not presentation-only:
# `counterfactual --format csv` computes the probe-chain grid in place of
# the attack report, under the same hash
_NON_SEMANTIC_KEYS = frozenset({"out", "format", "threads"})


def _provenance(cfg) -> dict:
    semantic = {k: cfg[k] for k in cfg.read & cfg.keys() - _NON_SEMANTIC_KEYS}
    return {
        "config_hash": config_mod.config_hash(semantic),
        "seed": config_mod.get_int(dict(cfg), "seed", 0),
    }


def _format(cfg, command: str) -> str | None:
    """The format `command` writes: `format` when set, else its default
    (None for `verify`, which prints text).  Any other is a config error."""
    writes = _WRITES[command]
    fmt = config_mod.get_str(cfg, "format", writes[0] if writes else None)
    if fmt not in (*writes, None):
        raise ConfigError(f"format must be {' or '.join(sorted(writes)) or 'unset'}, got {fmt!r}")
    return fmt


def _write(cfg, text: str) -> None:
    out = config_mod.get_str(cfg, "out", None)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _emit_json(cfg, obj) -> None:
    payload = {**_provenance(cfg), **obj}
    _write(cfg, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _emit_csv(cfg, rows: list[dict]) -> None:
    """One line per row under a header of the first row's keys, each row
    stamped with the provenance; `rows` is never empty."""
    prov = _provenance(cfg)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[*rows[0], *prov], lineterminator="\n")
    writer.writeheader()
    writer.writerows({**row, **prov} for row in rows)
    _write(cfg, buf.getvalue())


# --- subcommands --------------------------------------------------------------

def cmd_run(cfg) -> int:
    params = _load_params(cfg)
    rng = np.random.default_rng(params.seed)
    alice = _alice_policy(cfg)
    bob = _bob_policy(cfg)
    transcript = protocol.run_commit(alice, bob, params, rng)
    if isinstance(alice, protocol.MidpointCheatAlice):
        announcement = protocol.Announcement(
            b=codes_mod.parity(transcript.cheat_target, params.r),
            c=transcript.cheat_target,
        )
    else:
        announcement = protocol.honest_announcement(transcript)
    unveil = protocol.run_unveil(transcript, announcement)
    doc = protocol.transcript_to_dict(transcript)
    doc["announcement"] = {
        "b": announcement.b,
        "c": codes_mod.string_from_bits(announcement.c),
    }
    doc["unveil"] = unveil
    _emit_json(cfg, doc)
    _print_summary(transcript, unveil)
    return 0


def _print_summary(transcript, unveil) -> None:
    p = transcript.params
    lines = [
        ("code", f"({p.code.n},{p.code.k},{p.code.d})"),
        ("r", codes_mod.string_from_bits(p.r)),
        ("R / f / epsilon", f"{p.R} / {p.f} / {p.epsilon}"),
        ("codeword sent", codes_mod.string_from_bits(transcript.codeword)),
        ("intercepted", str(sum(m == protocol.INTERCEPT for m in transcript.modes))),
        ("mismatches n'", str(transcript.n_mismatch)),
        ("f estimate", f"{transcript.f_estimate:.4f} (abort at {p.threshold:.4f})"),
        ("alice verdict", transcript.alice_verdict),
        ("unveil", unveil),
    ]
    width = max(len(k) for k, _ in lines)
    for key, val in lines:
        print(f"{key.ljust(width)}  {val}", file=sys.stderr)


def cmd_sweep(cfg) -> int:
    f_grid = config_mod.get_float_list(cfg, "f_grid", [0.0, 0.25, 0.5])
    r_grid = config_mod.get_float_list(cfg, "R_grid", None)
    if r_grid is None:
        r_grid = [config_mod.get_float(cfg, "R", 0.3)]
    code_names = config_mod.get_str_list(cfg, "codes", ["extended_hamming"])
    trials = config_mod.get_int(cfg, "trials", 10000)
    threads = config_mod.get_int(cfg, "threads", 1)
    s_over_n = config_mod.get_float(cfg, "s_over_n", 10.0)
    if not f_grid or not r_grid or not code_names:
        raise ConfigError("empty sweep grid")
    if not s_over_n > 0:
        raise ConfigError(f"s_over_n must be > 0, got {s_over_n}")
    # every point's parameters are checked before the first game runs
    points = []
    for name in code_names:
        code = codes_mod.builtin_code(name)
        for R in r_grid:
            for f in f_grid:
                points.append((name, R, f, _load_params(cfg, code=code, R=R, f=f)))
    rows = []
    for name, R, f, params in points:
        code = params.code
        binding = protocol.run_binding_experiment(params, trials, threads=threads)
        m = int(round(f * code.n))
        concealing = protocol.run_concealing_experiment(params, m, trials, threads=threads)
        eff = protocol.efficiency_metrics(params, s_over_n=s_over_n)
        rows.append(
            {
                "code": name,
                "n": code.n,
                "k": code.k,
                "d": code.d,
                "R": R,
                "f": f,
                "epsilon": params.epsilon,
                "trials": trials,
                "abort_frequency": concealing["abort_frequency"],
                "proceed_trials": binding["proceed_trials"],
                "cheat_accept_rate": binding["accept_rate_among_proceed"],
                "predicted_escape": binding["predicted_escape"],
                "mean_posterior_true_bit": concealing["mean_posterior_true_bit"],
                "mean_max_posterior": concealing["mean_max_posterior"],
                "photons_current": eff["photons_current"],
                "photons_prior": eff["photons_prior"],
                "photon_ratio": eff["photon_ratio"],
                "duration_current": eff["duration_current"],
                "duration_prior": eff["duration_prior"],
                "duration_ratio": eff["duration_ratio"],
            }
        )
    _emit_csv(cfg, rows)
    return 0


def cmd_strategies(cfg) -> int:
    r_grid = config_mod.get_float_list(
        cfg, "R_grid", [round(0.1 * i, 1) for i in range(1, 10)]
    )
    rows = strategies.strategy_table_rows(r_grid)
    if config_mod.get_int(cfg, "search_trials", 0) > 0:
        # the floor strategy is exact (`strategies.floor_strategy`): its
        # rows of the table, relabelled, are the search's best
        floor = {
            R: strategies.strategy_name(strategies.floor_strategy(optics.BeamSplitterParams(R=R)))
            for R in r_grid
        }
        rows += [
            {**row, "strategy": "search_best"} for row in rows if row["strategy"] == floor[row["R"]]
        ]
    if _format(cfg, "strategies") == "json":
        _emit_json(cfg, {"table": rows})
    else:
        _emit_csv(cfg, rows)
    return 0


def cmd_nogo(cfg) -> int:
    code = _load_code(cfg, default="repetition")
    r_raw = config_mod.get_str(cfg, "r", "1" * code.n)
    r = codes_mod.bits_from_string(r_raw)
    modes = config_mod.get_str_list(cfg, "modes", ["intercept"] + ["bypass"] * (code.n - 1))
    intercepted = operator_model.intercept_mask(modes, code.n)
    distance, reduced_overlap = operator_model.reduced_states(code, r, intercepted)
    # r is not orthogonal to the code, so knowing nothing leaves the bit at
    # exactly 1/2; the records tell the bits apart with Helstrom's (1 + D)/2
    posteriors = {
        "no_knowledge": (0.5, 0.5),
        "mean_max_with_intercepted_known": (1.0 + distance) / 2,
    }
    _emit_json(
        cfg,
        {
            "code": f"({code.n},{code.k},{code.d})",
            "r": codes_mod.string_from_bits(r),
            "modes": modes,
            # exact: the receiver's state depends on a unitary V on the
            # returned qubits only through diag(V^dagger V) = 1
            "max_deviation": 0.0,
            "max_overlap_deviation": 0.0,
            "overlaps": {
                "reduced_overlap": reduced_overlap,
                "reduced_trace_distance": distance,
            },
            "posteriors": posteriors,
        },
    )
    return 0


def cmd_counterfactual(cfg) -> int:
    if _format(cfg, "counterfactual") == "csv":
        m_grid = config_mod.get_int_list(cfg, "M_grid", [1, 5, 25, 100])
        points = config_mod.get_int(cfg, "theta_points", 13)
        if points < 1:
            raise ConfigError("theta_points must be >= 1")
        thetas = [2 * math.pi * i / points for i in range(points)]
        _emit_csv(cfg, counterfactual.fbs_sweep_rows(m_grid, thetas))
        return 0
    params = _load_params(cfg)
    rng = np.random.default_rng(params.seed)
    sessions = config_mod.get_int(cfg, "sessions", 100)
    fbs = counterfactual.FbsConfig(cycles=config_mod.get_int(cfg, "M", 100))
    reports = {}
    which = config_mod.get_str(cfg, "defense", "both")
    if which in ("off", "both"):
        reports["defense_off"] = counterfactual.attack_session(
            params, False, fbs, rng, sessions=sessions
        )
    if which in ("on", "both"):
        reports["defense_on"] = counterfactual.attack_session(
            params, True, fbs, rng, sessions=sessions
        )
    if not reports:
        raise ConfigError("defense must be on, off, or both")
    _emit_json(cfg, {"reports": reports})
    return 0


# --- verify -------------------------------------------------------------------

def cmd_verify(cfg) -> int:
    rng = np.random.default_rng(config_mod.get_int(cfg, "seed", 0))
    results = [
        *checks.mz_determinism(),
        *checks.committed_state_orthogonality(rng),
        *checks.sender_local_invariance(rng),
        *checks.probe_chain_convergence(),
        *checks.intercept_posterior_oracle(),
    ]
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.summary}")
    return 0 if all(res.passed for res in results) else 1


if __name__ == "__main__":
    sys.exit(main())
