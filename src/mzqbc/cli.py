"""Batch experiment runner.

One parser, built at import: `mzqbc COMMAND [flags]`, the flags in any
order around the command; `main` runs the module's `cmd_COMMAND` as it
stands at the call.  Each command writes one payload in one encoding:
run (one session; json), sweep (grid over the `builtin_code`, `R` and `f`
lists, or over the one `code_file`; csv), strategies (table over the `R`
list; csv), nogo (operator-model report; json), counterfactual (attack
report without and with the defense; json), probe (probe-chain grid over
the `M` list; csv), verify (invariant suite; text).  A list given to a key
that a command reads as one value is a config error.

Exit codes: 0 success, 2 config or parameter error (a file that cannot be
read or written among them), 3 size-guard violation, and 1 from `verify`
when an invariant fails.  All randomness flows from one master seed
(per-trial blocks are split deterministically), and every CSV/JSON
emission carries the config hash and seed; a CSV's columns are its rows'
keys, in order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import codes as codes_mod
from . import config as config_mod
from . import checks, counterfactual, operator_model, optics, protocol, strategies
from .config import ConfigError
from .util import GuardError

_COMMANDS = ("run", "sweep", "strategies", "nogo", "counterfactual", "probe", "verify")

_PARSER = argparse.ArgumentParser(
    prog="mzqbc",
    description="Interferometric bit-commitment simulator and analysis runner",
)
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", help="key = value config file")
_PARSER.add_argument("--seed", type=int, help="master seed (overrides config)")
_PARSER.add_argument("--out", help="output path (default: stdout)")
_PARSER.add_argument("--trials", type=int, help="trial count (overrides config)")
_PARSER.add_argument("--threads", type=int, help="worker threads (overrides config)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        loaded = config_mod.load_config(args.config) if args.config else {}
        cfg = _merge_config(args, loaded)
        _check_out(cfg)
        # looked up per call, so that a function patched onto this module
        # (the benchmark's tracer wraps cmd_*) is the one dispatched
        status = globals()[f"cmd_{args.command}"](cfg)
    except (ConfigError, ValueError, OSError) as exc:
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
    for key in ("seed", "out", "trials", "threads"):
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
    if r_raw is None:  # a deterministic mask, drawn from its own stream
        r = codes_mod.random_mask(code, np.random.default_rng((seed, 0xA11CE)))
    else:
        r = codes_mod.bits_from_string(r_raw)
    R = config_mod.get_float(cfg, "R", 0.3) if R is None else R
    eps = config_mod.get_float(cfg, "epsilon", None)
    f = config_mod.get_float(cfg, "f", 0.25) if f is None else f
    return protocol.ProtocolParams(code=code, r=r, R=R, f=f, epsilon=eps, seed=seed)


def _alice_policy(cfg) -> protocol.AlicePolicy:
    name = config_mod.get_str(cfg, "alice", "honest")
    if name == "honest":
        return protocol.HonestAlice(bit=config_mod.get_int(cfg, "commit_bit", 0))
    if name == "midpoint_cheat":
        return protocol.MidpointCheatAlice()
    raise ConfigError(f"unknown alice policy {name!r}")


def _bob_policy(cfg, params) -> protocol.BobPolicy:
    name = config_mod.get_str(cfg, "bob", "honest")
    if name == "honest":
        return protocol.HonestBob(f=params.f)
    if name == "full_intercept":
        return protocol.FullInterceptBob()
    if name == "partial_intercept":
        return protocol.PartialInterceptBob(m=config_mod.get_int(cfg, "m"))
    raise ConfigError(f"unknown bob policy {name!r}")


# the provenance hash covers the keys the subcommand read, less these, so a
# key it ignores (`trials` to `nogo`) leaves the hash alone, and printing
# the seed reads no key (an ignored `seed` is warned about).  `out` and
# `threads` never change a payload (trial blocks are seed-split
# independently of the worker count)
_NON_SEMANTIC_KEYS = frozenset({"out", "threads"})


def _provenance(cfg) -> dict:
    semantic = {k: cfg[k] for k in cfg.read & cfg.keys() - _NON_SEMANTIC_KEYS}
    return {
        "config_hash": config_mod.config_hash(semantic),
        "seed": config_mod.get_int(dict(cfg), "seed", 0),
    }


def _check_out(cfg) -> None:
    """Open `out` for append: a path that cannot be written fails before any
    draw, and a failed command truncates nothing (a file made here goes)."""
    out = config_mod.get_str(cfg, "out", None)
    if out is not None:
        existed = os.path.exists(out)
        open(out, "a").close()
        if not existed:
            os.remove(out)


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
    bob = _bob_policy(cfg, params)
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
    f_grid = config_mod.get_float_list(cfg, "f", [0.0, 0.25, 0.5])
    r_grid = config_mod.get_float_list(cfg, "R", [0.3])
    # one code file, named by its path, or the list of builtin codes
    path = config_mod.get_str(cfg, "code_file", None)
    if path is None:
        code_names = config_mod.get_str_list(cfg, "builtin_code", ["extended_hamming"])
        load = codes_mod.builtin_code
    else:
        code_names, load = [path], codes_mod.read_generator_file
    trials = config_mod.get_int(cfg, "trials", 10000)
    threads = config_mod.get_int(cfg, "threads", 1)
    # every point's parameters are checked before the first game runs
    points = []
    for name in code_names:
        code = load(name)
        for R in r_grid:
            for f in f_grid:
                params = _load_params(cfg, code=code, R=R, f=f)
                protocol.intercept_posterior(f, params.epsilon)  # no prediction at eps*f = 1
                points.append((name, R, f, params))
    rows = []
    for name, R, f, params in points:
        code = params.code
        binding = protocol.run_binding_experiment(params, trials, threads=threads)
        # the binding game draws Binomial(n, f) intercepts, the concealing
        # game exactly round(f * n) of them (half to even)
        m = int(round(f * code.n))
        concealing = protocol.run_concealing_experiment(params, m, trials, threads=threads)
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
            }
        )
    _emit_csv(cfg, rows)
    return 0


def cmd_strategies(cfg) -> int:
    r_grid = config_mod.get_float_list(cfg, "R", [round(0.1 * i, 1) for i in range(1, 10)])
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
    _emit_csv(cfg, rows)
    return 0


def cmd_nogo(cfg) -> int:
    code = _load_code(cfg, default="repetition")
    r_raw = config_mod.get_str(cfg, "r", "1" * code.n)
    r = codes_mod.bits_from_string(r_raw)
    default_modes = [protocol.INTERCEPT] + [protocol.BYPASS] * (code.n - 1)
    modes = config_mod.get_str_list(cfg, "modes", default_modes)
    intercepted = operator_model.intercept_mask(modes, code.n)
    distance, reduced_overlap = operator_model.reduced_states(code, r, intercepted)
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
            # the records tell the bits apart with Helstrom's (1 + D)/2
            "posteriors": {"mean_max_with_intercepted_known": (1.0 + distance) / 2},
        },
    )
    return 0


def cmd_counterfactual(cfg) -> int:
    params = _load_params(cfg)
    rng = np.random.default_rng(params.seed)
    sessions = config_mod.get_int(cfg, "sessions", 100)
    fbs = counterfactual.FbsConfig(cycles=config_mod.get_int(cfg, "M", 100))
    reports = {  # the undefended attack draws first
        key: counterfactual.attack_session(params, on, fbs, rng, sessions=sessions)
        for key, on in (("defense_off", False), ("defense_on", True))
    }
    _emit_json(cfg, {"reports": reports})
    return 0


def cmd_probe(cfg) -> int:
    m_grid = config_mod.get_int_list(cfg, "M", [1, 5, 25, 100])
    points = config_mod.get_int(cfg, "theta_points", 13)
    if points < 1:
        raise ConfigError("theta_points must be >= 1")
    thetas = [2 * math.pi * i / points for i in range(points)]
    _emit_csv(cfg, counterfactual.fbs_sweep_rows(m_grid, thetas))
    return 0


# --- verify -------------------------------------------------------------------

def cmd_verify(cfg) -> int:
    rng = np.random.default_rng(config_mod.get_int(cfg, "seed", 0))
    results = [
        *checks.mz_determinism(),
        *checks.committed_state_orthogonality(rng),
        *checks.probe_chain_convergence(),
        *checks.intercept_posterior_oracle(),
    ]
    _write(cfg, "".join(f"{'PASS' if res.passed else 'FAIL'} {res.summary}\n" for res in results))
    return 0 if all(res.passed for res in results) else 1


if __name__ == "__main__":
    sys.exit(main())
