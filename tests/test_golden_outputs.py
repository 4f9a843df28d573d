"""Byte identity of the CLI payloads at pinned seeds.

Each case runs one subcommand in process and compares the SHA-256 of its
stdout with a pinned digest.  A change that is meant to leave results alone
(a refactor, a faster path) must keep every digest; a change that alters a
payload on purpose updates the digest and says why.
"""

import hashlib

import pytest

from mzqbc import cli

CASES = {
    "run-extended_hamming-seed3": (
        ["run", "--seed", "3"], "builtin_code = extended_hamming\nf = 0.5\n"),
    "run-extended_hamming-seed17": (
        ["run", "--seed", "17"], "builtin_code = extended_hamming\nf = 0.5\n"),
    "run-golay-seed3": (["run", "--seed", "3"], "builtin_code = golay\nf = 0.5\n"),
    "run-golay-seed17": (["run", "--seed", "17"], "builtin_code = golay\nf = 0.5\n"),
    "run-hamming-seed3": (["run", "--seed", "3"], "builtin_code = hamming\nf = 0.5\n"),
    "run-hamming-seed17": (["run", "--seed", "17"], "builtin_code = hamming\nf = 0.5\n"),
    # the unveil is reject_intercept_mismatch
    "run-golay-midpoint_cheat-seed3": (
        ["run", "--seed", "3"], "builtin_code = golay\nalice = midpoint_cheat\nf = 0.5\n"),
    # an honest commit of bit 1 against a receiver intercepting m = 3 photons
    "run-extended_hamming-partial3-bit1-seed3": (
        ["run", "--seed", "3"],
        "builtin_code = extended_hamming\ncommit_bit = 1\nbob = partial_intercept\nm = 3\n",
    ),
    "run-hamming-full_intercept-bit1-seed3": (
        ["run", "--seed", "3"], "builtin_code = hamming\nbob = full_intercept\ncommit_bit = 1\n"),
    "counterfactual-json-extended_hamming": (
        ["counterfactual", "--seed", "5"],
        "builtin_code = extended_hamming\nf = 0.25\nM = 50\nsessions = 60\n",
    ),
    "counterfactual-json-golay": (
        ["counterfactual", "--seed", "5"],
        "builtin_code = golay\nf = 0.5\nM = 50\nsessions = 60\n",
    ),
    # a two-pass chain leaves the defended probe a nonzero flip count to pin
    "counterfactual-json-extended_hamming-M2": (
        ["counterfactual", "--seed", "5"],
        "builtin_code = extended_hamming\nf = 0.25\nM = 2\nsessions = 60\n",
    ),
    "counterfactual-json-golay-M2": (
        ["counterfactual", "--seed", "5"],
        "builtin_code = golay\nf = 0.25\nM = 2\nsessions = 60\n",
    ),
    "counterfactual-csv": (["counterfactual", "--format", "csv"], ""),
    "nogo": (["nogo", "--seed", "7", "--trials", "3"], ""),
    # the intercepted photon fixes the parity over a 16-word code
    "nogo-extended_hamming-r10000000": (
        ["nogo", "--seed", "7", "--trials", "3"],
        "builtin_code = extended_hamming\nr = 10000000\n",
    ),
    "verify": (["verify", "--seed", "4"], ""),
    "strategies-json": (["strategies", "--format", "json"], ""),
    "strategies-search-json-seed3": (
        ["strategies", "--seed", "3"],
        "search_trials = 20\nancilla_dim = 2\nformat = json\n",
    ),
    "sweep-two-codes": (
        ["sweep", "--seed", "9", "--trials", "3000"],
        "codes = extended_hamming, golay\n",
    ),
    # three blocks, the last one ragged: pins the draws across block edges
    "sweep-two-codes-40000": (
        ["sweep", "--seed", "9", "--trials", "40000"],
        "codes = extended_hamming, golay\n",
    ),
}

GOLDEN = {
    "counterfactual-json-extended_hamming": "b44ed70cd6ce9ea65f09c4b9356d446f929db19286b3bf365c8006e30c7f09d4",
    "counterfactual-csv": "5ee230d67294034295303710a874603cdc665e1d547dadc365653a72b666c2ed",
    "counterfactual-json-golay": "11e6692d180b02f0358305d2c006ad271425797dbc9a25c2ecab4d4b43897a94",
    "counterfactual-json-extended_hamming-M2": "24fe096e832188926725f77e9eeea430d933b638739ca5f24a14e36d6b30afaa",
    "counterfactual-json-golay-M2": "9a1bbf3606cec7785332804c5bce3f9ac63007aa1bed5449096b17f9987b1421",
    "nogo": "7c57f0c91b7774af9b38e45b626ec5fa77cd1d8489f530a1ece8fec1bbeb3393",
    "nogo-extended_hamming-r10000000": "36ca9284b0dd7166e87436af6ad5c85a5e1df72611af45575aec32ada82d4c3c",
    "run-extended_hamming-seed17": "9dd33782b744f677e93c3449c258cf4be45763a8e78ed896a4400a2bb8c31db0",
    "run-extended_hamming-seed3": "5c0213cbdf68ec9385fe14daf8578a776d5eb5019c1ad474287348b467d70a57",
    "run-extended_hamming-partial3-bit1-seed3": "970b5e93fec2a3aa6941eb8774544c1ea50240c1c9dbdd40e823b81227f39184",
    "run-golay-midpoint_cheat-seed3": "08e1532c99597204e4c292eb029542a10a60b01bc4a5f9b1f29ddffbf818db3d",
    "run-golay-seed17": "ab40b9ddae57fede606cb131f56c7e6cbf86dbe78000224335f30c71950cbdb2",
    "run-golay-seed3": "9e8b614fb13ffcbea232a5fb1bc76ccb46b2b511ee5e407b33bb1d25a9f984c3",
    "run-hamming-seed17": "c17871c3b05308d221b11c5bd8e4e4f42f049f4dba1e52dc0cf7623d59052154",
    "run-hamming-full_intercept-bit1-seed3": "3a3088c513d693b2cae1cebce9d918a5613c76af7d0a7b5b8576bb5674a583b7",
    "run-hamming-seed3": "b44006e521675f8d46c773c181b90b4096513ae533f54c106c4b956910951d13",
    "strategies-json": "40c19ce326d2bcb5a3ff99350f21060df95863431e13b09f33eb2641d9eb6ff2",
    "strategies-search-json-seed3": "4c5bcb9036711e3c92e6b4791ba3e9416998c06c27a748d572516ee931e0722c",
    "sweep-two-codes": "96268ea52d3459a3ed7839fedccd17751269bba3aed5f1e1cc95f7934143ecb3",
    "sweep-two-codes-40000": "e62e44586a37175180ba4d82bde8b0c67b90de8790f4f6932ef77fff31d95ceb",
    "verify": "1cf5908eb92236c157f319ca1cd85aee0c0829c19e9ddc73f98815ea7c2877cb",
}


def stdout_of(case, tmp_path, capsys) -> bytes:
    argv, cfg_text = CASES[case]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(cfg_text)
    capsys.readouterr()
    code = cli.main(argv + ["--config", str(cfg)])
    assert code == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_digest_is_pinned(case, tmp_path, capsys):
    digest = hashlib.sha256(stdout_of(case, tmp_path, capsys)).hexdigest()
    assert digest == GOLDEN[case]
