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
    # no intercept at all: every photon is one honest uniform
    "run-golay-f0-seed3": (["run", "--seed", "3"], "builtin_code = golay\nf = 0\n"),
    "run-extended_hamming-partial0-bit1-seed3": (
        ["run", "--seed", "3"],
        "builtin_code = extended_hamming\ncommit_bit = 1\nbob = partial_intercept\nm = 0\n",
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
    # the probe-chain grid
    "counterfactual-csv": (["probe"], ""),
    "nogo": (["nogo", "--seed", "7", "--trials", "3"], ""),
    # the intercepted photon fixes the parity over a 16-word code
    "nogo-extended_hamming-r10000000": (
        ["nogo", "--seed", "7", "--trials", "3"],
        "builtin_code = extended_hamming\nr = 10000000\n",
    ),
    # the largest builtin code: its reduced states are read off S exactly
    "nogo-golay": (
        ["nogo", "--seed", "7"],
        f"builtin_code = golay\nr = 1{'0' * 23}\nmodes = "
        + ", ".join("intercept" if i in (1, 2, 3, 7) else "bypass" for i in range(24)) + "\n",
    ),
    "verify": (["verify", "--seed", "4"], ""),
    # pins the CSV column order, which a DictReader does not see
    "strategies-csv": (["strategies"], ""),
    "strategies-search-csv-seed3": (["strategies", "--seed", "3"], "search_trials = 20\n"),
    "sweep-two-codes": (
        ["sweep", "--seed", "9", "--trials", "3000"],
        "builtin_code = extended_hamming, golay\n",
    ),
    # three blocks, the last one ragged: pins the draws across block edges
    "sweep-two-codes-40000": (
        ["sweep", "--seed", "9", "--trials", "40000"],
        "builtin_code = extended_hamming, golay\n",
    ),
}

GOLDEN = {
    "counterfactual-json-extended_hamming": "d3102829c0ee57a99e28e68571fe75e7202c6a0fd170ad48e47557e9bffce0da",
    "counterfactual-csv": "fc1cff1fc0e1798c2e8d63b35305a8a7bb7ad2bf59e484a7932ebe0a20f46988",
    "counterfactual-json-golay": "98b2189bf62fa56007d382097948f32d3198215f35c0bc5ad37ab2edb5c70dca",
    "counterfactual-json-extended_hamming-M2": "24fe096e832188926725f77e9eeea430d933b638739ca5f24a14e36d6b30afaa",
    "counterfactual-json-golay-M2": "9a1bbf3606cec7785332804c5bce3f9ac63007aa1bed5449096b17f9987b1421",
    "nogo": "31936e456244863f74be7d328b3d646525a1c1868696c1fd4a2f2237fcb7b317",
    "nogo-extended_hamming-r10000000": "b24a6c6c97ea69f0a446ee7bd296fdeef67210d63b03efb1c90094a8f5b984ff",
    "nogo-golay": "fa33589ed6277020309d990645b26178481550748a91e793ae9f34a4f29bf07c",
    "run-extended_hamming-seed17": "9437859e1910724bc58ca50a62aff52a91b66730e0d8b0a83e08571d416bcbf8",
    "run-extended_hamming-seed3": "0e1454b4799a8c5860b17d0a6a819ae02c9214451d11b9bbed3a98282d72649e",
    "run-extended_hamming-partial3-bit1-seed3": "08132b7be86133562d49490accb67239a9abac766ef99270788191d33512bce7",
    "run-golay-midpoint_cheat-seed3": "939ee607583771c00fce2209a7616d8b82436800f50b206fd84b876168b234ef",
    "run-golay-f0-seed3": "cf027991a6c0ef205e72e488c300ed7e3fdf9ad22e1a0a5f48da1ab466e3eb9b",
    "run-extended_hamming-partial0-bit1-seed3": "7a52419e29f63431af95ce785f23b7fec9d529caac51ff775a7ca55438b192f1",
    "run-golay-seed17": "369fe0335584b1d6f84b244a1c9a3c0e661b2417e7a0a4a4dce4ad0a9327d152",
    "run-golay-seed3": "a288bd8da12bd52c908542c01477e1ac69fc0673d938bb2187c62ad12087bea9",
    "run-hamming-seed17": "c7a628f8770e1d4fbf840afae733ec54fc54e57bb4d0d1db5521bb4a2bd99476",
    "run-hamming-full_intercept-bit1-seed3": "d1052e528ce68d118931aa03cc499e2128de008b9c11e4a9775e9354044d7fdd",
    "run-hamming-seed3": "a1b32a0cec90474410c273571a309f1aa26eedea34e4d8eeb01e1fcf9e4d6ff2",
    "strategies-csv": "4306a2a981e35d3378c517a9515ade2bf6f382e411880f5ba6077f6a770bce5b",
    "strategies-search-csv-seed3": "2be3bf90b640776a7090719e171e3587051d76b22667f6acd006dc0440bf58ea",
    "sweep-two-codes": "065be821ffb9bd736f545fcccc4946f2a8b6240851f8ceb8e1e3e4afeeeedb29",
    "sweep-two-codes-40000": "7ce899c1a5b601ddf6fb45887b50cafa083fb89d63a5ea1da818dd04c4d2a94a",
    "verify": "0b4915756451f1d6e3439676bce5932fed7b437c4fa5a6c4cc3b166caa42b71d",
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
