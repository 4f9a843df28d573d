"""The numpy kernels against plain-Python loop oracles on identical inputs."""

from fractions import Fraction

import numpy as np
import pytest

import codeword_oracles
from mzqbc import codes, kernels, protocol
from protocol_oracles import abort_at


def brute_min_weight(gen):
    """(d, weight-d codewords in message order) by XOR-ing rows per message."""
    k, n = gen.shape
    best, words = n + 1, []
    for msg in range(1, 1 << k):
        w = np.zeros(n, dtype=np.uint8)
        for j in range(k):
            if msg >> j & 1:
                w ^= gen[j]
        weight = int(w.sum())
        if weight < best:
            best, words = weight, []
        if weight == best:
            words.append(w)
    return best, np.array(words)


def gray_min_weight(masks, n):
    """Gray-code walk over all nonzero messages: each step flips the row
    indexed by the lowest set bit of the step number.  Returns d and the
    sorted packed weight-d words (the walk visits them out of order)."""
    acc = 0
    best, words = n + 1, []
    for i in range(1, 1 << len(masks)):
        j = (i & -i).bit_length() - 1
        acc ^= int(masks[j])
        weight = bin(acc).count("1")
        if weight < best:
            best, words = weight, []
        if weight == best:
            words.append(acc)
    return best, sorted(words)


def loop_binding_counts(u, t_f, t_fe, flip_idx, eps, threshold):
    """One uint32 uniform per photon: intercepted iff u < t_f, a mismatch
    iff u < t_fe; the abort is the float estimate rule."""
    trials, n = u.shape
    out = [0, 0, 0, 0]
    for t in range(trials):
        n_mis = 0
        for i in range(n):
            if u[t, i] < t_fe:
                n_mis += 1
        proceed = True
        accept = True
        for i in flip_idx:
            if u[t, i] < t_f:
                accept = False
                if u[t, i] < t_fe:
                    proceed = False
        if proceed:
            out[0] += 1
            if accept:
                out[1] += 1
        if accept:
            out[2] += 1
        if n_mis / (eps * n) >= threshold:
            out[3] += 1
    return out


def loop_concealing_stats(codewords, parities, cw_idx, intercept, u_mis, t_eps, eps, threshold):
    """Codeword counting per trial: the receiver's parity posterior among
    the codewords that agree with the committed one where he intercepted.
    An intercepted photon is a mismatch iff its uint32 u_mis < t_eps; the
    abort is the float estimate rule."""
    trials, n = intercept.shape
    out = [0.0, 0.0, 0.0]
    for t in range(trials):
        n_mis = 0
        for i in range(n):
            if intercept[t, i] and u_mis[t, i] < t_eps:
                n_mis += 1
        if n_mis / (eps * n) >= threshold:
            out[0] += 1.0
        c0 = 0
        c1 = 0
        for w in range(len(codewords)):
            ok = True
            for i in range(n):
                if intercept[t, i] and codewords[w, i] != codewords[cw_idx[t], i]:
                    ok = False
                    break
            if ok:
                if parities[w]:
                    c1 += 1
                else:
                    c0 += 1
        total = c0 + c1
        true_count = c1 if parities[cw_idx[t]] else c0
        out[1] += true_count / total
        out[2] += max(c0, c1) / total
    return out


def broadcast_concealing_stats(codewords, parities, cw_idx, intercept, u_mis, t_eps, eps, threshold):
    """The same counting as one (trials, 2^k, n) boolean broadcast."""
    n = intercept.shape[1]
    mismatch = intercept & (u_mis < t_eps)
    aborts = (mismatch.sum(axis=1) / (eps * n) >= threshold).sum()
    committed = codewords[cw_idx]
    agree = (codewords[None, :, :] == committed[:, None, :]) | ~intercept[:, None, :]
    consistent = agree.all(axis=2)
    c1 = (consistent & (parities[None, :] == 1)).sum(axis=1)
    c0 = consistent.sum(axis=1) - c1
    total = c0 + c1
    true_count = np.where(parities[cw_idx] == 1, c1, c0)
    return [
        float(aborts),
        float((true_count / total).sum()),
        float((np.maximum(c0, c1) / total).sum()),
    ]


def eliminate_rank(matrix):
    """Row reduction over GF(2) on the unpacked 0/1 matrix."""
    m = matrix.copy().astype(np.uint8)
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivots = [r for r in range(rank, rows) if m[r, col]]
        if not pivots:
            continue
        m[[rank, pivots[0]]] = m[[pivots[0], rank]]
        for r in range(rows):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def test_pack_rows_guard():
    with pytest.raises(ValueError):
        kernels.pack_rows(np.zeros((2, 65), dtype=np.uint8))


def loop_pack_rows(rows):
    """One shift-and-or pass per column."""
    k, n = rows.shape
    masks = np.zeros(k, dtype=np.uint64)
    for j in range(n):
        masks |= (rows[:, j].astype(np.uint64)) << np.uint64(j)
    return masks


@pytest.mark.parametrize(
    "shape", [(0, 5), (0, 64), (3, 1), (1, 64), (7, 64), (1, 24), (12, 24)]
)
def test_pack_rows_matches_column_loop(shape):
    rng = np.random.default_rng(sum(shape))
    for dtype in (np.uint8, bool):
        rows = rng.integers(0, 2, size=shape).astype(dtype)
        got = kernels.pack_rows(rows)
        assert got.dtype == np.uint64 and got.shape == (shape[0],)
        assert np.array_equal(got, loop_pack_rows(rows))


@pytest.mark.parametrize("seed", range(6))
def test_pack_rows_matches_column_loop_random_shapes(seed):
    rng = np.random.default_rng(900 + seed)
    for _ in range(20):
        k, n = int(rng.integers(0, 30)), int(rng.integers(1, 65))
        rows = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        # column slices, as callers pass them, are not contiguous
        cols = rng.permutation(n)[: rng.integers(1, n + 1)]
        for view in (rows, rows[:, cols], rows.T[:, : min(k, 64)]):
            assert np.array_equal(kernels.pack_rows(view), loop_pack_rows(view))


@pytest.mark.parametrize("seed", range(5))
def test_min_weight_numpy_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    code = codes.random_code(n=10, k=5, rng=rng)
    d, words = kernels.min_weight(kernels.pack_rows(code.generator), code.n)
    want_d, want_words = brute_min_weight(code.generator)
    assert d == want_d
    np.testing.assert_array_equal(kernels.unpack_rows(words, code.n), want_words)


def _code(seed, n, k):
    """Extended Hamming for seed 0, else a random (n, k) code from the seed."""
    if seed == 0:
        return codes.extended_hamming_8_4()
    return codes.random_code(n=n, k=k, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("seed", [0, *range(100, 105)])
def test_min_weight_matches_gray_walk(seed):
    code = _code(seed, n=14, k=8)
    masks = kernels.pack_rows(code.generator)
    d, words = kernels.min_weight(masks, code.n)
    assert (d, sorted(int(w) for w in words)) == gray_min_weight(masks, code.n)


@pytest.mark.parametrize("seed", range(3))
def test_min_weight_words_span_chunks(seed, monkeypatch):
    # chunks of 64 messages: a lighter word found in a later chunk drops
    # the words kept so far, and equal ones found later are appended
    monkeypatch.setattr(kernels, "_CHUNK_BITS", 6)
    code = codes.random_code(n=12, k=9, rng=np.random.default_rng(40 + seed))
    d, words = kernels.min_weight(kernels.pack_rows(code.generator), code.n)
    want_d, want_words = brute_min_weight(code.generator)
    assert d == want_d
    np.testing.assert_array_equal(kernels.unpack_rows(words, code.n), want_words)


@pytest.mark.parametrize("seed", range(3))
def test_unpack_rows_inverts_pack_rows(seed):
    rng = np.random.default_rng(60 + seed)
    for n in (1, 7, 8, 13, 64):
        rows = rng.integers(0, 2, size=(int(rng.integers(0, 20)), n), dtype=np.uint8)
        np.testing.assert_array_equal(kernels.unpack_rows(kernels.pack_rows(rows), n), rows)


@pytest.mark.parametrize("seed", range(5))
def test_gf2_rank_matches_row_reduction(seed):
    rng = np.random.default_rng(200 + seed)
    rows, cols = rng.integers(1, 12, size=2)
    matrix = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    matrix[-1] = matrix[0] ^ matrix[rows // 2]  # force some dependence
    assert codes.gf2_rank(matrix) == eliminate_rank(matrix)


def mask_of(generator, r):
    """t = G r^T mod 2, for any 0/1 generator and mask r."""
    return (np.asarray(generator).astype(int) @ r % 2).astype(np.uint8)


def loop_parity_determined(generator, r, known):
    """One `xor_basis` span test per row of `known`: is G r^T in the span
    of the known columns of G."""
    cols = kernels.pack_rows(np.asarray(generator).T)
    target = int(np.bitwise_xor.reduce(cols[np.asarray(r, dtype=bool)]))
    return [
        kernels.in_span(target, kernels.xor_basis(cols[row]))
        for row in np.asarray(known, dtype=bool)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_parity_determined_matches_xor_basis_loop(seed):
    rng = np.random.default_rng(1100 + seed)
    # k > 32 runs the elimination on uint64 words, k <= 32 on uint32
    shapes = [(64, 24), (64, 1), (24, 24), (1, 1), (40, 33), (64, 64), (64, 32)]
    for i in range(40):
        if i < len(shapes):
            n, k = shapes[i]
        else:
            n = int(rng.integers(1, 65))
            k = int(rng.integers(1, min(n, 24) + 1))
        gen = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        r = rng.integers(0, 2, size=n, dtype=np.uint8)
        known = rng.random((60, n)) < rng.random()
        got = kernels.parity_determined(gen, mask_of(gen, r), known)
        assert got.dtype == bool and got.shape == (60,)
        assert got.tolist() == loop_parity_determined(gen, r, known)


@pytest.mark.parametrize("n, k", [(1, 1), (8, 4), (24, 12), (40, 24), (64, 24), (64, 40)])
def test_parity_determined_edge_masks(n, k):
    rng = np.random.default_rng(1200 + n + k)
    gen = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
    gen[-1] = gen[0]  # a repeated row: the columns span at most k - 1 bits
    r = rng.integers(0, 2, size=n, dtype=np.uint8)
    r[0] = 1
    empty, full = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    # rank-deficient: the known columns are 0, or repeat one another, or
    # one of them is the XOR of the others
    deficient = []
    for _ in range(6):
        s = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        g = gen.copy()
        g[:, s[-1]] = np.bitwise_xor.reduce(g[:, s[:-1]], axis=1) if len(s) > 1 else 0
        g[:, s[: len(s) // 2]] = g[:, s[:1]]
        mask = np.zeros(n, dtype=bool)
        mask[s] = True
        deficient.append((g, mask))
    known = np.array([empty, full, *(rng.random((5, n)) < 0.5)])
    repeated = known[rng.integers(len(known), size=50)]
    for g, rows in [(gen, known), (gen, repeated), *((g, m[None, :]) for g, m in deficient)]:
        got = kernels.parity_determined(g, mask_of(g, r), rows)
        assert got.tolist() == loop_parity_determined(g, r, rows)
    got = kernels.parity_determined(gen, mask_of(gen, r), known)
    target = int(np.bitwise_xor.reduce(kernels.pack_rows(gen.T)[r.astype(bool)]))
    assert got[0] == (target == 0)  # nothing known fixes only a constant parity
    assert got[1]  # the whole word fixes it


def _edge_uniforms(rng, shape, thresholds):
    """uint32 uniforms with every threshold t, and t - 1, that fits in 32
    bits planted in about one cell in ten: photons exactly on each side of
    the strict `<`."""
    u = rng.integers(0, 2**32, size=shape, dtype=np.uint32)
    edges = [e for t in thresholds for e in (t - 1, t) if 0 <= e < 2**32]
    cells = rng.random(shape) < 0.1
    u[cells] = rng.choice(edges, size=int(cells.sum()))
    return u


def _binding_inputs(seed, trials=4096, n=8, eps=0.5, f=0.5):
    """(u, t_f, t_fe, flip_idx) for the kernel."""
    rng = np.random.default_rng(seed)
    t_f, t_fe = kernels.uint32_threshold(f), kernels.uint32_threshold(f * eps)
    return (
        _edge_uniforms(rng, (trials, n), (t_f, t_fe)),
        t_f,
        t_fe,
        np.array([0, 4], dtype=np.int64) if n == 8 else np.arange(0, n, 3),
    )


# threshold c / (eps * n) puts trials with exactly c mismatches on the
# `>=` boundary of the loop oracle's float rule; the kernel gets the
# integer cutoff `abort_at` derives from it.  f = 0 and f = 1 give the
# thresholds 0 and 2^32, below and above every uint32.
BINDING_ORACLE_CASES = {
    "0": (0, 8, 0.5, 0.5, 0.5),
    "1": (1, 8, 0.5, 0.5, 0.5),
    "2": (2, 8, 0.5, 0.5, 0.5),
    "n13": (3, 13, 0.5, 0.5, 0.5),
    "n24": (4, 24, 0.5, 0.5, 0.5),
    "n13-boundary": (5, 13, 0.3, 2 / (0.3 * 13), 0.5),
    "n24-boundary": (6, 24, 0.5, 6 / (0.5 * 24), 0.5),
    "n24-boundary-eps0.3": (7, 24, 0.3, 4 / (0.3 * 24), 0.5),
    "n24-golay-threshold": (8, 24, 0.3, 1 - 8 / 24, 0.5),
    "f0": (9, 8, 0.5, 0.5, 0.0),
    "f1-n13": (10, 13, 0.3, 1 - 3 / 13, 1.0),
    "f0.1-eps0.3": (11, 24, 0.3, 1 - 8 / 24, 0.1),
}


@pytest.mark.parametrize(
    "seed, n, eps, threshold, f",
    list(BINDING_ORACLE_CASES.values()),
    ids=list(BINDING_ORACLE_CASES),
)
def test_binding_counts_match_loop_oracle(seed, n, eps, threshold, f):
    u, t_f, t_fe, flip_idx = _binding_inputs(seed, n=n, eps=eps, f=f)
    got = kernels.binding_counts(u, t_f, t_fe, flip_idx, abort_at(eps, n, threshold))
    assert got.tolist() == loop_binding_counts(u, t_f, t_fe, flip_idx, eps, threshold)


@pytest.mark.parametrize("case", [c for c in BINDING_ORACLE_CASES if "boundary" in c])
def test_binding_boundary_cases_reach_the_boundary(case):
    seed, n, eps, threshold, f = BINDING_ORACLE_CASES[case]
    u, t_f, t_fe, _ = _binding_inputs(seed, n=n, eps=eps, f=f)
    count = (u < t_fe).sum(axis=1)
    assert (count / (eps * n) == threshold).sum() > 100
    for edge in (t_f - 1, t_f, t_fe - 1, t_fe):
        assert (u == edge).sum() > 100


def test_uint32_threshold_overshoots_by_less_than_one_step():
    fs = (0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0)
    grid = {0.0, 1.0, 2**-32, 2**-33, 3 * 2**-33, 5e-324, 1 - 2**-53, 0.1 * 0.3}
    grid |= {f * eps for f in fs for eps in (0.01, 0.1, 0.125, 0.25, 0.3, 1 / 3, 0.5, 2 / 3, 1.0)}
    grid |= set(np.linspace(0, 1, 1001).tolist())
    for p in sorted(grid):
        t = kernels.uint32_threshold(p)
        assert isinstance(t, int) and 0 <= t <= 2**32
        assert 0 <= Fraction(t, 2**32) - Fraction(p) < Fraction(1, 2**32), p


def test_binding_counts_reject_rows_past_64():
    u = np.zeros((2, 65), dtype=np.uint32)
    with pytest.raises(ValueError, match="n <= 64"):
        kernels.binding_counts(u, 2**31, 2**30, np.array([0]), 33)


def test_binding_numpy_semantics():
    # two photons, one flipped position, draws on the thresholds of f = 0.5
    # and eps = 0.5: u < 2^31 intercepts and u < 2^30 is a mismatch
    t_f, t_fe = kernels.uint32_threshold(0.5), kernels.uint32_threshold(0.25)
    assert (t_f, t_fe) == (2**31, 2**30)
    u = np.array(
        [[t_fe - 1, t_f], [t_fe, t_f - 1], [t_f, 2**32 - 1], [t_f - 1, 0]], dtype=np.uint32
    )
    flips = np.array([0], dtype=np.int64)
    # trial0 intercept+mismatch at flip -> no proceed;
    # trial1 intercepts both, no mismatch -> proceed, not accept;
    # trial2 nothing intercepted -> proceed and accept;
    # trial3 intercepts both, mismatch off the flip -> proceed, not accept
    out = kernels.binding_counts(u, t_f, t_fe, flips, 3)
    assert out.tolist() == [3, 1, 1, 0]  # no count reaches n + 1
    # one mismatch aborts trials 0 and 3
    assert kernels.binding_counts(u, t_f, t_fe, flips, 1).tolist() == [3, 1, 1, 2]
    # f = 0: threshold 0, nothing is intercepted, not even u = 0
    assert kernels.binding_counts(u, 0, 0, flips, 1).tolist() == [4, 4, 4, 0]
    # f = 1: threshold 2^32, everything is, even u = 2^32 - 1
    assert kernels.binding_counts(u, 2**32, 2**32, flips, 2).tolist() == [0, 0, 0, 4]
    assert kernels.binding_counts(u, 2**32, t_f, flips, 2).tolist() == [1, 0, 0, 2]


def _concealing_inputs(code, r, seed, trials, p_intercept=0.4):
    """(oracle arguments, kernel arguments) for the same trials."""
    rng = np.random.default_rng(seed)
    words = codeword_oracles.codewords(code)
    parities = codeword_oracles.coset_parities(code, r)
    cw_idx = rng.integers(len(words), size=trials)
    intercept = rng.random((trials, code.n)) < p_intercept
    t_eps = kernels.uint32_threshold(0.5)
    u_mis = _edge_uniforms(rng, (trials, code.n), (t_eps,))
    oracle = (words, parities, cw_idx, intercept, u_mis, t_eps, 0.5, 0.5)
    t = mask_of(code.generator, r)
    return oracle, (code.generator, t, intercept, u_mis, t_eps, abort_at(0.5, code.n, 0.5))


@pytest.mark.parametrize("seed", [0, *range(301, 307)])
def test_concealing_stats_match_loop_oracle(seed):
    code = _code(seed, n=10, k=2 + seed % 7)
    rng = np.random.default_rng(seed)
    r = rng.integers(0, 2, size=code.n, dtype=np.uint8)
    p = float(rng.uniform(0.1, 0.9))
    oracle, args = _concealing_inputs(code, r, seed, 600, p_intercept=p)
    aborts, true_bit, max_posterior = loop_concealing_stats(*oracle)
    assert kernels.concealing_stats(*args).tolist() == [aborts, true_bit]
    assert max_posterior == true_bit  # the kernel's one sum serves both


@pytest.mark.parametrize("p_intercept", [0.2, 0.35, 0.5])
def test_concealing_stats_match_broadcast_golay(p_intercept):
    code = codes.golay_24_12()
    r = np.zeros(code.n, dtype=np.uint8)
    r[[0, 5, 13]] = 1
    oracle, args = _concealing_inputs(code, r, 7, 150, p_intercept=p_intercept)
    aborts, true_bit, max_posterior = broadcast_concealing_stats(*oracle)
    assert kernels.concealing_stats(*args).tolist() == [aborts, true_bit]
    assert max_posterior == true_bit


def test_concealing_numpy_posterior_bounds():
    code = codes.extended_hamming_8_4()
    _, args = _concealing_inputs(code, codes.bits_from_string("11100000"), 9, 2048)
    trials = args[2].shape[0]
    out = kernels.concealing_stats(*args)
    assert 0 <= out[0] <= trials
    assert out.shape == (2,)
    assert trials / 2 <= out[1] <= trials  # the posterior is always >= 1/2


def test_concealing_experiment_beyond_materialize_guard():
    rng = np.random.default_rng(5)
    code = codes.random_code(n=28, k=22, rng=rng)
    assert code.k == 22
    r = np.zeros(code.n, dtype=np.uint8)
    r[:2] = 1
    params = protocol.ProtocolParams(code=code, r=r, R=0.3, f=0.25, epsilon=0.3)
    means = {}
    for m in (0, 20, code.n):
        res = protocol.run_concealing_experiment(params, m, 3000)
        assert res["mean_posterior_true_bit"] == res["mean_max_posterior"]
        means[m] = res["mean_max_posterior"]
        assert 0.5 <= means[m] <= 1.0
    assert means[0] == 0.5
    assert means[code.n] == 1.0
