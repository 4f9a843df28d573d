"""Reference implementations of the operator model, for tests only.

`mzqbc.operator_model` reads the receiver's reduced states off which
positions were intercepted.  This module keeps the models it replaced:

- the committed register's state, the uniform mixture of the product
  encodings of the parity-b codewords, as a sparse diagonal density over
  the listed codewords, and its overlap with the other bit's state.  With
  every photon intercepted it is the receiver's reduced state.
- the dense pipeline on the full 12^n composite: the (beta x alpha x gamma)
  density matrix, the per-photon 4x4 swap and 6x6 measure-and-record
  unitaries applied factor by factor, Haar rotations of the beta register
  and partial traces.  Tests compare it at n <= 3.
- the product-ket model: one product ket per codeword and the Gram matrix
  of the receiver's kets over both parity halves, its eigh and an eigvalsh
  per Haar trial, with any fiducial.  It reaches n <= 9.

Both pipelines also rotate the returned register by Haar draws
(`haar_unitary`) and report how far the receiver's state moves: release
criterion 7, a theorem the library states but does not compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

import codeword_oracles
from mzqbc.util import GuardError

QUTRIT_UNMEASURED = 2

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-10

#: Dense composite operations refuse beyond this n (12^n x 12^n matrices).
DENSE_COMPOSITE_MAX_N = 3
#: Dense committed-register matrices refuse beyond this n (2^n x 2^n).
DENSE_GUARD_N = 12
#: Release criterion 7: the largest change a unitary on the returned qubits
#: may make to the receiver's state or its overlap, in either pipeline's
#: report.  A theorem (each branch keeps |V beta_c|^2 = 1), so this bounds
#: the rounding of the Haar draws.
INVARIANCE_BOUND = 1e-9


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian, unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace must be 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def check_psd(self, tol: float = PSD_TOL) -> float:
        """Smallest eigenvalue; raises if meaningfully negative."""
        low = float(np.linalg.eigvalsh(self.matrix)[0])
        if low < tol:
            raise ValueError(f"density matrix not PSD: min eigenvalue {low}")
        return low

    @classmethod
    def from_pure(cls, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class SparseDiagonalDensity:
    """Diagonal density matrix stored as (index, weight) pairs; this is how
    committed-register states look in the codeword basis."""

    dim: int
    indices: np.ndarray
    weights: np.ndarray


def committed_density(code, r: np.ndarray, b: int) -> SparseDiagonalDensity:
    """The committed register's state: the uniform mixture of the product
    encodings |c_1 ... c_n> (qubit 1 the most significant) of the parity-b
    codewords, diagonal in the codeword basis."""
    words = codeword_oracles.codewords(code)
    subset = words[words @ np.asarray(r, dtype=np.uint8) % 2 == b]
    if not len(subset):
        raise ValueError("committed subset empty; choose different r")
    indices = subset.astype(np.int64) @ (1 << np.arange(code.n - 1, -1, -1, dtype=np.int64))
    weights = np.full(len(subset), 1.0 / len(subset))
    return SparseDiagonalDensity(dim=1 << code.n, indices=indices, weights=weights)


def sparse_overlap(rho_a: SparseDiagonalDensity, rho_b: SparseDiagonalDensity) -> float:
    """trace(rho_a rho_b) of two diagonal states."""
    if rho_a.dim != rho_b.dim:
        raise ValueError("dimension mismatch")
    _, ia, ib = np.intersect1d(
        rho_a.indices, rho_b.indices, assume_unique=True, return_indices=True
    )
    return float(rho_a.weights[ia] @ rho_b.weights[ib])


def to_dense(rho: SparseDiagonalDensity) -> DensityMatrix:
    if rho.dim > 1 << DENSE_GUARD_N:
        raise GuardError("dense representation too large")
    m = np.zeros((rho.dim, rho.dim), dtype=complex)
    m[rho.indices, rho.indices] = rho.weights
    return DensityMatrix(m)


@dataclass(frozen=True)
class CompositeSystem:
    """Ordered factors: n receiver qubits (beta), n committed qubits
    (alpha), n record qutrits (gamma); total dimension 12^n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a composite needs at least one photon")
        if self.n > DENSE_COMPOSITE_MAX_N:
            raise GuardError(
                f"dense composite operations are guarded at n <= {DENSE_COMPOSITE_MAX_N}"
            )

    @property
    def dims(self) -> list[int]:
        return [2] * self.n + [2] * self.n + [3] * self.n

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def beta_axes(self) -> list[int]:
        return list(range(self.n))

    def alpha_axis(self, i: int) -> int:
        return self.n + i

    def gamma_axis(self, i: int) -> int:
        return 2 * self.n + i


def overlap(rho_a: DensityMatrix, rho_b: DensityMatrix) -> float:
    """trace(rho_a rho_b), real."""
    ma, mb = rho_a.matrix, rho_b.matrix
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    val = np.trace(ma @ mb)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"overlap has imaginary part {val.imag}")
    return float(val.real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    eig = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(eig)))


# --- per-photon unitaries -----------------------------------------------------

def bypass_unitary() -> np.ndarray:
    """Swap of the paired receiver/committed qubits (4 x 4)."""
    u = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            u[(b << 1) | a, (a << 1) | b] = 1.0
    return u


def record_permutation(outcome: int) -> np.ndarray:
    """Qutrit unitary mapping the unmeasured state |2> to |outcome>; the
    completion fixes the remaining state (any completion acts identically
    on the reachable |2> subspace)."""
    u = np.eye(3, dtype=complex)
    perm = [0, 1, 2]
    perm[QUTRIT_UNMEASURED], perm[outcome] = perm[outcome], perm[QUTRIT_UNMEASURED]
    return u[perm]


def intercept_unitary() -> np.ndarray:
    """Measure-and-record on (committed qubit, record qutrit): project on
    the encoding basis and permute the qutrit by the outcome (6 x 6)."""
    u = np.zeros((6, 6), dtype=complex)
    for outcome in range(2):
        proj = np.zeros((2, 2), dtype=complex)
        proj[outcome, outcome] = 1.0
        u += np.kron(proj, record_permutation(outcome))
    return u


# --- tensor plumbing ----------------------------------------------------------

def apply_unitary_factors(
    rho: np.ndarray, u: np.ndarray, axes: tuple[int, ...], dims: list[int]
) -> np.ndarray:
    """rho -> U rho U^dagger where U acts on the given tensor factors."""
    n = len(dims)
    axes = tuple(sorted(axes))
    sub = [dims[a] for a in axes]
    m = len(axes)
    t = rho.reshape(dims + dims)
    u_t = u.reshape(sub + sub)
    t = np.tensordot(u_t, t, axes=(list(range(m, 2 * m)), list(axes)))
    t = np.moveaxis(t, range(m), axes)
    bra = [n + a for a in axes]
    t = np.tensordot(np.conj(u_t), t, axes=(list(range(m, 2 * m)), bra))
    t = np.moveaxis(t, range(m), bra)
    d = prod(dims)
    return t.reshape(d, d)


def rotate_beta(rho: np.ndarray, v: np.ndarray, system: CompositeSystem) -> np.ndarray:
    """(V x I) rho (V x I)^dagger for V on the full beta register.

    beta occupies the leading factors, so both sides reduce to contiguous
    matrix products.
    """
    d_beta = 1 << system.n
    d = system.dim
    rest = d // d_beta
    ket = (v @ rho.reshape(d_beta, rest * d)).reshape(d, d_beta, rest)
    # bra side: batched GEMM contracting the bra beta index with v*
    out = np.matmul(v.conj(), ket)
    return out.reshape(d, d)


def partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Trace out every factor not in `keep`."""
    n = len(dims)
    keep = sorted(keep)
    t = rho.reshape(dims + dims)
    ket = list(range(n))
    bra = [i if i not in keep else n + i for i in range(n)]
    out = keep + [n + i for i in keep]
    reduced = np.einsum(t, ket + bra, out)
    d = prod(dims[i] for i in keep)
    return reduced.reshape(d, d)


def kron_all(factors: list[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


# --- pipeline -----------------------------------------------------------------

def initial_composite_state(
    system: CompositeSystem,
    alpha: DensityMatrix | SparseDiagonalDensity,
    beta_qubit: np.ndarray | None = None,
) -> DensityMatrix:
    """rho_beta x rho_alpha x rho_gamma with every record qutrit in |2>.

    beta_qubit is the receiver's (secret, his choice) per-qubit fiducial
    ket; default |0> in the encoding basis.
    """
    if beta_qubit is None:
        beta_qubit = np.array([1.0, 0.0], dtype=complex)
    beta_dm = DensityMatrix.from_pure(beta_qubit).matrix
    gamma_dm = np.zeros((3, 3), dtype=complex)
    gamma_dm[QUTRIT_UNMEASURED, QUTRIT_UNMEASURED] = 1.0
    alpha_m = to_dense(alpha).matrix if isinstance(alpha, SparseDiagonalDensity) else alpha.matrix
    if alpha_m.shape[0] != 1 << system.n:
        raise ValueError("committed register dimension does not match system")
    full = kron_all([beta_dm] * system.n + [alpha_m] + [gamma_dm] * system.n)
    return DensityMatrix(full)


def _check_gamma_unmeasured(state: DensityMatrix, system: CompositeSystem) -> None:
    for i in range(system.n):
        red = partial_trace(state.matrix, system.dims, [system.gamma_axis(i)])
        expected = np.zeros((3, 3), dtype=complex)
        expected[QUTRIT_UNMEASURED, QUTRIT_UNMEASURED] = 1.0
        if np.max(np.abs(red - expected)) > 1e-9:
            raise ValueError("record qutrits must be initialized to the unmeasured state")


def apply_mode_unitary(
    system: CompositeSystem,
    modes: list[str],
    state: DensityMatrix,
    max_intercepts: int | None = None,
) -> DensityMatrix:
    """The receiver's commit-phase unitary: per photon a bypass swap or an
    intercept measure-and-record.

    max_intercepts enforces the legitimacy bound (intercept count < n - d
    for a lawful operation); pass None when modeling an illegitimate full
    measurement.
    """
    if len(modes) != system.n:
        raise ValueError("one mode per photon required")
    n_int = sum(1 for m in modes if m == "intercept")
    if max_intercepts is not None and n_int >= max_intercepts + 1:
        raise ValueError(f"intercept count {n_int} exceeds allowed {max_intercepts}")
    _check_gamma_unmeasured(state, system)
    rho = state.matrix
    u_byp = bypass_unitary()
    u_int = intercept_unitary()
    for i, mode in enumerate(modes):
        if mode == "bypass":
            rho = apply_unitary_factors(
                rho, u_byp, (i, system.alpha_axis(i)), system.dims
            )
        elif mode == "intercept":
            rho = apply_unitary_factors(
                rho, u_int, (system.alpha_axis(i), system.gamma_axis(i)), system.dims
            )
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return DensityMatrix(rho)


def bob_reduced_state(state: DensityMatrix, system: CompositeSystem) -> DensityMatrix:
    """Partial trace over the returned (beta) qubits: what the receiver
    holds after the commit phase."""
    keep = [i for i in range(3 * system.n) if i not in system.beta_axes()]
    return DensityMatrix(partial_trace(state.matrix, system.dims, keep))


def alice_local_invariance(
    system: CompositeSystem,
    modes: list[str],
    code,
    r: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    beta_qubit: np.ndarray | None = None,
) -> dict:
    """The dense invariance report over `trials` Haar rotations V of the
    returned qubits: `max_deviation` is the largest entry of the change in
    the receiver's bit-0 state and `max_overlap_deviation` the change of its
    overlap with the bit-1 state, both 0 up to rounding for a unitary V;
    `reduced_overlap` and `reduced_trace_distance` are what
    `mzqbc.operator_model.reduced_states` reads off the pattern."""
    states = {}
    for b in (0, 1):
        alpha = committed_density(code, r, b)
        full = initial_composite_state(system, alpha, beta_qubit=beta_qubit)
        states[b] = apply_mode_unitary(system, modes, full)
    reduced = {b: bob_reduced_state(states[b], system) for b in (0, 1)}
    base_overlap = overlap(reduced[0], reduced[1])

    max_dev = 0.0
    max_overlap_dev = 0.0
    dim_beta = 1 << system.n
    keep = [i for i in range(3 * system.n) if i not in system.beta_axes()]
    for _ in range(trials):
        v = haar_unitary(dim_beta, rng)
        rotated = rotate_beta(states[0].matrix, v, system)
        red = DensityMatrix(partial_trace(rotated, system.dims, keep))
        max_dev = max(max_dev, float(np.max(np.abs(red.matrix - reduced[0].matrix))))
        max_overlap_dev = max(
            max_overlap_dev, abs(overlap(red, reduced[1]) - base_overlap)
        )
    return {
        "n": system.n,
        "modes": list(modes),
        "trials": trials,
        "max_deviation": max_dev,
        "max_overlap_deviation": max_overlap_dev,
        "reduced_overlap": base_overlap,
        "reduced_trace_distance": trace_distance(reduced[0], reduced[1]),
    }


# --- product-ket (Gram matrix) model ------------------------------------------

def _photon_kets(mode: str, fiducial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One photon's kets after its gate, row a for codeword bit c_i = a: the
    returned qubit beta_i (2 amplitudes) and the receiver's alpha_i x gamma_i
    (6 amplitudes)."""
    qubit, qutrit = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    if mode == "bypass":  # swap: beta_i takes |a>, alpha_i the fiducial
        kept = np.kron(fiducial, qutrit[QUTRIT_UNMEASURED])
        return qubit, np.stack([kept, kept])
    if mode == "intercept":  # measure and record: |a>|2> -> |a>|a>
        return np.stack([fiducial, fiducial]), np.stack(
            [np.kron(qubit[a], qutrit[a]) for a in (0, 1)]
        )
    raise ValueError(f"unknown mode {mode!r}")


def gram_local_invariance(
    modes: list[str],
    code,
    r: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    beta_qubit: np.ndarray | None = None,
) -> dict:
    """The invariance report of `alice_local_invariance`, the same keys and
    the same Haar draws, from the Gram matrix of the receiver's branch kets,
    with the receiver's per-qubit fiducial `beta_qubit` (default |0>).  A V
    moves branch c's weight by |V beta_c|^2 - 1, and `max_deviation` is the
    largest |eigenvalue| of sum_c change_c |B_c><B_c|, the largest
    per-pattern sum of those changes: rounding for a unitary V, O(1/m0)
    for a non-unitary draw."""
    fiducial = np.array([1.0, 0.0] if beta_qubit is None else beta_qubit, dtype=complex)
    fiducial = fiducial / np.linalg.norm(fiducial)
    n = code.n
    words = codeword_oracles.codewords(code)
    parity = words @ np.asarray(r, dtype=np.uint8) % 2
    halves = [words[parity == b] for b in (0, 1)]
    words = np.concatenate(halves)
    m, m0 = len(words), len(halves[0])
    beta = np.ones((m, 1), dtype=complex)
    gram = np.ones((m, m), dtype=complex)
    for i, mode in enumerate(modes):
        beta_i, kept_i = _photon_kets(mode, fiducial)
        bits = words[:, i]
        beta = (beta[:, :, None] * beta_i[bits][:, None, :]).reshape(m, -1)
        gram *= (kept_i.conj() @ kept_i.T)[bits[:, None], bits[None, :]]

    # The B_c as columns in an orthonormal basis of their span, read off the
    # Gram matrix; directions below its rank tolerance are null in exact
    # arithmetic, and keeping their roundoff would split zero eigenvalues
    # by about sqrt(eps).  sum_c x_c |B_c><B_c| then has the spectrum of
    # coords diag(x) coords^dagger.
    lam, u = np.linalg.eigh(gram)
    keep = lam > m * np.finfo(float).eps * lam[-1]
    coords = np.sqrt(lam[keep])[:, None] * u[:, keep].conj().T

    def spectrum(x: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh((coords * x) @ coords.conj().T)

    bit0 = np.arange(m) < m0
    weight = np.sum(np.abs(beta) ** 2, axis=1) / np.where(bit0, m0, m - m0)
    cross = np.abs(gram[:m0, m0:]) ** 2 @ weight[m0:]
    base_overlap = float(weight[:m0] @ cross)

    max_dev = 0.0
    max_overlap_dev = 0.0
    change = np.zeros(m)
    for _ in range(trials):
        v = haar_unitary(1 << n, rng)
        rotated = np.sum(np.abs(beta[:m0] @ v.T) ** 2, axis=1) / m0
        change[:m0] = rotated - weight[:m0]
        max_dev = max(max_dev, float(np.max(np.abs(spectrum(change)))))
        max_overlap_dev = max(max_overlap_dev, abs(float(rotated @ cross) - base_overlap))
    return {
        "n": n,
        "modes": list(modes),
        "trials": trials,
        "max_deviation": max_dev,
        "max_overlap_deviation": max_overlap_dev,
        "reduced_overlap": base_overlap,
        "reduced_trace_distance": 0.5 * float(
            np.sum(np.abs(spectrum(np.where(bit0, weight, -weight))))
        ),
    }
