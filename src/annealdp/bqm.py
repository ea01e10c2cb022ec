"""Binary quadratic models: Ising and QUBO containers plus exact tooling.

Both model classes store sparse coefficient dicts keyed by canonical
index pairs. An energy is the fold of its terms in dict insertion order:
energy_terms lists them, and fold_values and fold_indices add any such
term list over many states at once, bit-for-bit equal to the scalar
sums. The exhaustive search ranks states approximately with gemms,
within a proven rounding bound, and reports only those exact folds.

Only the public per-class functions (the energies, energy_terms and
value_domain) read a model's dicts or ask its class; a model that is
not an IsingModel is read as a QUBO, through its n and q. The
exhaustive search takes any term list: brute_force runs it over a
model's energy_terms, engines.sequential_greedy over a group's fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

SpinState = Sequence[int]
BinaryState = Sequence[int]

BRUTE_FORCE_MAX_VARS = 26
# States per enumeration block, as a power of two: the approximate pass
# ranks about this many states per gemm chunk, and exact folds run in
# chunks of this size. Measured per brute_force call on the
# 18-variable combinatorial QUBO (median of 15, one BLAS thread):
# 2^20 1.8 ms, 2^16 1.6 ms, 2^15 1.6 ms, 2^14 1.7 ms, 2^13 2.3 ms, 2^12 2.4 ms,
# 2^10 5.0 ms.
_BLOCK_BITS = 14


class CapacityError(Exception):
    """Raised when a problem exceeds an exhaustive-enumeration guard."""


def _canonical_pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


@dataclass
class IsingModel:
    """Ising Hamiltonian H(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j.

    Parameters
    ----------
    n : int
        Number of spin variables, indexed 0..n-1.
    biases : mapping int -> float
        Linear fields h_i. Missing entries are zero.
    couplings : mapping (int, int) -> float
        Pairwise couplings J_ij. Keys are canonicalised to i < j on
        construction; duplicate keys accumulate.
    """

    n: int
    biases: dict[int, float] = field(default_factory=dict)
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        biases: dict[int, float] = {}
        for i, h in self.biases.items():
            self._check_index(i)
            biases[i] = biases.get(i, 0.0) + float(h)
        couplings: dict[tuple[int, int], float] = {}
        for (i, j), w in self.couplings.items():
            self._check_index(i)
            self._check_index(j)
            if i == j:
                raise ValueError(f"self-coupling ({i},{i}) is not a valid Ising term")
            key = _canonical_pair(i, j)
            couplings[key] = couplings.get(key, 0.0) + float(w)
        self.biases = biases
        self.couplings = couplings

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range for n={self.n}")


@dataclass
class QuboModel:
    """QUBO objective H(x) = sum_i Q_ii x_i + sum_{j<i} Q_ij x_i x_j over bits.

    Stored as an upper-triangular sparse dict: keys are (i, j) with
    i <= j, diagonal entries are the linear coefficients. Duplicate and
    transposed keys accumulate into the canonical entry.
    """

    n: int
    q: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        q: dict[tuple[int, int], float] = {}
        for (i, j), w in self.q.items():
            if not 0 <= i < self.n or not 0 <= j < self.n:
                raise ValueError(f"variable index ({i},{j}) out of range for n={self.n}")
            key = _canonical_pair(i, j)
            q[key] = q.get(key, 0.0) + float(w)
        self.q = q

    @classmethod
    def _canonical(cls, n: int, q: dict[tuple[int, int], float]) -> "QuboModel":
        """A model that takes over q as the constructor would store it:
        n >= 0, every key (i, j) once with 0 <= i <= j < n, float values
        that are not -0.0. Skips the constructor's pass over q."""
        model = cls.__new__(cls)
        model.n = n
        model.q = q
        return model


@dataclass(frozen=True)
class SpectrumResult:
    """Outcome of exhaustive enumeration.

    argmin_states are in the model's native domain (spins for Ising,
    bits for QUBO), ordered by state index.
    """

    min_energy: float
    argmin_states: tuple[tuple[int, ...], ...]


def ising_energy(model: IsingModel, s: SpinState) -> float:
    """Energy of a spin assignment; entries must be exactly -1 or +1."""
    if len(s) != model.n:
        raise ValueError(f"state length {len(s)} != n={model.n}")
    for v in s:
        if v not in (-1, 1):
            raise ValueError(f"spin values must be -1 or +1, got {v!r}")
    e = 0.0
    for i, h in model.biases.items():
        e += h * s[i]
    for (i, j), w in model.couplings.items():
        e += w * s[i] * s[j]
    return e


def qubo_energy(model: QuboModel, x: BinaryState) -> float:
    """Energy of a bit assignment; entries must be exactly 0 or 1."""
    if len(x) != model.n:
        raise ValueError(f"state length {len(x)} != n={model.n}")
    for v in x:
        if v not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {v!r}")
    e = 0.0
    for (i, j), w in model.q.items():
        if i == j:
            e += w * x[i]
        else:
            e += w * x[i] * x[j]
    return e


def energy_of_bits(model: IsingModel | QuboModel, bits: BinaryState) -> float:
    """Model energy of a bit assignment (spins s = 2b - 1 for Ising models)."""
    if isinstance(model, IsingModel):
        return ising_energy(model, [2 * b - 1 for b in bits])
    return qubo_energy(model, bits)


def energy_terms(model: IsingModel | QuboModel) -> list[tuple[tuple[int, ...], float]]:
    """(variables, coefficient) per term, in the order energy_of_bits adds
    them: an Ising model's biases, then its couplings; a QUBO's entries in
    dict order, a diagonal entry as a one-variable term."""
    if isinstance(model, IsingModel):
        return [((i,), h) for i, h in model.biases.items()] + list(model.couplings.items())
    return [((i,) if i == j else (i, j), w) for (i, j), w in model.q.items()]


def value_domain(model) -> tuple[int, int]:
    """A variable's (off, on) values: spins for an Ising model, else bits."""
    return (-1, 1) if isinstance(model, IsingModel) else (0, 1)


# The exact fold. A term is its coefficient times its variables' values,
# each -1, 0 or 1, so every term is exactly +-c or a zero, whatever the
# order of its products. The terms are added in the order given, one at
# a time from 0.0, so a state's energy is the same bit for bit whichever
# entry or branch scores it and whichever states share the call: over
# energy_terms it is energy_of_bits, over a Poly's terms Poly.evaluate.

# Up to this many states are folded one at a time in Python: that costs a
# few operations per term and state, the numpy fold a few calls per term
# whatever the state count. Median per call, one BLAS thread, on every
# term list the benchmark workloads fold (1 to 471 terms: the greedy
# group, activation and merged-polynomial folds, g_p and g_v, the
# one-shot QUBO, the combinatorial and hybrid valuation QUBOs and their
# split halves): the two break even near 16 states, and near 4-8 for a
# 1-term fold. The workloads fold 1, 2, 64, 73, 128, 154, 200 or 512
# states per call, far from the cut on either side.
_SCALAR_FOLD_MAX = 16


def fold_values(terms: Iterable[tuple[Iterable[int], float]], cols: np.ndarray) -> np.ndarray:
    """Energies of the states whose values are the columns of `cols`
    (row v holds variable v's value in each state). A term without
    variables, a polynomial's constant, adds its coefficient. Up to
    _SCALAR_FOLD_MAX states are folded one at a time in Python; the
    terms are then read once per state, so pass a list or a dict view,
    not a generator."""
    if cols.shape[1] <= _SCALAR_FOLD_MAX:
        out = []
        for x in cols.T.tolist():
            e = 0.0
            for vars_, c in terms:
                for v in vars_:
                    c *= x[v]
                e += c
            out.append(e)
        return np.array(out, dtype=np.float64)
    energies = np.zeros(cols.shape[1])
    for vars_, c in terms:
        term = c
        for v in vars_:
            term = term * cols[v]
        energies += term
    return energies


def fold_indices(
    terms: Iterable[tuple[Iterable[int], float]],
    idx: np.ndarray,
    n: int,
    domain: tuple[int, int] = (0, 1),
) -> np.ndarray:
    """Energies of the states over n variables with the given int64
    indices, by fold_values in chunks of 2^_BLOCK_BITS states: bit v of
    index m sets variable v to domain[(m >> v) & 1]."""
    values = np.array(domain, dtype=np.float64)
    shifts = np.arange(n)[:, None]
    out = np.empty(len(idx))
    step = 1 << _BLOCK_BITS
    for start in range(0, len(idx), step):
        chunk = idx[start:start + step]
        out[start:start + len(chunk)] = fold_values(terms, values[(chunk >> shifts) & 1])
    return out


def _value_table(bits: int, domain: tuple[int, int]) -> np.ndarray:
    """(2^bits x bits) values of every state over `bits` variables."""
    return np.array(domain, dtype=np.float64)[(np.arange(1 << bits)[:, None] >> np.arange(bits)) & 1]


def _index_state(k: int, n: int, domain: tuple[int, int]) -> tuple[int, ...]:
    """The state over n variables with index k: variable v takes
    domain[(k >> v) & 1]."""
    k = int(k)
    return tuple(domain[(k >> v) & 1] for v in range(n))


# Candidate set of the approximate pass over a term list, a model's
# energy_terms or a greedy group's fold. Every term of an energy is the
# coefficient times a value in {-1, 0, 1}, so it is exactly +-w or 0,
# and a product of a rounded partial sum with such a value is exact too.
# Any summation order (gemm blocking and FMA included) therefore computes
# a state's energy as a sum of its m terms with at most m - 1 roundings,
# so with u = 2^-53, gamma_m = m u / (1 - m u) and S = sum |w|, both the
# approximate energy e~ and the exact dict-order fold e lie within
# gamma_m S of the real value, and |e~ - e| <= delta = 2 gamma_m S. For
# an exact argmin k and the approximate argmin j:
#     e~_k <= e_k + delta <= e_j + delta <= e~_j + 2 delta,
# so every state with e~ <= e~_min + 2 delta is rescored exactly and no
# argmin is missed. The bound 2 delta = 4 gamma_m S is computed in
# floats from a correctly rounded S (fsum) through three more
# roundings, each at most a factor 1 - u, which the 1 + 2^-50 = 1 + 8u
# factor outweighs; the threshold sum is then stepped one float up.
# Past S = 2^1020 a partial sum may overflow, and every state is a
# candidate instead. A greedy fold may hold two terms on the same pair
# of variables. Across the split, _split_ranking sums them into one
# entry of the cross matrix: fl(c1 + c2) v = fl(c1 v + c2 v) for v in
# {-1, 0, 1} is one rounding of a sum of the fold's terms. Inside a
# half, it folds them unmerged. Either way e~ is still a sum of the
# fold's m terms with at most m - 1 roundings, and delta is taken over
# the fold's own coefficients.
_UNIT_ROUNDOFF = 2.0**-53


def _rank_bound(weights: Iterable[float]) -> float | None:
    """The proven bound 2 delta between the split ranking and the exact
    fold, rounded up; None when S = sum |w| is not below 2^1020 (or is
    not finite), where every state must be a candidate instead."""
    weights = list(weights)
    s = math.fsum(abs(w) for w in weights)
    if not s <= 2.0**1020:
        return None
    mu = len(weights) * _UNIT_ROUNDOFF
    return 4.0 * (mu / (1.0 - mu)) * s * (1.0 + 2.0**-50)


def _split_ranking(
    terms: Iterable[tuple[Sequence[int], float]], n: int, domain: tuple[int, int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Approximate energies of every state of a term list over n
    variables, each of at most two variables, in index order and in
    chunks of about 2^_BLOCK_BITS states, as (first state index, flat
    energies). The flat array is a buffer that the next chunk overwrites.

    The low n_lo = n // 2 variables a and the high n_hi variables b of
    state m = b << n_lo | a split its energy as
    E(a, b) = E_low[a] + E_high[b] + v(a)^T C v(b). E_low and E_high fold
    the terms inside each half, in the order given; C is the (n_lo x n_hi)
    matrix of the terms across the halves, a pair given twice summed into
    one entry; v is the vector of the variables' domain values. The cross
    term is (V_low @ C) @ V_high^T over chunks of high states, so no 2^n
    array is ever held.
    """
    n_lo = n // 2
    n_hi = n - n_lo
    low: list[tuple[Sequence[int], float]] = []
    high: list[tuple[Sequence[int], float]] = []
    cross = np.zeros((n_lo, n_hi))
    for vars_, c in terms:
        if max(vars_) < n_lo:
            low.append((vars_, c))
        elif min(vars_) >= n_lo:
            high.append((vars_, c))
        else:
            i, j = sorted(vars_)
            cross[i, j - n_lo] += c
    e_low = fold_indices(low, np.arange(1 << n_lo), n_lo, domain)
    # the high states as indices over all n variables, the low ones off
    e_high = fold_indices(high, np.arange(1 << n_hi) << n_lo, n, domain)[:, None]
    low_cross = np.ascontiguousarray((_value_table(n_lo, domain) @ cross).T)
    v_high = _value_table(n_hi, domain)
    rows = 1 << max(0, _BLOCK_BITS - n_lo)
    buf = np.empty((min(rows, 1 << n_hi), 1 << n_lo))
    for b0 in range(0, 1 << n_hi, rows):
        b1 = min(b0 + rows, 1 << n_hi)
        approx = buf[: b1 - b0]
        np.matmul(v_high[b0:b1], low_cross, out=approx)
        approx += e_low
        approx += e_high[b0:b1]
        yield b0 << n_lo, approx.ravel()


def _near_minimum(
    terms: Sequence[tuple[Sequence[int], float]], n: int, domain: tuple[int, int]
) -> np.ndarray | None:
    """Sorted indices of every state of a term list (each term on one or
    two variables) whose split-ranked energy is within the proven bound
    of the approximate minimum; None when every state must be a
    candidate (the bound would overflow)."""
    bound = _rank_bound(c for _, c in terms)
    if bound is None:
        return None
    emin = np.inf
    thr = np.inf
    found_idx: list[np.ndarray] = []
    found_e: list[np.ndarray] = []
    for m0, flat in _split_ranking(terms, n, domain):
        cmin = flat.min()
        if cmin < emin:
            emin = cmin
            thr = np.nextafter(emin + bound, np.inf)
        hits = np.flatnonzero(flat <= thr)
        found_idx.append(hits + m0)
        found_e.append(flat[hits])
    idx = np.concatenate(found_idx)
    return idx[np.concatenate(found_e) <= thr]


# Term lists over at least this many variables, each term on one or two
# of them, are ranked by the split gemm before the exact fold; smaller
# or higher-degree ones are folded whole. Median brute_force call on a
# random QUBO with normal weights, one BLAS thread, whole against split:
# dense, 8 bits 0.08/0.12 ms, 9 0.11/0.14, 10 0.17/0.15, 11 0.31/0.18,
# 12 0.85/0.20, 14 3.5/0.27; 30 % of the pairs, 10 bits 0.10/0.11,
# 11 0.15/0.11, 12 0.51/0.13.
_SPLIT_MIN_BITS = 10


def _exact_minimum(
    terms: Sequence[tuple[Sequence[int], float]], n: int, domain: tuple[int, int]
) -> tuple[float, list[int]]:
    """The exact minimum of a term list over the 2^n states of n
    variables and the indices of every state attaining it, in index
    order. Only the states _near_minimum keeps are folded exactly when
    the split applies, every state otherwise, in chunks of
    2^_BLOCK_BITS; the minimum is an exact fold either way."""
    candidates = None
    if n >= _SPLIT_MIN_BITS and all(len(vars_) <= 2 for vars_, _ in terms):
        candidates = _near_minimum(terms, n, domain)
    if candidates is None:
        block = 1 << min(n, _BLOCK_BITS)
        chunks: Iterable[np.ndarray] = (
            np.arange(start, min(start + block, 1 << n), dtype=np.int64)
            for start in range(0, 1 << n, block)
        )
    else:
        chunks = (candidates,)
    min_energy = np.inf
    argmin_idx: list[int] = []
    for idx in chunks:
        energies = fold_indices(terms, idx, n, domain)
        bmin = float(energies.min())
        if bmin < min_energy:
            min_energy = bmin
            argmin_idx = []
        if bmin == min_energy:
            argmin_idx.extend(idx[energies == min_energy].tolist())
    return float(min_energy), argmin_idx


def brute_force(model: IsingModel | QuboModel) -> SpectrumResult:
    """Exhaustively enumerate all 2^n states.

    Over at least _SPLIT_MIN_BITS variables, a first pass ranks every
    state approximately with gemms over a split of the bits; a second
    pass rescores, with the exact fold over energy_terms, every state
    within a proven rounding bound of the approximate minimum (every
    state when that bound would overflow, or below that width). The
    reported energies are those exact folds, bit-for-bit equal to
    energy_of_bits, so results do not depend on the gemm or on the block
    size. States are reported in the model's native domain. All states
    attaining the exact minimum are returned, ordered by state index.
    Raises ValueError if any coefficient is NaN or infinite.
    """
    n = model.n
    if n > BRUTE_FORCE_MAX_VARS:
        raise CapacityError(
            f"brute force over {n} variables exceeds the guard of {BRUTE_FORCE_MAX_VARS}")
    terms = energy_terms(model)
    if not all(math.isfinite(c) for _, c in terms):
        raise ValueError("brute force needs finite coefficients")
    domain = value_domain(model)
    min_energy, argmin_idx = _exact_minimum(terms, n, domain)
    return SpectrumResult(
        min_energy=min_energy,
        argmin_states=tuple(_index_state(k, n, domain) for k in argmin_idx),
    )
