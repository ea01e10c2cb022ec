"""Binary quadratic models: Ising and QUBO containers plus exact tooling.

Both model classes store sparse coefficient dicts keyed by canonical
index pairs. An energy is the fold of its terms in dict insertion order:
energy_terms lists them, and fold_values and fold_indices add any such
term list over many states at once, bit-for-bit equal to the scalar
sums. brute_force ranks states approximately with gemms, within a proven
rounding bound, and reports only those exact folds.

Only the public per-class functions (the energies, energy_terms and
value_domain) read a model's dicts or ask its class; a model that is
not an IsingModel is read as a QUBO, through its n and q. The
exhaustive search reads a model through energy_terms and value_domain
alone, and its split ranking takes any term list, such as a greedy
group's fold.
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
# ranks about this many states per gemm chunk, exact folds run in chunks
# of this size, and engines.sequential_greedy ranks or scores its group
# assignments in such chunks. Measured per brute_force call on the
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
    bits for QUBO), ordered by state index. spectrum, when kept, lists
    (state, energy) for every state in index order.
    """

    min_energy: float
    argmin_states: tuple[tuple[int, ...], ...]
    spectrum: tuple[tuple[tuple[int, ...], float], ...] | None = None


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


# Candidate set of the approximate pass. Every term of an energy is the
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
# candidate instead.
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


def _near_minimum(model: IsingModel | QuboModel, weights: list[float]) -> np.ndarray | None:
    """Sorted indices of every state whose split-ranked energy is within
    the proven bound of the approximate minimum; None when every state
    must be a candidate (the bound would overflow)."""
    bound = _rank_bound(weights)
    if bound is None:
        return None
    emin = np.inf
    thr = np.inf
    found_idx: list[np.ndarray] = []
    found_e: list[np.ndarray] = []
    for m0, flat in _split_ranking(energy_terms(model), model.n, value_domain(model)):
        cmin = flat.min()
        if cmin < emin:
            emin = cmin
            thr = np.nextafter(emin + bound, np.inf)
        hits = np.flatnonzero(flat <= thr)
        found_idx.append(hits + m0)
        found_e.append(flat[hits])
    idx = np.concatenate(found_idx)
    return idx[np.concatenate(found_e) <= thr]


# Candidate set of a first-improvement scan (engines.sequential_greedy).
# The scan starts from an exact energy e_start and takes each entry that
# beats its running best by more than a tolerance, so it takes only
# strict exact prefix records of (e_start, e_0, e_1, ...): entries i with
# e_i < min(e_start, min_{j<i} e_j). With |e~ - e| <= delta as above,
# such an entry satisfies
#     e~_i <= e_i + delta < e_start + delta   and
#     e~_i <= e_i + delta < e_j + delta <= e~_j + 2 delta  for all j < i,
# so e~_i - e_start <= delta and e~_i - min_{j<i} e~_j <= 2 delta, with
# the running minimum of e~ carried across chunks. Rounding is monotone
# and the float bound is at least 2 delta, so the computed differences
# meet the same inequalities against bound / 2 and bound: no threshold
# needs a step up. An entry outside this set is never taken, and an
# entry that is not taken never changes the running best. By induction
# over the entries in index order, the running best before each
# candidate is the same in a scan over the candidates alone as in the
# full scan, so both take exactly the same entries. Brute force's band
# around the approximate minimum is not enough here: a record taken
# before the scan reaches that band moves the running best, and with it
# which entries inside the band beat it by the tolerance. The scan's
# fold may hold two terms on the same pair of variables. Across the
# split, _split_ranking sums them into one entry of the cross matrix:
# fl(c1 + c2) v = fl(c1 v + c2 v) for v in {-1, 0, 1} is one rounding of
# a sum of the fold's terms. Inside a half, it folds them unmerged.
# Either way e~ is still a sum of the fold's m terms with at most m - 1
# roundings, and delta is taken over the fold's own coefficients.


def _record_candidates(
    ranked: Iterable[tuple[int, np.ndarray]], e_start: float, bound: float
) -> Iterator[np.ndarray]:
    """The sorted int64 indices of every state of a split ranking that can
    be a strict exact prefix record of (e_start, e_0, ...), given the
    proven bound 2 delta between ranking and exact fold; yielded in
    batches of at least 2^_BLOCK_BITS indices (the last may be smaller)."""
    half = bound / 2.0
    run = np.inf
    found: list[np.ndarray] = []
    count = 0
    for m0, flat in ranked:
        cmin = float(flat.min())
        prior, run = run, min(run, cmin)
        # rounding is monotone: if the chunk's minimum fails a test below
        # against `prior`, every entry of the chunk fails it
        if cmin - prior > bound or cmin - e_start > half:
            continue
        # the approximate minimum over every earlier state
        before = np.empty_like(flat)
        before[0] = prior
        np.minimum.accumulate(flat[:-1], out=before[1:])
        np.minimum(before, prior, out=before)
        keep = np.subtract(flat, before, out=before) <= bound
        keep &= flat - e_start <= half
        hits = np.flatnonzero(keep) + m0
        found.append(hits)
        count += len(hits)
        if count >= 1 << _BLOCK_BITS:
            yield np.concatenate(found)
            found, count = [], 0
    if found:
        yield np.concatenate(found)


def brute_force(
    model: IsingModel | QuboModel,
    keep_spectrum: bool = False,
    max_vars: int = BRUTE_FORCE_MAX_VARS,
) -> SpectrumResult:
    """Exhaustively enumerate all 2^n states.

    A first pass ranks every state approximately with gemms over a split
    of the bits; a second pass rescores, with the exact fold over
    energy_terms, every state within a proven rounding bound of the
    approximate minimum (every state when keep_spectrum is set). The
    reported energies are those exact folds, bit-for-bit equal to
    energy_of_bits, so results do not depend on the gemm or on the block
    size. States are reported in the model's native domain. All states
    attaining the exact minimum are returned, ordered by state index.
    Raises ValueError if any coefficient is NaN or infinite.
    """
    n = model.n
    if n > max_vars:
        raise CapacityError(f"brute force over {n} variables exceeds the guard of {max_vars}")
    terms = energy_terms(model)
    weights = [c for _, c in terms]
    if not all(math.isfinite(w) for w in weights):
        raise ValueError("brute force needs finite coefficients")
    total = 1 << n
    candidates = None if keep_spectrum else _near_minimum(model, weights)
    if candidates is None:
        block = 1 << min(n, _BLOCK_BITS)
        chunks: Iterable[np.ndarray] = (
            np.arange(start, min(start + block, total), dtype=np.int64)
            for start in range(0, total, block)
        )
    else:
        chunks = (candidates,)
    domain = value_domain(model)
    min_energy = np.inf
    argmin_idx: list[int] = []
    spectrum_energies: list[np.ndarray] = []
    for idx in chunks:
        energies = fold_indices(terms, idx, n, domain)
        if keep_spectrum:
            spectrum_energies.append(energies)
        bmin = float(energies.min())
        if bmin < min_energy:
            min_energy = bmin
            argmin_idx = []
        if bmin == min_energy:
            argmin_idx.extend(idx[energies == min_energy].tolist())

    spectrum = None
    if keep_spectrum:
        flat = np.concatenate(spectrum_energies) if spectrum_energies else np.zeros(0)
        spectrum = tuple((_index_state(k, n, domain), float(flat[k])) for k in range(total))
    return SpectrumResult(
        min_energy=float(min_energy),
        argmin_states=tuple(_index_state(k, n, domain) for k in argmin_idx),
        spectrum=spectrum,
    )


def random_ising(n: int, rng: np.random.Generator, density: float = 0.5) -> IsingModel:
    """Random dense-ish test instance with coefficients in [-1, 1]."""
    biases = {i: float(rng.uniform(-1, 1)) for i in range(n)}
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                couplings[(i, j)] = float(rng.uniform(-1, 1))
    return IsingModel(n, biases, couplings)
