"""Degree reduction of pseudo-Boolean polynomials to quadratic form.

Four routes: negative-term reduction (one auxiliary), positive-term
reduction (d-2 auxiliaries), deduction-based term rewrites, and
excludable-local-configuration cancellation. NTR and PTR are exact:
minimizing the reduced polynomial over its auxiliaries reproduces the
original value at every original assignment. The others preserve the
ground state under their stated preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping, NamedTuple, Sequence

from .pbf import PRUNE_TOL, Poly


class AuxRecord(NamedTuple):
    """Provenance of one auxiliary: the method that created it and the
    original-variable term it helps reduce. A tuple, not a dataclass: an
    allocation builds one per auxiliary."""

    var: int
    method: str
    term: tuple[int, ...]


@dataclass(frozen=True)
class AuxAllocation:
    original_n: int
    records: tuple[AuxRecord, ...]

    @property
    def aux_vars(self) -> tuple[int, ...]:
        return tuple(r.var for r in self.records)


@dataclass(frozen=True)
class ReductionResult:
    """A reduced polynomial and the auxiliaries it introduced."""

    qubo_poly: Poly
    alloc: AuxAllocation


def ntr_reduce(vars_: Iterable[int], coeff: float, aux: int) -> Poly:
    """Negative term c*prod(x) -> |c|*((d-1)x_a - sum_i x_i x_a).

    Exact: min over x_a is 0 unless every x_i = 1, where it is -|c|.
    """
    vs = sorted(set(vars_))
    d = len(vs)
    if coeff >= 0:
        raise ValueError("negative-term reduction requires a negative coefficient")
    if d < 3:
        raise ValueError(f"degree {d} term needs no reduction")
    if aux in vs:
        raise ValueError(f"auxiliary x{aux} is a variable of the term")
    terms: dict[frozenset[int], float] = {}
    _ntr_terms(terms, vs, float(coeff), aux)
    return Poly._pruned(terms)


def _ntr_terms(out: dict[frozenset[int], float], vs: Sequence[int], coeff: float, aux: int) -> None:
    """Writes NTR's terms into out; each holds the auxiliary."""
    mag = -coeff
    out[frozenset((aux,))] = mag * (len(vs) - 1)
    for v in vs:
        out[frozenset((v, aux))] = -mag


def ptr_reduce(vars_: Iterable[int], coeff: float, aux_ids: Sequence[int]) -> Poly:
    """Positive term c*prod(x) over d variables -> quadratic with d-2 auxiliaries.

    c * [ sum_{i=1}^{d-2} x_{a_i} (d-i-1 + x_i - sum_{j>i} x_j) + x_{d-1} x_d ]
    with variables in sorted order. Exact under min-over-aux.
    """
    vs = sorted(set(vars_))
    d = len(vs)
    if coeff <= 0:
        raise ValueError("positive-term reduction requires a positive coefficient")
    if d < 3:
        raise ValueError(f"degree {d} term needs no reduction")
    if len(aux_ids) != d - 2:
        raise ValueError(f"degree {d} needs exactly {d - 2} auxiliaries, got {len(aux_ids)}")
    if len(set(aux_ids)) != len(aux_ids):
        raise ValueError(f"auxiliaries {list(aux_ids)} repeat")
    clash = sorted(set(aux_ids) & set(vs))
    if clash:
        raise ValueError(f"auxiliaries {clash} are variables of the term")
    coeff = float(coeff)
    terms: dict[frozenset[int], float] = {}
    closing = _ptr_terms(terms, vs, coeff, aux_ids)
    terms[closing] = coeff
    return Poly._pruned(terms)


def _ptr_terms(out: dict[frozenset[int], float], vs: Sequence[int], coeff: float,
               aux_ids: Sequence[int]) -> frozenset[int]:
    """Writes PTR's terms that hold an auxiliary into out and returns the
    closing pair x_{d-1} x_d, whose coefficient is coeff; the caller adds
    it last."""
    # key order is part of the result (the greedy walk and bqm's exact
    # folds add terms in dict order): per auxiliary {a}, {a, v_idx}, then
    # {a, v_j} for j > idx; the closing pair last
    d = len(vs)
    for idx, a in enumerate(aux_ids):
        out[frozenset((a,))] = coeff * float(d - idx - 2)
        out[frozenset((a, vs[idx]))] = coeff
        for v in vs[idx + 1:]:
            out[frozenset((a, v))] = -coeff
    return frozenset(vs[-2:])


def deduction_reduce(p: Poly, pair: tuple[int, int], value: int) -> Poly:
    """Rewrite higher-order terms using a ground-state deduction x_i x_j = value.

    Term-by-term, degree >= 3 only, so no state can fall below the true
    ground energy:

    value 0: positive c*x_i*x_j*R -> c*x_i*x_j (the penalty form);
             negative terms drop entirely.
    value 1: positive c*x_i*x_j*R -> c*R;
             negative ones -> c*R + |c|(1 - x_i x_j).

    Ground states satisfy the deduction, so their energies are
    unchanged; every other state's energy can only rise.
    """
    if value not in (0, 1):
        raise ValueError("deduction value must be 0 or 1")
    i, j = pair
    out = Poly({k: c for k, c in p.terms.items() if not (len(k) >= 3 and i in k and j in k)})
    for k, c in p.terms.items():
        if len(k) < 3 or i not in k or j not in k:
            continue
        rest = k - {i, j}
        if value == 0:
            if c > 0:
                out = out + Poly({frozenset((i, j)): c})
            # negative terms contribute nothing on deduction-satisfying
            # states and only pull others down: drop
        else:
            out = out + Poly({rest: c})
            if c < 0:
                out = out + (-c) * (1 - Poly.variable(i) * Poly.variable(j))
    return out


def elc_reduce(p: Poly, elc: Mapping[int, int]) -> Poly:
    """Cancel the higher-order term on elc's variables by adding
    psi(x) = |zeta| * prod_i (a_i x_i + (1 - a_i)(1 - x_i)).

    elc maps each of the term's variables to the excluded assignment a.
    Cancellation of the top coefficient zeta requires the parity
    condition: for zeta < 0 the number of ones in a must match the
    assignment size mod 2; for zeta > 0 it must differ.
    """
    key = frozenset(elc)
    if len(key) < 3:
        raise ValueError("excluded configuration must cover a term of degree >= 3")
    zeta = p.terms.get(key, 0.0)
    if zeta == 0.0:
        raise ValueError("polynomial has no term on the excluded configuration's variables")
    ones = sum(1 for v in elc.values() if v == 1)
    same_parity = ones % 2 == len(elc) % 2
    if (zeta < 0) != same_parity:
        raise ValueError(
            f"parity condition violated: coefficient {zeta} with {ones} ones over {len(elc)} variables"
        )
    psi = Poly.constant(abs(zeta))
    for v in sorted(elc):
        xv = Poly.variable(v)
        psi = psi * (xv if elc[v] == 1 else (1 - xv))
    return p + psi


def aux_allocation(p: Poly, aux_start: int | None = None) -> AuxAllocation:
    """The auxiliaries quadratize_full gives p, without its terms: each
    degree >= 3 term in sorted order gets one (NTR, negative coefficient)
    or d - 2 (PTR, positive) consecutive ids, starting at aux_start. It
    defaults to one past the largest variable id and may not lie below
    it (an auxiliary would alias a variable)."""
    original_n = max((max(k) for k in p.terms if k), default=-1) + 1
    if aux_start is not None and aux_start < original_n:
        raise ValueError(f"aux_start {aux_start} is below the variable count {original_n}")
    next_aux = original_n if aux_start is None else aux_start
    records: list[AuxRecord] = []
    # distinct terms sort apart on their variables alone
    for term, c in sorted((tuple(sorted(k)), c) for k, c in p.terms.items() if len(k) > 2):
        method, count = ("ntr", 1) if c < 0 else ("ptr", len(term) - 2)
        records.extend(AuxRecord(a, method, term) for a in range(next_aux, next_aux + count))
        next_aux += count
    return AuxAllocation(original_n, tuple(records))


def quadratize_full(p: Poly, alloc: AuxAllocation | None = None) -> ReductionResult:
    """Reduce every degree >= 3 term by sign: NTR when negative, PTR when
    positive, on the auxiliaries of alloc, by default aux_allocation(p).

    The reductions are summed into one term dict in place, so the cost
    is linear in the number of terms. After each reduction, a term whose
    running coefficient has magnitude <= PRUNE_TOL is removed, and a
    later contribution re-inserts it at the end: the result, key order
    included, is that of adding the reductions one Poly at a time.
    """
    if alloc is None:
        alloc = aux_allocation(p)
    out = {k: c for k, c in p.terms.items() if len(k) <= 2}
    # Every reduction term holds one of the reduction's fresh auxiliaries,
    # except PTR's closing pair, so only that one can meet a coefficient
    # already summed. The others are written straight into out, and each
    # is at least |c| > PRUNE_TOL in magnitude.
    for term, group in groupby(alloc.records, key=lambda r: r.term):
        aux_ids = [r.var for r in group]
        c = p.terms[frozenset(term)]
        if c < 0:
            _ntr_terms(out, term, c, aux_ids[0])
            continue
        key = _ptr_terms(out, term, c, aux_ids)
        total = out.get(key, 0.0) + c
        if abs(total) > PRUNE_TOL:
            out[key] = total
        else:
            out.pop(key, None)
    return ReductionResult(Poly._of(out), alloc)


def min_over_aux(reduced: Poly, aux_vars: Iterable[int], x: Mapping[int, int]) -> float:
    """Minimum of the reduced polynomial over its auxiliaries at a fixed
    original assignment.

    NTR/PTR auxiliaries never share a monomial, so the minimum splits
    per auxiliary: base value plus min(0, linear aux coefficient).
    Co-occurring auxiliaries are rejected.
    """
    aux_set = set(aux_vars)
    base = 0.0
    aux_coeff: dict[int, float] = {}
    for k, c in reduced.terms.items():
        hit = k & aux_set
        if not hit:
            term = c
            for v in k:
                term *= x[v]
            base += term
        elif len(hit) == 1:
            (a,) = hit
            term = c
            for v in k - hit:
                term *= x[v]
            aux_coeff[a] = aux_coeff.get(a, 0.0) + term
        else:
            raise ValueError(f"auxiliaries {sorted(hit)} share a monomial; minimum does not separate")
    return base + sum(min(0.0, w) for w in aux_coeff.values())
