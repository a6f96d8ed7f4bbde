"""Exact intersection numbers on Mbar_{g,n}.

psi_integral computes correlators <tau_{d_1} ... tau_{d_n}>_g exactly, with
one in-process memo.  A tau_0 is removed by the string equation, else a tau_1
by the dilaton equation (Witten 1991); only when every index is >= 2 does the
DVV (KdV/Virasoro) recursion on the largest index run.

kappa_psi_integral reduces mixed kappa-psi integrals to pure psi integrals by
pushing kappa classes to an extra marked point, one kappa factor at a time:

    <psi^d kappa_{b_1..b_m}>_{g,n}
      = sum over T subset of {1..m-1} of (-1)^{|T|}
            <psi^d, psi_{new}^{b_m + 1 + sum_{j in T} b_j},
             kappa_{b_j : j not in T, j < m}>_{g,n+1}

evaluate integrates a top-degree TautClass: each decorated stratum
contributes coeff / |Aut(graph)| times the product of local vertex integrals.
pair_strata integrates each monomial of a product the same way, on its
graph, without building the product class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .graphs import DomainError, StableGraph, automorphism_count
from .product import product_monomials
from .strata import DecoratedStratum, TautClass, generators


def double_factorial(k: int) -> int:
    """(k)!! for odd k >= -1, with (-1)!! = 1."""
    if k < -1 or k % 2 == 0:
        raise DomainError("double factorial needs odd k >= -1, got %d" % k)
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def psi_integral(g: int, exps: Sequence[int]) -> Fraction:
    """<tau_{exps[0]} ... tau_{exps[-1]}>_g, zero off dimension or unstable."""
    n = len(exps)
    if g < 0 or any(e < 0 for e in exps) or 2 * g - 2 + n <= 0 \
            or sum(exps) != 3 * g - 3 + n:
        return Fraction(0)
    return _psi_integral(g, tuple(sorted(exps)))


@functools.cache
def _psi_integral(g: int, exps: tuple[int, ...]) -> Fraction:
    n = len(exps)
    if g == 0 and n == 3:
        return Fraction(1)
    if g == 1 and n == 1:
        return Fraction(1, 24)
    if exps[0] == 0:  # string equation
        rest = exps[1:]
        return sum((psi_integral(g, rest[:j] + (k - 1,) + rest[j + 1:])
                    for j, k in enumerate(rest) if k), Fraction(0))
    if exps[0] == 1:  # dilaton equation
        return (2 * g - 3 + n) * psi_integral(g, exps[1:])
    # DVV recursion on the largest index; every index is >= 2 here
    k = exps[-1] - 1
    rest = exps[:-1]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        merged = rest[:j] + (dj + k,) + rest[j + 1:]
        total += (Fraction(double_factorial(2 * k + 2 * dj + 1),
                           double_factorial(2 * dj - 1))
                  * psi_integral(g, merged))
    for a in range(k):
        b = k - 1 - a
        w = Fraction(double_factorial(2 * a + 1) * double_factorial(2 * b + 1), 2)
        total += w * psi_integral(g - 1, (a, b) + rest)
        for mask in range(1 << len(rest)):
            part = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            comp = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
            # the left factor's dimension fixes its genus
            g1, off = divmod(a + sum(part) + 2 - len(part), 3)
            if not off and g1 <= g:
                total += (w * psi_integral(g1, (a,) + part)
                          * psi_integral(g - g1, (b,) + comp))
    return total / double_factorial(2 * k + 3)


def wk_cache_status() -> dict:
    """Entry count of the correlator memo.  There is no disk cache; this
    remains only because the benchmark harness (bench/child.py
    --cache-status) imports it."""
    return {"dir": "", "wk_disk_entries": 0,
            "wk_memory_entries": _psi_integral.cache_info().currsize}


def kappa_psi_integral(g: int, psi_exps: Sequence[int],
                       kappa_parts: Sequence[int]) -> Fraction:
    """Integral of psi_1^{e_1}..psi_n^{e_n} * prod_a kappa_a over Mbar_{g,n},
    where n = len(psi_exps) and kappa_parts lists kappa indices (each >= 1)."""
    if any(a < 1 for a in kappa_parts):
        raise DomainError("kappa indices must be >= 1")
    kappa_parts = tuple(sorted(kappa_parts))
    if not kappa_parts:
        return psi_integral(g, psi_exps)
    return _kappa_psi_integral(g, tuple(sorted(psi_exps, reverse=True)),
                               kappa_parts)


@functools.cache
def _kappa_psi_integral(g: int, psi_key: tuple[int, ...],
                        kappa_parts: tuple[int, ...]) -> Fraction:
    last = kappa_parts[-1]
    others = kappa_parts[:-1]
    total = Fraction(0)
    for mask in range(1 << len(others)):
        chosen = [others[i] for i in range(len(others)) if mask >> i & 1]
        kept = tuple(others[i] for i in range(len(others)) if not mask >> i & 1)
        sign = -1 if len(chosen) % 2 else 1
        new_exp = last + 1 + sum(chosen)
        total += sign * kappa_psi_integral(g, psi_key + (new_exp,), kept)
    return total


# ---------------------------------------------------------------------------
# evaluation of classes


def _decoration_integral(G: StableGraph, pl: dict, ph: dict, kp: dict) -> Fraction:
    """1/|Aut G| times the product over vertices of the local kappa-psi
    integrals of a decoration of G (zero where a vertex degree is off)."""
    value = Fraction(1, automorphism_count(G))
    for v in range(G.num_vertices):
        exps = [pl.get(m, 0) for m in G.legs[v]]
        exps += [ph.get(h, 0) for h in G.half_edges_at(v)]
        local = kappa_psi_integral(G.genera[v], exps, kp.get(v, ()))
        if not local:
            return Fraction(0)
        value *= local
    return value


def stratum_integral(s: DecoratedStratum) -> Fraction:
    """Integral of the stratum class over Mbar_{g,n} (top degree only)."""
    G = s.graph
    if s.degree != 3 * G.genus() - 3 + G.num_legs:
        return Fraction(0)
    return _decoration_integral(G, dict(s.psi_leg), dict(s.psi_he),
                                dict(s.kappa))


def evaluate(x: TautClass) -> Fraction:
    """Integral of a top-degree class; zero when the degree is not top."""
    if x.degree != 3 * x.g - 3 + x.n:
        return Fraction(0)
    return sum((c * stratum_integral(s) for s, c in x.terms.items()),
               Fraction(0))


def pair_strata(s: DecoratedStratum, t: DecoratedStratum) -> Fraction:
    """Integral of the product of two stratum classes of complementary degree.
    Each monomial of the product is integrated in place on its graph, with no
    stratum built; it equals ``evaluate(multiply_strata(s, t))``."""
    if t.sort_key() < s.sort_key():
        s, t = t, s
    return _pair_strata(s, t)


@functools.cache
def _pair_strata(s: DecoratedStratum, t: DecoratedStratum) -> Fraction:
    return sum((coeff * _decoration_integral(G, pl, ph, kp)
                for G, pl, ph, kp, coeff in product_monomials(s, t)),
               Fraction(0))


def pair_with(x: TautClass, t: DecoratedStratum) -> Fraction:
    """Pairing of a class with one stratum: the sum of c * <s, t> over the
    terms c * s of x.  Every class-against-stratum pairing goes through here."""
    return sum((c * pair_strata(s, t) for s, c in x.terms.items()), Fraction(0))


def class_pairing_vector(x: TautClass,
                         cogens: Sequence[DecoratedStratum]) -> tuple[Fraction, ...]:
    """Pairing of a class against a list of complementary-degree generators."""
    return tuple(pair_with(x, t) for t in cogens)


def pair_classes(x: TautClass, y: TautClass) -> Fraction:
    """Bilinear extension of the stratum pairing."""
    if (x.g, x.n) != (y.g, y.n):
        raise DomainError("pairing type mismatch")
    return sum((d * pair_with(x, t) for t, d in y.terms.items()), Fraction(0))


# ---------------------------------------------------------------------------
# exact linear algebra (fraction-free)


def _clear_row(row: Sequence[Fraction]) -> list[int]:
    denom = 1
    for x in row:
        f = Fraction(x)
        denom = denom * f.denominator // gcd(denom, f.denominator)
    return [int(Fraction(x) * denom) for x in row]


def fraction_free_echelon(rows: Sequence[Sequence[Fraction]]
                          ) -> tuple[int, tuple[int, ...], list[list[int]]]:
    """Bareiss elimination after per-row denominator clearing.

    Returns (rank, pivot column indices, echelon matrix as integer rows).
    Row scaling by positive integers preserves rank and, on an augmented
    matrix, the solution set.
    """
    mat = [_clear_row(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, nrows):
            head = mat[i][col]
            for j in range(col, ncols):
                num = mat[i][j] * mat[rank][col] - mat[rank][j] * head
                q, rem = divmod(num, prev)
                if rem:
                    raise DomainError("fraction-free elimination lost exactness")
                mat[i][j] = q
        prev = mat[rank][col]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, tuple(pivots), mat


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    return fraction_free_echelon(rows)[0]


def solve_linear_system(rows: Sequence[Sequence[Fraction]],
                        rhs: Sequence[Fraction]
                        ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Solve A x = b exactly.  Returns (solution, None) with free variables
    set to zero, or (None, residual_row) where residual_row is an
    unsatisfiable echelon row of the augmented matrix (all-zero coefficients
    with nonzero right side)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0:
        return [], None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rank, pivots, ech = fraction_free_echelon(aug)
    if pivots and pivots[-1] == ncols:
        bad = ech[rank - 1]
        return None, [Fraction(x) for x in bad]
    sol = [Fraction(0)] * ncols
    for i in range(rank - 1, -1, -1):
        col = pivots[i]
        acc = Fraction(ech[i][ncols])
        for j in range(col + 1, ncols):
            acc -= ech[i][j] * sol[j]
        sol[col] = acc / ech[i][col]
    return sol, None


@dataclass(frozen=True)
class PairingMatrix:
    """Intersection pairing of degree-d generators against the complementary
    generators."""

    g: int
    n: int
    d: int
    rows: tuple[DecoratedStratum, ...]
    cols: tuple[DecoratedStratum, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    @functools.cached_property
    def rank(self) -> int:
        return matrix_rank(self.entries)


@functools.cache
def pairing_matrix(g: int, n: int, d: int) -> PairingMatrix:
    """Rows are degree-d generators, columns the complementary generators,
    entries the integrals of the products; cached by (g, n, d)."""
    dim = 3 * g - 3 + n
    if d < 0 or d > dim:
        return PairingMatrix(g, n, d, (), (), ())
    rows = generators(g, n, d)
    cols = generators(g, n, dim - d)
    return PairingMatrix(g, n, d, rows, cols,
                         tuple(tuple(pair_strata(s, t) for t in cols)
                               for s in rows))
