"""Exact intersection numbers on Mbar_{g,n}.

kappa_psi_integral computes <tau_{d_1} ... tau_{d_n} kappa_{b_1..b_m}>_g
exactly, through one memoised kernel keyed on sorted (g, psi, kappa); its
recursion calls itself on sorted keys.  The kernel is zero on an unstable
key, a negative exponent or a degree off the dimension.  Otherwise it first
pushes the last kappa part to an extra marked point:

    <psi^d kappa_{b_1..b_m}>_{g,n}
      = sum over T subset of {1..m-1} of (-1)^{|T|}
            <psi^d, psi_{new}^{b_m + 1 + sum_{j in T} b_j},
             kappa_{b_j : j not in T, j < m}>_{g,n+1}

Equal parts give equal terms, so T runs over sub-multisets, each weighted by
its number of subsets.  With no kappa left, a tau_0 is removed by the string
equation, else a tau_1 by the dilaton equation (Witten 1991); only when every
index is >= 2 does the DVV (KdV/Virasoro) recursion on the largest index
run.  psi_integral is the kappa-free case of kappa_psi_integral.

Every integral goes through one primitive, the block ``_pairings(rows, cols)``,
which integrates product monomials in place, with no product class built.  It
consumes the ``product_walk`` of ``product``, the same walk ``multiply``
consumes: the strata grouped by graph, one walk of each row graph's
degenerations for the common degenerations with every column graph, side groups
once per degeneration and row stratum, and nothing retained past a row graph.
A factor on the graph with no edges is pulled back onto the other factor's
graph there, with no degeneration walked.  An entry adds the signed counts of
its monomials per per-vertex kernel key, integrates each key once and sums in
integers; off complementary degree a vertex is off its dimension, where the
kernel is zero, so no degree filter is needed.  Once its row graph is walked,
each row is yielded as an ``IntRow``: its nonzero columns, their integer
numerators and their least common denominator, with no Fraction made.  The
pairing is symmetric, so a block with rows == cols (a middle-degree pairing
matrix, 2d = dim) computes the entries with i <= j and holds each mirror for
its row.  Classes are paired through one block, ``_cogenerator_rows``: the
complementary generators c as rows, each distinct stratum of a span and of the
classes' supports as a column, and per row the span's pairings and each <x, c>
summed in integers over one denominator.  A bundle of ``verify`` reads each
(space, degree) it decides from one such block, class_pairing_vector the
one-class case; evaluate pairs x with the fundamental class; pair_strata and
pair_classes are one block each; no pairing is memoised.  pairing_matrix keeps
the integer rows of degrees 2d <= dim, whose transpose is degree dim - d; its
dense ``entries`` are built only when read.

Linear algebra is exact and fraction-free, through one elimination,
``fraction_free_echelon``, over sparse integer rows: each row's nonzero
entries with their denominators cleared.  Rows are eliminated in column
order; only the rows whose head is the pivot column are updated, and each
updated row is divided by its content.  It returns the pivot rows in that
sparse form, the one shape its callers read.  One rank route, ``_rank``,
runs it on the distinct primitive vectors of the longer side of sparse
integer rows (a wide matrix's columns merged from its rows one at a time).
One solve core, ``_solve``, runs it on augmented rows and back-substitutes
over the pivot rows' nonzeros, for dense systems and ``_span_solution``.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .graphs import DomainError, StableGraph, check_stable_type
from .product import _by_graph, _common, leg_psi, product_walk
from .strata import DecoratedStratum, TautClass, fundamental_stratum, \
    generators, single


def double_factorial(k: int) -> int:
    """(k)!! for odd k >= -1, with (-1)!! = 1."""
    if k < -1 or k % 2 == 0:
        raise DomainError("double factorial needs odd k >= -1, got %d" % k)
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def kappa_psi_integral(g: int, psi_exps: Sequence[int],
                       kappa_parts: Sequence[int]) -> Fraction:
    """Integral of psi_1^{e_1}..psi_n^{e_n} * prod_a kappa_a over Mbar_{g,n},
    where n = len(psi_exps) and kappa_parts lists kappa indices (each >= 1);
    zero off dimension or unstable."""
    if any(a < 1 for a in kappa_parts):
        raise DomainError("kappa indices must be >= 1")
    return _integral(g, tuple(sorted(psi_exps)), tuple(sorted(kappa_parts)))


def psi_integral(g: int, exps: Sequence[int]) -> Fraction:
    """<tau_{exps[0]} ... tau_{exps[-1]}>_g, zero off dimension or unstable."""
    return kappa_psi_integral(g, exps, ())


@functools.cache
def _integral(g: int, psi: tuple[int, ...], kappa: tuple[int, ...]) -> Fraction:
    """The kernel of kappa_psi_integral, on ascending psi and kappa keys."""
    n = len(psi)
    if g < 0 or 2 * g - 2 + n <= 0 or (psi and psi[0] < 0) \
            or sum(psi) + sum(kappa) != 3 * g - 3 + n:
        return Fraction(0)
    if kappa:  # push the last kappa part to a new point
        last = kappa[-1]
        counts = Counter(kappa[:-1])
        total = Fraction(0)
        for ks in itertools.product(*(range(c + 1) for c in counts.values())):
            kept = tuple(a for a, c, k in zip(counts, counts.values(), ks)
                         for _ in range(c - k))
            new_exp = last + 1 + sum(a * k for a, k in zip(counts, ks))
            weight = prod(comb(c, k) for c, k in zip(counts.values(), ks))
            total += ((-1) ** sum(ks) * weight
                      * _integral(g, tuple(sorted(psi + (new_exp,))), kept))
        return total
    if g == 0 and n == 3:
        return Fraction(1)
    if g == 1 and n == 1:
        return Fraction(1, 24)
    if psi[0] == 0:  # string equation
        rest = psi[1:]
        lowered = (rest[:j] + (k - 1,) + rest[j + 1:]
                   for j, k in enumerate(rest) if k)
        return sum((_integral(g, tuple(sorted(e)), ()) for e in lowered),
                   Fraction(0))
    if psi[0] == 1:  # dilaton equation
        return (2 * g - 3 + n) * _integral(g, psi[1:], ())
    # DVV recursion on the largest index; every index is >= 2 here
    k = psi[-1] - 1
    rest = psi[:-1]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        merged = tuple(sorted(rest[:j] + (dj + k,) + rest[j + 1:]))
        total += (Fraction(double_factorial(2 * k + 2 * dj + 1),
                           double_factorial(2 * dj - 1))
                  * _integral(g, merged, ()))
    for a in range(k):
        b = k - 1 - a
        w = Fraction(double_factorial(2 * a + 1) * double_factorial(2 * b + 1), 2)
        total += w * _integral(g - 1, tuple(sorted((a, b) + rest)), ())
        for mask in range(1 << len(rest)):
            part = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            comp = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
            # the left factor's dimension fixes its genus
            g1, off = divmod(a + sum(part) + 2 - len(part), 3)
            if not off and g1 <= g:
                total += (w * _integral(g1, tuple(sorted((a,) + part)), ())
                          * _integral(g - g1, tuple(sorted((b,) + comp)), ()))
    return total / double_factorial(2 * k + 3)


def wk_cache_status() -> dict:
    """Entry count of the correlator memo.  There is no disk cache; this
    remains only because the benchmark harness (bench/child.py
    --cache-status) imports it."""
    return {"dir": "", "wk_disk_entries": 0,
            "wk_memory_entries": _integral.cache_info().currsize}


# ---------------------------------------------------------------------------
# evaluation of classes


def _vertex_keys(G: StableGraph, pl: dict, ph: dict, kp: dict) -> tuple:
    """Per vertex of G: the kernel key (genus, sorted psi, sorted kappa),
    the psi of the points without one as leading zeros."""
    psi: list[list[int]] = [[] for _ in G.genera]
    for m, e in pl.items():
        psi[G.leg_vertex[m]].append(e)
    for h, e in ph.items():
        psi[G.half_edge_vertex[h]].append(e)
    return tuple([(gv, (0,) * (len(legs) + len(hes) - len(p))
                   + tuple(sorted(p)), tuple(sorted(kp[v])) if v in kp else ())
                  for v, ((gv, legs, hes, _), p)
                  in enumerate(zip(G.vertex_data, psi))])


def stratum_integral(s: DecoratedStratum) -> Fraction:
    """Integral of the stratum class over Mbar_{g,n} (top degree only)."""
    return evaluate(single(s.graph.genus(), s.graph.num_legs, s))


def evaluate(x: TautClass) -> Fraction:
    """Integral of a top-degree class, its pairing with the fundamental
    class: a one-row block.  Zero when the degree is not top."""
    return class_pairing_vector(x, (fundamental_stratum(x.g, x.n),))[0]


_ZERO = Fraction(0)

# A block row's nonzero pairings: its columns ascending, their integer
# numerators and their least common denominator
IntRow = tuple[tuple[int, ...], tuple[int, ...], int]


def _pairings(rows: Sequence[DecoratedStratum], cols: Sequence[DecoratedStratum]
              ) -> Iterator[tuple[int, IntRow]]:
    """The nonzero rows (i, IntRow) of a block, each yielded once its row
    graph is walked.  When rows == cols only the entries with i <= j are
    computed, and each is held for its mirror's row."""
    symmetric = rows == cols
    mirrored: dict[int, dict[int, list[int]]] = {}  # i -> j -> [num, den]
    row_ids = _by_graph(rows)
    for GA, entries in product_walk(rows, cols, symmetric):
        totals: dict[int, dict[int, list[int]]] = {}
        for i, j, G, monomials in entries:
            _add_monomials(totals.setdefault(i, {}), j, G, rows[i], cols[j],
                           monomials)
        for i in row_ids[GA]:
            row = {j: v for j, v in totals.pop(i, {}).items() if v[0]}
            if symmetric:
                for j in row:
                    if j != i:
                        mirrored.setdefault(j, {})[i] = row[j]
                row.update(mirrored.pop(i, {}))
            if row:
                js = sorted(row)
                den = lcm(*[row[j][1] for j in js])
                nums = [row[j][0] * (den // row[j][1]) for j in js]
                c = gcd(den, *nums)
                yield i, (tuple(js), tuple([x // c for x in nums]), den // c)


def _add_monomials(totals: dict, entry: int, G: StableGraph,
                   s: DecoratedStratum, t: DecoratedStratum,
                   monomials: Iterator[tuple[dict, dict, int]]) -> None:
    """Add to ``totals[entry]`` the pairing of s and t from the monomials
    (psi_he, kappa, sign) of s * t on G, 1/(|Aut G| |Aut s| |Aut t|)
    included: their signs are added per per-vertex kernel key and each key
    is integrated once."""
    signs: dict[tuple, int] = {}
    pl = None
    for ph, kp, sign in monomials:
        if pl is None:
            pl = leg_psi(s, t)
        key = _vertex_keys(G, pl, ph, kp)
        signs[key] = signs.get(key, 0) + sign
    for keys, c in signs.items():
        if c:
            num, den = c, G.aut_order * s.graph.aut_order * t.graph.aut_order
            for key in keys:
                p, q = _integral(*key).as_integer_ratio()
                num *= p
                den *= q
            acc = totals.setdefault(entry, [0, 1])
            both = lcm(acc[1], den)
            acc[0] = acc[0] * (both // acc[1]) + num * (both // den)
            acc[1] = both


def pair_strata(s: DecoratedStratum, t: DecoratedStratum) -> Fraction:
    """Integral of the product of two stratum classes of complementary degree,
    the one-entry block; it equals ``evaluate(multiply_strata(s, t))``."""
    return sum((Fraction(nums[0], den)
                for _, (_, nums, den) in _pairings((s,), (t,))), _ZERO)


def _cogenerator_rows(xs: Sequence[TautClass],
                      cogens: Sequence[DecoratedStratum],
                      strata: Sequence[DecoratedStratum] = ()) -> Iterator[
                          tuple[int, dict, tuple[Fraction, ...]]]:
    """The rows of one block: cogens as rows, the distinct strata of strata
    and of the classes' supports as columns.  Per c = cogens[i] pairing
    nonzero with a column, (i, span, values): span maps each position j of
    strata to a nonzero <strata[j], c>, and values[k] = <xs[k], c> is summed
    in integers over one denominator.  The rows come graph by graph, so in
    list order for a ``generators`` tuple."""
    cols = tuple(dict.fromkeys((*strata, *(s for x in xs for s in x.terms))))
    at = {s: j for j, s in enumerate(cols)}
    span = [at[s] for s in strata]
    weights = []
    for x in xs:
        nums, den_x = _common((c, 1) for c in x.terms.values())
        weights.append(({at[s]: w for s, w in zip(x.terms, nums)}, den_x))
    for i, (js, nums, den) in _pairings(tuple(cogens), cols):
        row = dict(zip(js, nums))
        yield i, {p: Fraction(row[j], den) for p, j in enumerate(span)
                  if j in row}, tuple([Fraction(sum([
                      weight[j] * v for j, v in row.items() if j in weight]),
                      den_x * den) for weight, den_x in weights])


def class_pairing_vector(x: TautClass,
                         cogens: Sequence[DecoratedStratum]) -> tuple[Fraction, ...]:
    """Pairing of a class against a list of complementary-degree generators,
    read from the one-class ``_cogenerator_rows`` of one block."""
    out = [_ZERO] * len(cogens)
    for i, _, (value,) in _cogenerator_rows((x,), cogens):
        out[i] = value
    return tuple(out)


def pair_classes(x: TautClass, y: TautClass) -> Fraction:
    """Bilinear extension of the stratum pairing, one block."""
    if (x.g, x.n) != (y.g, y.n):
        raise DomainError("pairing type mismatch")
    return sum((d * value for d, value in zip(
        y.terms.values(), class_pairing_vector(x, tuple(y.terms)))), _ZERO)


# ---------------------------------------------------------------------------
# exact linear algebra (fraction-free)


def _sparse_row(row: Iterable[tuple[int, Fraction]]) -> dict[int, int]:
    """Nonzero (column, value) entries over their ``_common`` denominator."""
    row = {k: x for k, x in row if x}
    return dict(zip(row, _common((x, 1) for x in row.values())[0]))


def _width(rows: Sequence[Sequence]) -> int:
    """The length of every row, 0 with no rows; refuses ragged rows."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise DomainError("rows of unequal length")
    return ncols


def _primitive(v: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A nonzero sparse integer vector divided by the gcd of its entries,
    signed so that its first entry is positive, as (columns, entries)."""
    c = gcd(*v.values())
    c = c if next(iter(v.values())) > 0 else -c
    return tuple(v), tuple(x // c for x in v.values())


def fraction_free_echelon(rows: Iterable[dict[int, int]]
                          ) -> tuple[int, tuple[int, ...], list[dict[int, int]]]:
    """Fraction-free elimination in column order over sparse integer rows,
    each its nonzero entries keyed by ascending column.

    Rows are filed by their head (first nonzero column).  At each head, in
    ascending order, the shortest row with that head is the pivot; every
    other row with that head becomes (p * row - h * pivot) / gcd(p, h),
    divided by its content, and is filed again.  Rows with another head are
    untouched.  Returns (rank, pivot column indices, pivot rows as their
    nonzero integer entries by column), the k-th row headed by the k-th
    pivot.  Scaling a row by a nonzero integer preserves rank and, on an
    augmented matrix, the solution set.
    """
    by_head: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        if r:
            by_head.setdefault(next(iter(r)), []).append(r)
    pivots: list[int] = []
    echelon: list[dict[int, int]] = []
    while by_head:
        col = min(by_head)
        group = by_head.pop(col)
        piv = min(group, key=len)
        p = piv[col]
        for r in group:
            if r is piv:
                continue
            q = gcd(p, r[col])
            a, b = p // q, r[col] // q
            new = {k: a * x for k, x in r.items()}
            for k, x in piv.items():
                y = new.get(k, 0) - b * x
                if y:
                    new[k] = y
                else:
                    del new[k]
            if new:
                c = gcd(*new.values())
                if c > 1:
                    new = {k: x // c for k, x in new.items()}
                by_head.setdefault(min(new), []).append(new)
        pivots.append(col)
        echelon.append(piv)
    return len(pivots), tuple(pivots), echelon


def _rank(rows: Sequence[tuple], ncols: int) -> int:
    """Exact rank of sparse integer rows (columns ascending, entries, ...)
    of ncols columns: ``fraction_free_echelon`` on the distinct primitive
    forms (one per line spanned) of the longer side, handed over one at a
    time, the rows or a wide matrix's columns merged from the rows."""
    if len(rows) >= ncols:
        vectors = (dict(zip(js, xs)) for js, xs, *_ in rows if js)
    else:
        merged = heapq.merge(*[zip(js, itertools.repeat(i), xs)
                               for i, (js, xs, *_) in enumerate(rows)])
        vectors = ({i: x for _, i, x in column} for _, column
                   in itertools.groupby(merged, itemgetter(0)))
    return fraction_free_echelon(
        dict(zip(*v)) for v in dict.fromkeys(map(_primitive, vectors)))[0]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank, the ``_rank`` of the cleared rows; refuses ragged rows."""
    ncols = _width(rows)
    return _rank([(r, r.values()) for r in
                  (_sparse_row(enumerate(row)) for row in rows)], ncols)


def _solve(rows: Iterable[dict[int, int]], ncols: int
           ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """``fraction_free_echelon`` on sparse integer rows augmented at column
    ncols, then back-substitution: the result of ``solve_linear_system``."""
    _, pivots, ech = fraction_free_echelon(rows)
    if pivots and pivots[-1] == ncols:  # 0 = b, b nonzero
        return None, [_ZERO] * ncols + [Fraction(ech[-1][ncols])]
    sol = [_ZERO] * ncols
    for col, row in zip(reversed(pivots), reversed(ech)):
        acc = Fraction(row.get(ncols, 0))
        for k, x in row.items():
            if col < k < ncols:
                acc -= x * sol[k]
        sol[col] = acc / row[col]
    return sol, None


def solve_linear_system(rows: Sequence[Sequence[Fraction]],
                        rhs: Sequence[Fraction]
                        ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Solve A x = b exactly: (solution, None) with free variables zero, or
    (None, residual_row), an unsatisfiable echelon row of the augmented
    matrix (zero coefficients, nonzero right side).  Refuses ragged rows
    and a right side of another length."""
    ncols = _width(rows)
    if len(rhs) != len(rows):
        raise DomainError("%d equations but %d right-hand sides"
                          % (len(rows), len(rhs)))
    return _solve([_sparse_row(enumerate([*r, b]))
                   for r, b in zip(rows, rhs)], ncols)


def _span_solution(rows: Sequence[dict[int, int]], k: int
                   ) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """``_solve`` on span equations sum_j lambda_j a_j = b (integers a_j by
    column j < k, b at column k), its solution checked against each."""
    sol, residual = _solve(rows, k)
    if sol is not None and any(sum((sol[j] * v for j, v in r.items() if j < k),
                                   _ZERO) != r.get(k, 0) for r in rows):
        raise ArithmeticError("solver verification failed")
    return sol, residual


@dataclass(frozen=True)
class PairingMatrix:
    """Intersection pairing of degree-d generators against the complementary
    generators.  For 2d <= dim, ``int_rows`` holds each row's IntRow; for
    2d > dim it is None, and the matrix is the complement's transpose."""

    g: int
    n: int
    d: int
    rows: tuple[DecoratedStratum, ...]
    cols: tuple[DecoratedStratum, ...]
    int_rows: tuple[IntRow, ...] | None = field(default=None, compare=False,
                                                repr=False)

    def _complement(self) -> PairingMatrix:
        return pairing_matrix(self.g, self.n, 3 * self.g - 3 + self.n - self.d)

    @functools.cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The integrals of the products as rows of Fractions, built on
        first read for library callers: ``rank`` does not read them."""
        if self.int_rows is None:
            return tuple(zip(*self._complement().entries))
        out = [[_ZERO] * len(self.cols) for _ in self.rows]
        for row, (js, nums, den) in zip(out, self.int_rows):
            for j, x in zip(js, nums):
                row[j] = Fraction(x, den)
        return tuple(map(tuple, out))

    @functools.cached_property
    def rank(self) -> int:
        """The ``_rank`` of the integer rows; scaling keeps the rank."""
        if self.int_rows is None:  # the transpose's rank, computed once
            return self._complement().rank
        return _rank(self.int_rows, len(self.cols))


@functools.cache
def pairing_matrix(g: int, n: int, d: int) -> PairingMatrix:
    """Rows are degree-d generators, columns the complementary generators,
    entries the integrals of the products; cached by (g, n, d).  For
    2d <= dim the rows are integrated in this call and kept as integer
    rows; for 2d > dim it is the transpose of ``pairing_matrix(g, n,
    dim - d)``."""
    check_stable_type(g, n)
    dim = 3 * g - 3 + n
    if d < 0 or d > dim:
        return PairingMatrix(g, n, d, (), (), ())
    if 2 * d > dim:
        t = pairing_matrix(g, n, dim - d)
        return PairingMatrix(g, n, d, t.cols, t.rows)
    rows, cols = generators(g, n, d), generators(g, n, dim - d)
    int_rows = [((), (), 1)] * len(rows)
    for i, row in _pairings(rows, cols):
        int_rows[i] = row
    return PairingMatrix(g, n, d, rows, cols, tuple(int_rows))
