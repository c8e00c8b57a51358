"""Point vector fields on {x,t,u,v,phi,psi,f}: the six-generator basis
of the prolonged system's point symmetries, brackets, structure
constants, the adjoint representation, and the one-dimensional
subalgebra classification of the non-central part.

The six standard generators close into an algebra whose only nonzero
brackets live on the first three: [g1,g2] = g2, [g1,g3] = -g3,
[g2,g3] = -2 g1 (a real sl(2)); g4, g5, g6 are central.  The basis is
the one statement of that algebra: the six-constant family, the
localized symmetry g2 and the coordinate names are all read from here.

The classification is exact and runs in integers: it builds no ``Expr``
and no ``ComplexRational`` coordinate.  Each table holds one integer Gram
(the trace form's Gaussian-integer numerators over one denominator), read
by :meth:`StructureTable.killing` for every kind of coordinate.  The
sl(2) is identified once with traceless 2x2 matrices
(:data:`SL2_MATRICES`), checked against each table's brackets, so the
adjoint map is conjugation by a rational matrix, taken on integer
numerators over one denominator; a normalization checks its landing and
the kept trace form on numerators.  The only ``Fraction``s are the
record's: the triple, eps, scale and alpha.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import defaultdict
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .expr import (
    CR_ZERO,
    Atom,
    ComplexRational,
    Expr,
    ExprError,
    IndependentVariable,
    JetCoordinate,
    Parameter,
    _cr,
    exp_of,
    parse,
)

#: the prolonged system's coordinates: the independents, then the dependents
COORDINATES = ("x", "t", "u", "v", "phi", "psi", "f")


def coordinate_atom(name: str) -> Atom:
    return IndependentVariable(name) if name in COORDINATES[:2] else JetCoordinate(name)


@dataclass(frozen=True)
class VectorField:
    """Point vector field: one coefficient expression per coordinate."""

    coeffs: Mapping[str, Expr]

    def __post_init__(self):
        for name, coefficient in self.coeffs.items():
            if name not in COORDINATES:
                raise ExprError(f"unknown coordinate '{name}'")
            for a in coefficient.jet_atoms():
                if a.index:
                    raise ExprError(
                        f"coefficient of d/d{name} contains the derivative "
                        f"coordinate {a}; point fields only"
                    )

    def coefficient(self, name: str) -> Expr:
        return self.coeffs.get(name, Expr.ZERO)

    def apply(self, g: Expr) -> Expr:
        """Directional derivative of a coordinate function."""
        total = Expr.ZERO
        for name, coefficient in self.coeffs.items():
            total = total + coefficient * g.diff(coordinate_atom(name))
        return total

    def characteristic(self) -> dict[str, Expr]:
        """sigma_w = xi^x w_x + xi^t w_t - eta_w for each dependent w: the minus
        sign is on the eta part, and both orientations verify by linearity."""
        xi_x, xi_t = self.coefficient("x"), self.coefficient("t")
        return {
            name: xi_x * Expr.atom(JetCoordinate(name, ("x",)))
            + xi_t * Expr.atom(JetCoordinate(name, ("t",)))
            - self.coefficient(name)
            for name in COORDINATES[2:]
        }

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            {
                n: self.coefficient(n) + other.coefficient(n)
                for n in COORDINATES
                if n in self.coeffs or n in other.coeffs
            }
        )

    def scaled(self, factor) -> "VectorField":
        return VectorField({n: c * factor for n, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return all(
            self.coefficient(n) == other.coefficient(n) for n in COORDINATES
        )

    def __str__(self):
        parts = [f"({c})*d/d{n}" for n, c in sorted(self.coeffs.items()) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def vector_field(**coeffs: str | Expr) -> VectorField:
    return VectorField(
        {n: (parse(c) if isinstance(c, str) else c) for n, c in coeffs.items()}
    )


def commutator(a: VectorField, b: VectorField) -> VectorField:
    """[a,b]^k = a(b^k) - b(a^k), coefficients canonicalized."""
    names = set(a.coeffs) | set(b.coeffs)
    return VectorField(
        {n: a.apply(b.coefficient(n)) - b.apply(a.coefficient(n)) for n in names}
    )


@functools.cache
def standard_generators() -> tuple[VectorField, ...]:
    """The six-generator basis g1..g6 of the prolonged system's point symmetries."""
    return (
        vector_field(phi="phi/2", psi="psi/2", f="f"),
        vector_field(u="phi^2", v="psi^2", phi="phi*f", psi="psi*f", f="f^2"),
        vector_field(f="1"),
        vector_field(u="u", v="-v", phi="phi/2", psi="-psi/2"),
        vector_field(t="1"),
        vector_field(x="1"),
    )


def localized_generator() -> VectorField:
    """g2: the Lax-pair symmetry (phi^2, psi^2) localized by the potential f."""
    return standard_generators()[1]


#: the constant that multiplies each of g1..g6 in the six-constant family
FAMILY_CONSTANTS = ("c5", "c2", "c6", "c1", "c3", "c4")


def family_vector_field() -> VectorField:
    """General element c5 g1 + c2 g2 + ... + c4 g6 of the six-constant
    symmetry family, constants symbolic."""
    return functools.reduce(
        operator.add,
        (g.scaled(parse(c)) for g, c in zip(standard_generators(), FAMILY_CONSTANTS)),
    )


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


def _combine(n: int, row: dict, x: int, y: int, other: dict) -> dict:
    """n*row - (x + y*i)*other, Gaussian integers keyed by column, no zeros."""
    out = dict(row) if n == 1 else {c: (n * a, n * b) for c, (a, b) in row.items()}
    for c, (a, b) in other.items():
        u, v = out.pop(c, (0, 0))
        u, v = u - x * a + y * b, v - x * b - y * a
        if u or v:
            out[c] = (u, v)
    return out


class Echelon:
    """Incremental row echelon over Q(i) on sparse rows keyed by column.

    A row is given as ``{column: entry}``, its nonzero ``ComplexRational``
    entries in columns c >= 0; the integer form below is private to this
    class.  Rows are numbered as inserted, M is the matrix of the rows so
    far, and row j is reduced with 1 in column -1 - j, so a reduced row
    carries its combination of the inserted rows.

    A row is stored as Gaussian-integer numerators over its own
    denominator D, the lcm of its entries' (``_integer_row``).  It is
    reduced against the pivot rows in the order they were found, fraction
    free on Gaussian integers.  A remainder nonzero in a column c >= 0 adds
    one pivot column, the first such; it is kept, made real and positive
    there and divided by its content, as a pivot row.  A pivot row is 0 on
    every pivot column found before its own, so the pivot rows restricted
    to the pivot columns P are triangular with nonzero diagonal, and they
    span the rows of M: rank M[:, P] = rank M.  The columns P therefore
    span the column space of M, and of M restricted to any subset of its
    rows, so c M = 0 exactly when c M[:, P] = 0, for every c
    (``annihilates``).  That holds whichever pivots were chosen and in
    whatever order the rows came.
    """

    def __init__(self):
        self.pivots: list[int] = []
        # per pivot: (N, row), the row real N > 0 on its pivot
        self._pivot_rows: list[tuple[int, dict]] = []
        # per inserted row: its numerators, and (D, those on P as (2*k, a), (2*k + 1, b))
        self._rows: list[dict] = []
        self._on_pivots: list[tuple[int, list]] = []

    def _reduce(self, row: dict) -> tuple[dict, int]:
        """``(r, s)``: r = s*row + sum t_j (D_j (row j) + e_{-1-j}), 0 on P."""
        scale = 1
        for p, (norm, pivot_row) in zip(self.pivots, self._pivot_rows):
            if p in row:
                g = gcd(norm, *row[p])
                row = _combine(norm // g, row, row[p][0] // g, row[p][1] // g, pivot_row)
                scale *= norm // g
        return row, scale

    def insert(self, row: Mapping[int, ComplexRational]) -> int:
        """Add a row; returns its number."""
        number = len(self._rows)
        denominator, row = _integer_row(row)
        self._rows.append(row)
        self._on_pivots.append((denominator, [
            (2 * k + part, n) for k, p in enumerate(self.pivots) if p in row
            for part, n in enumerate(row[p]) if n
        ]))
        remainder, _ = self._reduce({**row, -1 - number: (1, 0)})
        p = next((c for c in remainder if c >= 0), None)
        if p is not None:
            x, y = remainder[p]
            remainder = _combine(0, {}, -x, y, remainder)  # times x - y*i
            g = gcd(*(n for v in remainder.values() for n in v))
            self._pivot_rows.append(
                ((x * x + y * y) // g, {c: (a // g, b // g) for c, (a, b) in remainder.items()})
            )
            for entries, (_, known) in zip(self._rows, self._on_pivots):
                if p in entries:
                    known += [(2 * len(self.pivots) + i, n) for i, n in enumerate(entries[p]) if n]
            self.pivots.append(p)
        return number

    def annihilates(self, combination: Sequence[tuple[ComplexRational, int]]) -> bool:
        """Whether the sum of c * (row j) over the (c, j) given is 0 on P."""
        reads = [(c, self._on_pivots[j]) for c, j in combination]
        return not any(_gaussian_sum(len(self.pivots), reads)[1])

    def combine(self, combination: Sequence[tuple[ComplexRational, int]]) -> dict[int, ComplexRational]:
        """The sum of c * (row j) over the (c, j) given, on every column, as
        ``{column: entry}`` without zeros; rows are read as inserted."""
        common = lcm(*[c.d * self._on_pivots[j][0] for c, j in combination])
        acc: dict[int, list[int]] = {}
        for c, j in combination:
            scale = common // (c.d * self._on_pivots[j][0])
            x, y = c.a * scale, c.b * scale
            for column, (a, b) in self._rows[j].items():
                entry = acc.setdefault(column, [0, 0])
                entry[0] += x * a - y * b
                entry[1] += x * b + y * a
        return {column: _cr(a, b, common) for column, (a, b) in acc.items() if a or b}

    def express(self, row: Mapping[int, ComplexRational]) -> list[ComplexRational] | None:
        """Coordinates of a row, given as in ``insert``, in the inserted rows
        (the unique ones when those are independent), or None when it lies
        outside their span: scale * D * row = -sum t_j D_j (row j)."""
        denominator, row = _integer_row(row)
        remainder, scale = self._reduce(row)
        if any(c >= 0 for c in remainder):
            return None
        return [
            _cr(-a * d, -b * d, scale * denominator)
            for j, (d, _) in enumerate(self._on_pivots)
            for a, b in [remainder.get(-1 - j, (0, 0))]
        ]


def _integer_row(row: Mapping[int, ComplexRational]) -> tuple[int, dict[int, tuple[int, int]]]:
    """``(D, {column: (a, b)})`` with each entry (a + b*i)/D, D the lcm of
    the entries' denominators."""
    common = lcm(*(c.d for c in row.values()))
    return common, {column: (c.a * (common // c.d), c.b * (common // c.d)) for column, c in row.items()}


def _gaussian_sum(size: int, reads: list) -> tuple[int, list[int]]:
    """The sum ``(D, acc)`` of ``(c, (L, terms))`` reads, terms ``(2*k, a)``, ``(2*k + 1, b)``
    for (a + b*i)/L with k < ``size``: D is the lcm of c.d * L, ``acc`` the numerators over D."""
    common = lcm(*[coeff.d * piece_d for coeff, (piece_d, _) in reads])
    acc = [0] * (2 * size)
    for coeff, (piece_d, piece) in reads:
        scale = common // (coeff.d * piece_d)
        if coeff.a:
            c = coeff.a * scale
            for slot, v in piece:
                acc[slot] += c * v
        if coeff.b:
            # i*(v at 2*k) is v at 2*k + 1; i*(v at 2*k + 1) is -v at 2*k
            c = coeff.b * scale
            for slot, v in piece:
                acc[slot ^ 1] += -c * v if slot & 1 else c * v
    return common, acc


def express_in_basis(
    fields: Sequence[VectorField], basis: Sequence[VectorField]
) -> list[list[ComplexRational] | None]:
    """Exact coordinates of each of ``fields`` in the basis span, or None
    for one outside it.  The basis goes into one ``Echelon``, one column
    per (coordinate, monomial), and each field is reduced there; an element
    in the span of those before it raises ``ExprError``."""
    echelon, columns = Echelon(), {}

    def row(vf: VectorField) -> dict[int, ComplexRational]:
        return {
            columns.setdefault((name, mono), len(columns)): c
            for name, coefficient in vf.coeffs.items() for mono, c in coefficient.items()
        }

    for j, element in enumerate(basis):
        echelon.insert(row(element))
        if len(echelon.pivots) == j:
            raise ExprError(f"basis element g{j + 1} lies in the span of the elements before it")
    return [echelon.express(row(vf)) for vf in fields]


@dataclass
class StructureTable:
    """The structure constants of a basis: ``constants[(i, j)]`` is
    {k: c_ij^k} for each ordered pair with a nonzero bracket.

    Only the brackets i < j are given, as ``brackets``; each (j, i) entry
    is derived here as the negative of its (i, j) entry, so every table is
    antisymmetric.
    """

    basis: tuple[VectorField, ...]
    labels: tuple[str, ...]
    brackets: InitVar[Mapping[tuple[int, int], Mapping[int, ComplexRational]]]
    constants: dict[tuple[int, int], dict[int, ComplexRational]] = field(init=False)

    def __post_init__(self, brackets):
        self.constants = {}
        for (i, j), row in brackets.items():
            if i >= j:
                raise ExprError(f"bracket ({i},{j}) given; only i < j are")
            row = {k: c for k, c in row.items() if not c.is_zero()}
            if row:
                self.constants[i, j] = row
                self.constants[j, i] = {k: -c for k, c in row.items()}

    def bracket(self, a: Sequence, b: Sequence) -> tuple:
        """[a, b] in basis coordinates.  The entries of ``a`` and ``b`` are
        all ``ComplexRational`` or all ``Expr``; the result's are the same."""
        out = [Expr.ZERO if isinstance(a[0], Expr) else ComplexRational(0)] * len(self.basis)
        for (i, j), row in self.constants.items():
            if a[i].is_zero() or b[j].is_zero():
                continue
            weight = a[i] * b[j]
            for k, c in row.items():
                out[k] = out[k] + weight * c
        return tuple(out)

    @functools.cached_property
    def gram(self) -> tuple[tuple[tuple[int, int, int, int], ...], int]:
        """The trace form, stored once: ``(entries, D)`` with D the lcm of
        the denominators of the Gram matrix tr(ad_i ad_j) = sum over r, s of
        c_is^r c_jr^s, and one ``(i, j, re, im)`` per nonzero entry, the
        Gaussian integer D tr(ad_i ad_j)."""
        entries = defaultdict(ComplexRational)
        for (i, s), row in self.constants.items():
            for (j, r), other in self.constants.items():
                if r in row and s in other:
                    entries[i, j] += row[r] * other[s]
        entries = {pair: g for pair, g in entries.items() if not g.is_zero()}
        den = lcm(*(g.d for g in entries.values()))
        return tuple(
            (i, j, g.a * (den // g.d), g.b * (den // g.d)) for (i, j), g in entries.items()
        ), den

    def killing(self, a: Sequence, b: Sequence):
        """Trace form tr(ad_a ad_b) = sum a_i b_j tr(ad_i ad_j), summed over
        the nonzero entries of the integer Gram and divided by its
        denominator once.

        Coordinates are all ``int`` (summed in integers) or all
        ``ComplexRational``, and the value is a ``ComplexRational``; or they
        are ``Expr`` and the value is an ``Expr``, for symbolic coordinates.
        """
        entries, den = self.gram
        if type(a[0]) is int:
            re = im = 0
            for i, j, g_re, g_im in entries:
                weight = a[i] * b[j]
                re += weight * g_re
                im += weight * g_im
            return _cr(re, im, den)
        zero = Expr.ZERO if isinstance(a[0], Expr) else CR_ZERO
        total = sum((a[i] * b[j] * _cr(g_re, g_im, 1) for i, j, g_re, g_im in entries), zero)
        return total * _cr(1, 0, den)

    @functools.cached_property
    def sl2(self) -> tuple:
        """:data:`SL2_MATRICES`, checked once per table against its brackets
        among g1, g2, g3: each must be the commutator of their matrices, or
        ``ExprError`` names the first that is not.  For the doubled matrices
        D_k, [D_i, D_j] = 4 [g_i, g_j] = 2 sum c_ij^k D_k."""
        for i, j in itertools.combinations(range(3), 2):
            g, h, row = SL2_MATRICES[i], SL2_MATRICES[j], self.constants.get((i, j), {})
            image = [sum((c * 2 * SL2_MATRICES[k][e] for k, c in row.items() if k < 3), CR_ZERO)
                     for e in range(4)]
            want = [ComplexRational(x - y) for x, y in zip(_matrix_product(g, h), _matrix_product(h, g))]
            if any(k >= 3 for k in row) or image != want:
                raise ExprError(f"[{self.labels[i]},{self.labels[j]}] is not the sl(2) bracket")
        return SL2_MATRICES


#: g1, g2, g3 as traceless 2x2 matrices (m11, m12, m21, m22), each doubled
#: to stay in integers: g1 = diag(1/2, -1/2), g2 = [[0, 1], [0, 0]] and
#: g3 = [[0, 0], [-1, 0]]
SL2_MATRICES = ((1, 0, 0, -1), (0, 2, 0, 0), (0, 0, -2, 0))


def _matrix_product(g, h):
    """gh for 2x2 matrices given as (m11, m12, m21, m22)."""
    return (g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
            g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3])


def structure_table(basis: Sequence[VectorField]) -> StructureTable:
    """All pairwise brackets in basis coordinates, labelled g1, g2, ...;
    checks closure and Jacobi, and refuses a dependent basis."""
    basis = tuple(basis)
    labels = tuple(f"g{i+1}" for i in range(len(basis)))
    pairs = list(itertools.combinations(range(len(basis)), 2))
    brackets = {}
    images = express_in_basis([commutator(basis[i], basis[j]) for i, j in pairs], basis)
    for (i, j), coords in zip(pairs, images):
        if coords is None:
            raise ExprError(
                f"[{labels[i]},{labels[j]}] lies outside the span of the basis"
            )
        brackets[i, j] = dict(enumerate(coords))
    result = StructureTable(basis, labels, brackets)
    _check_jacobi(result)
    return result


def _unit(n: int, i: int) -> tuple[ComplexRational, ...]:
    return tuple(ComplexRational(int(k == i)) for k in range(n))


def _check_jacobi(table: StructureTable):
    """The Jacobi identity on basis triples i < j < k: every table is
    antisymmetric, so the cyclic sum [[e_i,e_j],e_k] + ... is alternating
    (0 when two indices are equal, odd under a transposition) and these
    triples stand for all n^3."""
    n = len(table.basis)
    unit = [_unit(n, i) for i in range(n)]
    bracket = table.bracket
    for i, j, k in itertools.combinations(range(n), 3):
        cyclic = zip(
            bracket(bracket(unit[i], unit[j]), unit[k]),
            bracket(bracket(unit[j], unit[k]), unit[i]),
            bracket(bracket(unit[k], unit[i]), unit[j]),
        )
        if any(not (x + y + z).is_zero() for x, y, z in cyclic):
            raise ExprError(f"Jacobi identity fails on triple ({i},{j},{k})")


# ---------------------------------------------------------------------------
# adjoint representation
# ---------------------------------------------------------------------------


#: longest adjoint series :func:`adjoint` sums before it gives up
ADJOINT_MAX_TERMS = 12


def adjoint(
    table: StructureTable,
    v_index: int,
    w_coords: Sequence,
    epsilon: Parameter,
) -> tuple[Expr, ...]:
    """Ad(exp(eps*v)) w as the series w - eps [v,w] + eps^2/2 [v,[v,w]] - ...,
    in basis coordinates that may depend on epsilon.  It is the reference
    the tests hold the rational conjugation of :func:`normalize_triple` to.

    Computed by linearity over basis components: for each one the Krylov
    sequence either terminates (nilpotent action, polynomial in eps) or is
    an eigenvector ([v,w] = c w, summing to Exp(-c*eps) w); anything else
    within :data:`ADJOINT_MAX_TERMS` terms is an error.
    """
    n = len(table.basis)
    eps = Expr.atom(epsilon)
    v = _unit(n, v_index)
    totals = [Expr.ZERO] * n

    for j in range(n):
        weight = w_coords[j]
        w_expr = weight if isinstance(weight, Expr) else Expr.from_scalar(weight)
        if w_expr.is_zero():
            continue
        current = _unit(n, j)
        # eigenvector case: [v, e_j] = c e_j
        image = table.bracket(v, current)
        eigen = None
        if all(image[k].is_zero() for k in range(n) if k != j):
            eigen = image[j]
        if eigen is not None and not eigen.is_zero():
            factor = exp_of(-Expr.from_scalar(eigen) * eps)
            totals[j] = totals[j] + w_expr * factor
            continue
        # terminating series
        sign = ComplexRational(1)
        factorial = 1
        power = Expr.ONE
        for order in range(ADJOINT_MAX_TERMS + 1):
            scale = Expr.from_scalar(sign * Fraction(1, factorial)) * power
            for k in range(n):
                if not current[k].is_zero():
                    totals[k] = totals[k] + w_expr * scale * Expr.from_scalar(current[k])
            current = table.bracket(v, current)
            if all(c.is_zero() for c in current):
                break
            sign = -sign
            factorial *= order + 1
            power = power * eps
        else:
            raise ExprError(
                f"adjoint series of basis element {j} neither terminates nor "
                f"is eigen-diagonal within {ADJOINT_MAX_TERMS} terms"
            )
    return tuple(totals)


# ---------------------------------------------------------------------------
# one-dimensional subalgebra classification
# ---------------------------------------------------------------------------


@dataclass
class NormalizationRecord:
    triple: tuple[Fraction, Fraction, Fraction]
    maps: list  # [(generator index in 1-based labels, Fraction eps)]
    scale: Fraction
    representative: str
    alpha: Fraction | None
    killing_sign: int
    verified: bool
    case: str


@dataclass
class OptimalSystemReport:
    table: StructureTable
    central: tuple[str, ...]
    representative_killing: dict
    separation_notes: list[str]
    records: list[NormalizationRecord]

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.records)


def _cleared(triple: Sequence) -> tuple[list[int], int]:
    """Integer numerators of a rational triple over q, the lcm of its
    denominators."""
    q = lcm(*(a.denominator for a in triple))
    return [a.numerator * (q // a.denominator) for a in triple], q


def _trace_form(table: StructureTable, nums: Sequence[int]) -> tuple[int, int]:
    """tr(ad_a ad_a) = q / d for the integer element a = nums of
    span{g1,g2,g3}, as ``(q, d)``; a = nums / den has q / (d den^2)."""
    coords = [*nums] + [0] * (len(table.basis) - 3)
    value = table.killing(coords, coords)
    if value.b:
        raise ExprError("Killing value of a real triple must be real")
    return value.a, value.d


def _killing_on_span(table: StructureTable, triple: Sequence[Fraction]) -> Fraction:
    nums, den = _cleared(triple)
    q, d = _trace_form(table, nums)
    return Fraction(q, d * den * den)


def _sign(value: int | Fraction) -> int:
    return (value > 0) - (value < 0)


def _conjugate(matrix, nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """M X M^-1 = M X adj(M) / det M for X = nums / den in span{g1,g2,g3},
    read as a matrix by :data:`SL2_MATRICES`, as integer numerators over one
    denominator.  M = [[p, q], [r, s]] is given as integer numerators
    (p, q, r, s) over any common denominator, which cancels; det M != 0."""
    p, q, r, s = matrix
    n1, n2, n3 = nums
    # M (2 den X), with 2 den X = sum n_k D_k = [[n1, 2 n2], [-2 n3, -n1]]
    y11, y12 = p * n1 - 2 * q * n3, 2 * p * n2 - q * n1
    y21, y22 = r * n1 - 2 * s * n3, 2 * r * n2 - s * n1
    # times adj(M) = [[s, -q], [-r, p]] is 2 den det(M) M X M^-1
    return [2 * (y11 * s - y12 * r), y12 * p - y11 * q, y22 * r - y21 * s], 2 * den * (p * s - q * r)


#: the normal forms in decision order: the slot of span{g1,g2,g3} a triple
#: must have nonzero, and the representative it then normalizes to
NORMAL_FORMS = ((1, "g2 + alpha*g3"), (0, "g1"), (2, "g3"))


def normalize_triple(
    table: StructureTable, triple: Sequence[Fraction]
) -> NormalizationRecord:
    """Map a1 g1 + a2 g2 + a3 g3 to an optimal-system representative.

    The first slot of :data:`NORMAL_FORMS` that is nonzero picks the
    representative.  At most one adjoint map Ad(exp(eps g3)) with an
    exactly solved rational parameter follows, then an overall scaling
    (multiples of a generator are equivalent).  To first order the map moves
    a_s g_s along [g3, g_s] = c g_k, and eps = a_k / (c a_s) clears slot k:

    * a2 != 0: eps = a1/(2 a2) kills the g1 slot, landing in the
      g2 + alpha g3 family;
    * a2 == 0, a1 != 0: eps = a3/a1 kills the g3 slot, landing on g1;
    * otherwise [g3, g3] = 0, no map: the element already is a multiple of g3.

    The map is conjugation by exp(-eps G3), G3 = [[0, 0], [-1, 0]] the
    matrix of g3 (:data:`SL2_MATRICES`); a table whose g1, g2, g3 are not
    that sl(2) is refused.  The symbolic series :func:`adjoint` is the reference the
    conjugation is tested against.  ``eps``, ``scale`` and ``alpha`` are
    rational, so the normal forms are taken over Q.

    ``verified`` checks that the exact representative is reached, and that
    the trace form, read from the table's Gram, is kept up to ``scale**2``
    and ``killing_sign`` with it.  Both checks run on integer numerators.
    ``maps`` holds at most one map by construction, so it is a record.
    """
    table.sl2  # checked once per table
    a = tuple(Fraction(x) for x in triple)
    if not any(a):
        raise ExprError("cannot normalize the zero element")
    nums, den = _cleared(a)
    q, d = _trace_form(table, nums)
    d *= den * den  # K(a) = q / d
    for slot, representative in NORMAL_FORMS:
        if a[slot]:
            break
    eps = 0
    for k, c in table.constants.get((2, slot), {}).items():  # [g3, g_slot] = c g_k
        eps = Fraction(nums[k], nums[slot] * c.re)
    maps = [(3, eps)] if eps != 0 else []
    if maps:
        # Ad(exp(eps g3)) is conjugation by exp(-eps G3) = [[1, 0], [eps, 1]]
        p, r = eps.numerator, eps.denominator
        nums, den = _conjugate((r, 0, p, r), nums, den)
    pivot = nums[slot]  # nums / den = (nums / pivot) / scale
    scale = Fraction(den, pivot)
    # the representative's free slots: its pivot, and alpha's g3 in the family
    free = (1, 2) if slot == 1 else (slot,)
    landed = not any(nums[k] for k in range(3) if k not in free)
    alpha = Fraction(nums[2], pivot) if slot == 1 else None
    case = f"a{slot + 1} nonzero" + (" (alpha = 0 boundary)" if alpha == 0 else "")
    # K(nums / pivot) = q_final / (d_final pivot^2) must be K(a) scale^2
    q_final, d_final = _trace_form(table, nums)
    sign = _sign(q)
    kept = q_final * d == q * d_final * den * den and sign == _sign(q_final)
    verified = landed and kept
    return NormalizationRecord(
        triple=a,
        maps=maps,
        scale=scale,
        representative=representative,
        alpha=alpha,
        killing_sign=sign,
        verified=verified,
        case=case,
    )


def verify_optimal_system(samples: int, seed: int) -> OptimalSystemReport:
    """Structure table plus normalization of seeded random rational triples."""
    basis = standard_generators()
    table = structure_table(basis)

    n = len(basis)
    central = tuple(
        label for i, label in enumerate(table.labels)
        if not any((i, j) in table.constants for j in range(n))
    )

    alpha = Parameter("alpha")
    rep_family = [Expr.ZERO, Expr.ONE, Expr.atom(alpha)] + [Expr.ZERO] * (n - 3)
    killing = {
        "g1": _killing_on_span(table, (1, 0, 0)),
        "g3": _killing_on_span(table, (0, 0, 1)),
        "g2 + alpha*g3": table.killing(rep_family, rep_family),
    }
    word = {1: "positive", 0: "zero", -1: "negative"}
    at_one = _killing_on_span(table, (0, 1, 1))  # the family at alpha = 1
    signs = [word[_sign(v)] for v in (killing["g1"], killing["g3"], at_one)]
    values = ", ".join(f"{label}: {value}" for label, value in killing.items())
    separation_notes = [
        f"trace form {values}; its sign separates g1 ({signs[0]}) from g3 ({signs[1]}) "
        f"and from g2 + alpha*g3 with alpha > 0 ({signs[2]} at alpha = 1)",
        "alpha = 0 reproduces the nilpotent class of g3; alpha < 0 falls in "
        "the class of g1: the family labels overlap there and coverage, not "
        "minimality, is what is certified",
    ]

    rng = random.Random(seed)
    records = []
    while len(records) < samples:
        triple = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)
        )
        if all(a == 0 for a in triple):
            continue
        records.append(normalize_triple(table, triple))
    return OptimalSystemReport(
        table=table,
        central=central,
        representative_killing=killing,
        separation_notes=separation_notes,
        records=records,
    )
