"""Exact symbolic kernel for differential-polynomial expressions.

An :class:`Expr` is always kept in canonical form: a map from monomials
to nonzero exact complex-rational coefficients.  A monomial is a sorted
tuple of atoms (parameters, independent variables, jet coordinates,
exponential factors) with nonzero integer exponents.  Exponential factors
are merged (``Exp(a)*Exp(b) -> Exp(a+b)``, ``Exp(0) -> 1``) so every
monomial carries at most one of them.  The map has no order; ``terms``
is its sorted view, built on first read, and everything that must come
out the same in each run (printing, ``sort_key``, hashing, numeric
evaluation) reads that view.  All arithmetic is exact; floating point
enters only through :meth:`Expr.eval_numeric`, which imports numpy only
to evaluate an exponential factor, so symbolic work never loads it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Union

if TYPE_CHECKING:
    import numpy as np


class ExprError(Exception):
    """Raised for operations that leave the differential-polynomial ring."""


class ParseError(ExprError):
    def __init__(self, reason: str, offset: int):
        super().__init__(f"{reason} (byte offset {offset})")
        self.reason = reason
        self.offset = offset


class EvaluationError(ExprError):
    """Raised when a numeric evaluation lacks an assignment for an atom."""


class DivisionByZero(ExprError, ZeroDivisionError):
    """Raised when the zero expression is inverted."""


# ---------------------------------------------------------------------------
# exact complex-rational coefficients
# ---------------------------------------------------------------------------

_Scalar = Union[int, Fraction, "ComplexRational"]


class ComplexRational:
    """Complex number with exact rational parts, ``(a + b*i) / d``.

    The three fields are Python ints in canonical form: ``d > 0`` and
    ``gcd(a, b, d) == 1``, so every value has one representation and
    equality compares the fields.  A product is four int products over
    ``d1*d2``, a sum over equal denominators adds the numerators, and
    Gaussian integers (``d == 1``) never take a gcd; no ``Fraction`` is
    built.  ``re`` and ``im`` are read-only views, each an ``int`` when the
    part is integral and a reduced ``Fraction`` otherwise.  Callers that
    take a part out and divide it must divide exactly
    (``Fraction(c.re) / n``): ``int / int`` is a float.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        # both parts are reduced, so a, b and their lcm d share no factor
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    # -- reading ------------------------------------------------------------
    @property
    def re(self) -> int | Fraction:
        return _part(self.a, self.d)

    @property
    def im(self) -> int | Fraction:
        return _part(self.b, self.d)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: _Scalar) -> "ComplexRational":
        o = other if type(other) is ComplexRational else _as_scalar(other)
        d, od = self.d, o.d
        if d == od:
            return _cr(self.a + o.a, self.b + o.b, d)
        return _cr(self.a * od + o.a * d, self.b * od + o.b * d, d * od)

    def __sub__(self, other: _Scalar) -> "ComplexRational":
        o = other if type(other) is ComplexRational else _as_scalar(other)
        d, od = self.d, o.d
        if d == od:
            return _cr(self.a - o.a, self.b - o.b, d)
        return _cr(self.a * od - o.a * d, self.b * od - o.b * d, d * od)

    def __mul__(self, other: _Scalar) -> "ComplexRational":
        o = other if type(other) is ComplexRational else _as_scalar(other)
        a, b, oa, ob = self.a, self.b, o.a, o.b
        return _cr(a * oa - b * ob, a * ob + b * oa, self.d * o.d)

    def __neg__(self) -> "ComplexRational":
        return _cr(-self.a, -self.b, self.d)

    def inverse(self) -> "ComplexRational":
        a, b, d = self.a, self.b, self.d
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return _cr(d * a, -d * b, norm)

    def __pow__(self, n: int) -> "ComplexRational":
        if n < 0:
            return self.inverse() ** (-n)
        return _power_by_squaring(self, n) if n else CR_ONE

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __eq__(self, other) -> bool:
        if type(other) is ComplexRational:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.d == 1 and not self.b and self.a == other
        if isinstance(other, Fraction):
            return (
                not self.b and self.a == other.numerator and self.d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # a real value equals, so hashes as, the int or Fraction it is
        return hash((self.re, self.im)) if self.b else hash(self.re)

    def key(self):
        """``(re.numerator, re.denominator, im.numerator, im.denominator)``."""
        a, b, d = self.a, self.b, self.d
        if d == 1:
            return (a, 1, b, 1)
        g, h = gcd(a, d), gcd(b, d)
        return (a // g, d // g, b // h, d // h)

    def to_complex(self) -> complex:
        # int / int is correctly rounded, so this is float(re), float(im)
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return _const_text(self)


def _cr(a: int, b: int, d: int) -> ComplexRational:
    """Trusted constructor of ``(a + b*i) / d`` for ``d > 0``: divides out
    ``gcd(a, b, d)``, which is skipped for Gaussian integers."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    c = object.__new__(ComplexRational)
    c.a = a
    c.b = b
    c.d = d
    return c


def _part(n: int, d: int) -> int | Fraction:
    """``n / d`` as an exact rational: ``int`` when integral, else ``Fraction``."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _as_scalar(value: _Scalar) -> ComplexRational:
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, int):
        return _cr(value, 0, 1)
    if isinstance(value, Fraction):
        return _cr(value.numerator, 0, value.denominator)
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


def _power_by_squaring(base, n: int):
    """``base ** n`` for ``n >= 1``: see :meth:`Expr.__pow__`."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


CR_ZERO = ComplexRational(0)
CR_ONE = ComplexRational(1)
CR_I = ComplexRational(0, 1)


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


#: every atom built so far, by key (the class call looks here first)
_ATOMS: dict = {}


class Atom:
    """Base of all irreducible symbols.

    Subclasses build ``_key`` (a totally ordered tuple whose first entry is
    a class id) from their constructor arguments; it orders monomials and
    covers every field that changes behaviour.  There is one object per
    key: the class call returns the atom already in the table, so equal
    atoms are identical, and equality and hashing are those of ``object``.
    Construct atoms only through the class call.  ``_text`` caches the
    printed form.
    """

    __slots__ = ("_key", "_text")

    @classmethod
    def _interned(cls, key: tuple, **fields) -> "Atom":
        atom = _ATOMS.get(key)
        if atom is None:
            atom = _ATOMS[key] = object.__new__(cls)
            atom._key = key
            atom._text = None
            for name, value in fields.items():
                setattr(atom, name, value)
        return atom

    def sort_key(self):
        return self._key

    def d_total(self, direction: str) -> "Expr":
        raise NotImplementedError

    def __repr__(self):
        return str(self)


class Parameter(Atom):
    """Named constant symbol (alpha, beta, lambda, epsilon, c1..c6, ...)."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        return cls._interned((0, name), name=name)

    def d_total(self, direction: str) -> "Expr":
        return Expr.ZERO

    def __str__(self):
        return self.name


class IndependentVariable(Atom):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return cls._interned((1, name), name=name)

    def d_total(self, direction: str) -> "Expr":
        return Expr.ONE if direction == self.name else Expr.ZERO

    def __str__(self):
        return self.name


class JetCoordinate(Atom):
    """A dependent variable with a sorted derivative multi-index.

    Mixed partials are identified: the index is a sorted multiset over the
    independent-variable names, so ``Diff(u,x,t)`` and ``Diff(u,t,x)`` are
    one and the same atom.
    """

    __slots__ = ("name", "index")

    def __new__(cls, name: str, index: Iterable[str] = ()):
        index = tuple(sorted(index))
        return cls._interned((2, name, len(index), index), name=name, index=index)

    def extended(self, direction: str) -> "JetCoordinate":
        return JetCoordinate(self.name, self.index + (direction,))

    def d_total(self, direction: str) -> "Expr":
        return Expr.atom(self.extended(direction))

    def __str__(self):
        if not self.index:
            return self.name
        return f"Diff({self.name},{','.join(self.index)})"


class ExpFactor(Atom):
    """Exponential of an expression; the only transcendental atom."""

    __slots__ = ("argument",)

    def __new__(cls, argument: "Expr"):
        return cls._interned((4, argument.sort_key()), argument=argument)

    def d_total(self, direction: str) -> "Expr":
        return self.argument.total_derivative(direction) * Expr.atom(self)

    def __str__(self):
        return f"Exp({self.argument})"


# ---------------------------------------------------------------------------
# monomial helpers (a monomial is a sorted tuple of (atom, exponent) pairs)
# ---------------------------------------------------------------------------

Monomial = tuple  # tuple[tuple[Atom, int], ...]


def monomial_key(mono: Monomial):
    """The one monomial order: terms sort by it, and so does every list of
    monomials that must come out the same in each run.  The key is the flat
    tuple (key1, n1, key2, n2, ...), which orders exactly as the tuple of
    (key, n) pairs would and is cheaper to build and compare."""
    key = []
    for a, n in mono:
        key.append(a._key)
        key.append(n)
    return tuple(key)


def _assemble_mono(counts: dict, exp_argument: "Expr | None") -> Monomial:
    factors = [(a, n) for a, n in counts.items() if n]
    if exp_argument is not None and not exp_argument.is_zero():
        factors.append((ExpFactor(exp_argument), 1))
    factors.sort(key=lambda item: item[0]._key)
    return tuple(factors)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    # An Exp factor sorts last; without one, merge the two sorted tuples.
    if type(m1[-1][0]) is ExpFactor or type(m2[-1][0]) is ExpFactor:
        return _mono_mul_exp(m1, m2)
    out = []
    i = j = 0
    len1, len2 = len(m1), len(m2)
    while i < len1 and j < len2:
        a, n = m1[i]
        b, k = m2[j]
        if a is b:
            if n + k:
                out.append((a, n + k))
            i += 1
            j += 1
        elif a._key < b._key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_mul_exp(m1: Monomial, m2: Monomial) -> Monomial:
    counts: dict = {}
    exp_argument = None
    for a, n in itertools.chain(m1, m2):
        if type(a) is ExpFactor:
            contrib = a.argument if n == 1 else a.argument * n
            exp_argument = contrib if exp_argument is None else exp_argument + contrib
        else:
            counts[a] = counts.get(a, 0) + n
    return _assemble_mono(counts, exp_argument)


def _mono_invert(mono: Monomial) -> Monomial:
    counts: dict = {}
    exp_argument = None
    for a, n in mono:
        if type(a) is ExpFactor:
            exp_argument = -a.argument
        else:
            counts[a] = -n
    return _assemble_mono(counts, exp_argument)


def _mono_drop_power(mono: Monomial, position: int) -> Monomial:
    """One fewer power of the atom at ``position`` (atom removed at zero)."""
    a, n = mono[position]
    if n == 1:
        return mono[:position] + mono[position + 1 :]
    return mono[:position] + ((a, n - 1),) + mono[position + 1 :]


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

_Coercible = Union["Expr", int, Fraction, ComplexRational, Atom]


class Expr:
    """Immutable differential-polynomial expression in canonical form: a
    map from monomials to nonzero coefficients, kept in no order.

    ``items()`` iterates that map in whatever order it was built, for
    loops whose result does not depend on order; ``terms`` is the sorted
    view.  Equality compares the maps.
    """

    __slots__ = ("_map", "_terms", "_numeric", "_sort_key", "_hash")

    ZERO: "Expr"
    ONE: "Expr"
    I: "Expr"

    def __init__(self, terms: dict | Iterable):
        # Trusted constructor: a dict (kept, not copied) or (monomial,
        # coefficient) pairs, canonical and in any order.
        self._map = terms if type(terms) is dict else dict(terms)
        self._terms = None
        self._numeric = None
        self._sort_key = None
        self._hash = None

    # -- construction -------------------------------------------------------
    @staticmethod
    def _from_map(acc: dict) -> "Expr":
        return Expr({m: c for m, c in acc.items() if c.a or c.b})

    @classmethod
    def from_scalar(cls, value: _Scalar) -> "Expr":
        c = _as_scalar(value)
        if c.is_zero():
            return cls.ZERO
        return Expr({(): c})

    @classmethod
    def atom(cls, a: Atom) -> "Expr":
        return Expr({((a, 1),): CR_ONE})

    # -- basic views ---------------------------------------------------------
    @property
    def terms(self) -> tuple:
        """The (monomial, coefficient) pairs in monomial order."""
        terms = self._terms
        if terms is None:
            terms = self._terms = tuple(sorted(self._map.items(), key=_term_order))
        return terms

    def items(self):
        """The (monomial, coefficient) pairs in no particular order."""
        return self._map.items()

    def is_zero(self) -> bool:
        return not self._map

    def is_constant(self) -> bool:
        m = self._map
        return not m or (len(m) == 1 and () in m)

    def constant_value(self) -> ComplexRational:
        m = self._map
        if not m:
            return CR_ZERO
        if len(m) == 1 and () in m:
            return m[()]
        raise ExprError("expression is not constant")

    def sort_key(self):
        if self._sort_key is None:
            self._sort_key = tuple(
                (monomial_key(m), c.key()) for m, c in self.terms
            )
        return self._sort_key

    def atoms(self) -> Iterator[Atom]:
        """All distinct atoms, including those inside Exp arguments."""
        seen = set()
        stack = [self]
        while stack:
            e = stack.pop()
            for m in e._map:
                for a, _n in m:
                    if a in seen:
                        continue
                    seen.add(a)
                    yield a
                    if type(a) is ExpFactor:
                        stack.append(a.argument)

    def jet_atoms(self, name: str | None = None) -> list[JetCoordinate]:
        """The distinct jet coordinates, in atom order."""
        out = [
            a for a in self.atoms()
            if type(a) is JetCoordinate and (name is None or a.name == name)
        ]
        out.sort(key=Atom.sort_key)
        return out

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: _Coercible) -> "Expr":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        big, small = self._map, o._map
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return self if big is self._map else o
        acc = dict(big)
        for m, c in small.items():
            prev = acc.get(m)
            if prev is None:
                acc[m] = c
            else:
                c = prev + c
                if c.a or c.b:
                    acc[m] = c
                else:
                    del acc[m]
        return Expr(acc)

    __radd__ = __add__

    def __sub__(self, other: _Coercible) -> "Expr":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: _Coercible) -> "Expr":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> "Expr":
        return Expr({m: -c for m, c in self._map.items()})

    def __mul__(self, other: _Coercible) -> "Expr":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self._map or not o._map:
            return Expr.ZERO
        acc: dict = {}
        _acc_products(acc, self._map.items(), o._map.items())
        return Expr._from_map(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        """Square-and-multiply from the lowest set bit: ``bit_length(n) - 1``
        squares and ``popcount(n) - 1`` products, no square is formed after
        the last set bit, and ``e ** 1`` is ``e`` itself."""
        if not isinstance(n, int):
            raise ExprError("exponents must be integers")
        if n < 0:
            return self._inverted() ** (-n)
        return _power_by_squaring(self, n) if n else Expr.ONE

    def _inverted(self) -> "Expr":
        if not self._map:
            raise DivisionByZero("division by zero")
        if len(self._map) != 1:
            raise ExprError(
                "only monomials can be inverted; division by a multi-term "
                "expression leaves the polynomial ring"
            )
        ((mono, coeff),) = self._map.items()
        return Expr({_mono_invert(mono): coeff.inverse()})

    def __truediv__(self, other: _Coercible) -> "Expr":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._inverted()

    def __rtruediv__(self, other: _Coercible) -> "Expr":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self._inverted()

    def __eq__(self, other) -> bool:
        if isinstance(other, Expr):
            return self._map == other._map
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self._map == _coerce(other)._map
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            # a constant equals, so hashes as, its value
            self._hash = hash(self.constant_value() if self.is_constant() else self.sort_key())
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- calculus ------------------------------------------------------------
    def diff(self, wrt: Atom) -> "Expr":
        """Formal partial derivative treating all other atoms as constants."""
        acc: dict = {}
        for mono, coeff in self._map.items():
            for i, (a, n) in enumerate(mono):
                if a is wrt:
                    _acc_add(acc, _mono_drop_power(mono, i), coeff * n)
                elif type(a) is ExpFactor:
                    inner = a.argument.diff(wrt)
                    if not inner.is_zero():
                        for mi, ci in inner._map.items():
                            _acc_add(acc, _mono_mul(mono, mi), coeff * ci)
        return Expr._from_map(acc)

    def total_derivative(self, direction: str) -> "Expr":
        """Jet-space total derivative: every atom moves by its chain rule."""
        acc: dict = {}
        chain: dict = {}  # atom -> terms of its total derivative
        for mono, coeff in self._map.items():
            for i, (a, n) in enumerate(mono):
                da = chain.get(a)
                if da is None:
                    da = chain[a] = a.d_total(direction)._map.items()
                if not da:
                    continue
                base = _mono_drop_power(mono, i)
                scale = coeff * n
                for mi, ci in da:
                    _acc_add(acc, _mono_mul(base, mi), scale * ci)
        return Expr._from_map(acc)

    def total_derivative_along(self, index: Iterable[str]) -> "Expr":
        """D_J: the total derivative along each direction of the multi-index
        ``index`` in turn."""
        e = self
        for direction in index:
            e = e.total_derivative(direction)
        return e

    def substitute(self, mapping: Mapping[Atom, _Coercible]) -> "Expr":
        """Simultaneous, non-recursive replacement of atoms, then renormalize.

        One pass: each ``base**n`` is computed once per call, the atoms a
        term keeps stay a ready-made sorted sub-monomial, and every product
        lands in one accumulator.
        """
        if not mapping:
            return self
        # (atom, n) -> terms of base**n; None marks an atom kept as it is
        powers: dict = {}
        acc: dict = {}
        for mono, coeff in self._map.items():
            kept = []
            factors = []
            for a, n in mono:
                key = (a, n)
                if key in powers:
                    terms = powers[key]
                else:
                    terms = powers[key] = _replacement_power(a, n, mapping)
                if terms is None:
                    kept.append(key)
                else:
                    factors.append(terms)
            if not factors:
                _acc_add(acc, mono, coeff)
                continue
            partial = ((tuple(kept), coeff),)
            for terms in factors[:-1]:
                step: dict = {}
                _acc_products(step, partial, terms)
                partial = [(m, c) for m, c in step.items() if c.a or c.b]
            _acc_products(acc, partial, factors[-1])
        return Expr._from_map(acc)

    def eval_numeric(self, assignment: Mapping[Atom, complex | np.ndarray]):
        """Complex floating evaluation; every occurring atom needs a value.

        Values may be Python scalars or numpy arrays, which broadcast
        together; the result is a complex scalar or a complex array.  The
        terms are summed in monomial order, so the result is the same in
        every run.  Each coefficient is converted to ``complex`` once per
        expression.
        """
        numeric = self._numeric
        if numeric is None:
            numeric = self._numeric = tuple((m, c.to_complex()) for m, c in self.terms)
        total = 0j
        for mono, value in numeric:
            for a, n in mono:
                v = assignment.get(a)
                if v is None:
                    if type(a) is ExpFactor:
                        import numpy as np
                        v = np.exp(a.argument.eval_numeric(assignment))
                    else:
                        raise EvaluationError(f"no value assigned for atom '{a}'")
                value = value * v if n == 1 else value * v**n
            total = total + value
        return total

    # -- presentation --------------------------------------------------------
    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"<Expr {to_text(self)}>"


Expr.ZERO = Expr({})
Expr.ONE = Expr({(): CR_ONE})
Expr.I = Expr({(): CR_I})


def _term_order(item: tuple):
    return monomial_key(item[0])


def _acc_add(acc: dict, mono: Monomial, coeff: ComplexRational) -> None:
    prev = acc.get(mono)
    acc[mono] = coeff if prev is None else prev + coeff


def _acc_products(acc: dict, terms1, terms2) -> None:
    """Add every product of a term of ``terms1`` and one of ``terms2``."""
    for m1, c1 in terms1:
        for m2, c2 in terms2:
            m = _mono_mul(m1, m2)
            c = c1 * c2
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c


def _replacement_power(a: Atom, n: int, mapping: Mapping) -> Iterable | None:
    """Terms of ``a**n`` after substitution, or None when ``a`` is unchanged."""
    repl = mapping.get(a)
    if repl is not None:
        return (_coerce(repl) ** n)._map.items()
    if type(a) is ExpFactor:
        argument = a.argument.substitute(mapping)
        if argument != a.argument:
            return (exp_of(argument) ** n)._map.items()
    return None


def _coerce(value: _Coercible):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction, ComplexRational)):
        return Expr.from_scalar(value)
    if isinstance(value, Atom):
        return Expr.atom(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------


def param(name: str) -> Expr:
    return Expr.atom(Parameter(name))


def indep(name: str) -> Expr:
    return Expr.atom(IndependentVariable(name))


def jet(name: str, *index: str) -> Expr:
    return Expr.atom(JetCoordinate(name, index))


def exp_of(argument: Expr) -> Expr:
    """Exponential factor; collapses to 1 on a zero argument."""
    if argument.is_zero():
        return Expr.ONE
    return Expr.atom(ExpFactor(argument))


# ---------------------------------------------------------------------------
# vocabulary and parser
# ---------------------------------------------------------------------------

_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_INTEGER = re.compile(r"[0-9]+")  # ASCII digits only, as the grammar states
# ASCII whitespace only, as the grammar states: every character before an
# error is then ASCII, so a ParseError's character offset is its byte offset
_WHITESPACE = frozenset(" \t\r\n")
_RESERVED = {"I", "Diff", "Exp"}


def declarable(name: str) -> bool:
    """Whether an expression can name ``name``: an identifier, not reserved."""
    return _IDENTIFIER.fullmatch(name) is not None and name not in _RESERVED


@dataclass(frozen=True)
class Vocabulary:
    """Declared symbol sets; the parser rejects anything outside them."""

    independents: tuple[str, ...]
    dependents: tuple[str, ...]
    parameters: tuple[str, ...]

    def __post_init__(self):
        names = list(self.independents) + list(self.dependents) + list(self.parameters)
        if len(set(names)) != len(names):
            raise ValueError("vocabulary names must be distinct")
        bad = [name for name in names if not declarable(name)]
        if bad:
            raise ValueError(f"not identifiers, or reserved: {bad}")

    def classify(self, name: str) -> str | None:
        if name in self.independents:
            return "independent"
        if name in self.dependents:
            return "dependent"
        if name in self.parameters:
            return "parameter"
        return None

    def with_parameters(self, *names: str) -> "Vocabulary":
        return Vocabulary(self.independents, self.dependents, self.parameters + names)


DEFAULT_VOCABULARY = Vocabulary(
    independents=("t", "x"),
    dependents=("u", "v", "phi", "psi", "f") + tuple(f"m{i}" for i in range(1, 9)),
    parameters=("alpha", "beta", "lambda", "epsilon") + tuple(f"c{i}" for i in range(1, 7)),
)


class _Parser:
    def __init__(self, text: str, vocabulary: Vocabulary):
        self.text = text
        self.pos = 0
        self.vocabulary = vocabulary

    # -- scanning -----------------------------------------------------------
    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, char: str):
        if self._peek() != char:
            raise ParseError(f"expected '{char}'", self.pos)
        self.pos += 1

    def _ident(self) -> str:
        self._skip_ws()
        found = _IDENTIFIER.match(self.text, self.pos)
        if found is None:
            raise ParseError("expected an identifier", self.pos)
        self.pos = found.end()
        return found.group()

    # -- grammar ------------------------------------------------------------
    def parse(self) -> Expr:
        e = self._sum()
        self._skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"unexpected character '{self.text[self.pos]}'", self.pos)
        return e

    def _sum(self) -> Expr:
        e = self._term()
        while True:
            op = self._peek()
            if op == "+":
                self.pos += 1
                e = e + self._term()
            elif op == "-":
                self.pos += 1
                e = e - self._term()
            else:
                return e

    def _term(self) -> Expr:
        e = self._unary()
        while True:
            op = self._peek()
            if op == "*":
                self.pos += 1
                e = e * self._unary()
            elif op == "/":
                at = self.pos
                self.pos += 1
                try:
                    e = e / self._unary()
                except ZeroDivisionError:
                    raise ParseError("division by zero", at) from None
                except ExprError as err:
                    raise ParseError(str(err), at) from None
            else:
                return e

    def _unary(self) -> Expr:
        op = self._peek()
        if op == "-":
            self.pos += 1
            return -self._unary()
        if op == "+":
            self.pos += 1
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self._peek() == "^":
            at = self.pos
            self.pos += 1
            exponent = self._unary()
            n = self._integer_exponent(exponent, at)
            try:
                return base**n
            except (ExprError, ZeroDivisionError) as err:
                raise ParseError(str(err), at) from None
        return base

    @staticmethod
    def _integer_exponent(e: Expr, offset: int) -> int:
        if not e.is_constant():
            raise ParseError("exponent must be an integer constant", offset)
        c = e.constant_value()
        if c.im != 0:
            raise ParseError("exponent must be an integer constant", offset)
        if c.re.denominator != 1:
            raise ParseError("rational exponents are not supported", offset)
        return int(c.re)

    def _atom(self) -> Expr:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            e = self._sum()
            self._expect(")")
            return e
        integer = _INTEGER.match(self.text, self.pos)
        if integer is not None:
            self.pos = integer.end()
            return Expr.from_scalar(int(integer.group()))
        if ch.isalpha():
            at = self.pos
            name = self._ident()
            if name == "I":
                return Expr.I
            if name == "Exp":
                self._expect("(")
                e = self._sum()
                self._expect(")")
                return exp_of(e)
            if name == "Diff":
                return self._diff_atom()
            kind = self.vocabulary.classify(name)
            if kind == "independent":
                return indep(name)
            if kind == "dependent":
                return jet(name)
            if kind == "parameter":
                return param(name)
            raise ParseError(f"unknown identifier '{name}'", at)
        raise ParseError("expected an expression", self.pos)

    def _diff_atom(self) -> Expr:
        self._expect("(")
        at = self.pos
        dep = self._ident()
        if self.vocabulary.classify(dep) != "dependent":
            raise ParseError(f"unknown dependent variable {dep}", at)
        index = []
        while self._peek() == ",":
            self.pos += 1
            at = self.pos
            var = self._ident()
            if self.vocabulary.classify(var) != "independent":
                raise ParseError(f"unknown independent variable {var}", at)
            index.append(var)
        self._expect(")")
        if not index:
            raise ParseError("Diff needs at least one direction", at)
        return jet(dep, *index)


def parse(text: str, vocabulary: Vocabulary = DEFAULT_VOCABULARY) -> Expr:
    """Parse the expression grammar into a canonical Expr."""
    return _Parser(text, vocabulary).parse()


# ---------------------------------------------------------------------------
# printer (emits the same grammar the parser accepts)
# ---------------------------------------------------------------------------


def _ratio_text(n: int, d: int) -> str:
    """``n / d`` in lowest terms, as the parser reads it."""
    if d != 1:
        g = gcd(n, d)
        n //= g
        d //= g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


def _const_text(c: ComplexRational) -> str:
    a, b, d = c.a, c.b, c.d
    if not b:
        return _ratio_text(a, d)
    if b == d:
        imag = "I"
    elif b == -d:
        imag = "-I"
    else:
        imag = f"{_ratio_text(b, d)}*I"
    if not a:
        return imag
    if b < 0:
        return f"{_ratio_text(a, d)} - {imag[1:]}"
    return f"{_ratio_text(a, d)} + {imag}"


def _term_text(mono: Monomial, coeff: ComplexRational) -> str:
    """The coefficient's ``_const_text`` times the atom powers: a 1 is
    dropped, a -1 becomes a leading ``-``, and a coefficient with a real and
    an imaginary part is parenthesised."""
    text = _const_text(coeff)
    if not mono:
        return text
    parts = []
    for atom, n in mono:
        s = atom._text
        if s is None:
            s = atom._text = str(atom)
        parts.append(s if n == 1 else f"{s}^{n}")
    body = "*".join(parts)
    if coeff.a and coeff.b:
        return f"({text})*{body}"
    if text == "1":
        return body
    if text == "-1":
        return f"-{body}"
    return f"{text}*{body}"


def to_text(e: Expr) -> str:
    """Deterministic printing; ``parse(to_text(e)) == e`` for every Expr."""
    if e.is_zero():
        return "0"
    pieces = [_term_text(m, c) for m, c in e.terms]
    out = [pieces[0]]
    for s in pieces[1:]:
        out.append(f" - {s[1:]}" if s[0] == "-" else f" + {s}")
    return "".join(out)
