"""Sparse multivariate polynomials with exact rational coefficients.

Representation: a monomial is a *packed exponent*, one int in which the
exponent of the 1-based variable ``u`` fills the bit field
``[(u-1)*width, u*width)``; a monomial product is one int addition and a
derivative one subtraction.  ``terms`` maps packed exponents to int
numerators over one positive denominator ``den``.  Canonical form: no zero
numerator, ``gcd(den, *numerators) == 1``, and ``den == 1`` for zero.
Width rule: ``bound`` bounds every single exponent and ``width`` is the
least multiple of 8 bits holding it; sums keep the larger bound, products
add the bounds, and a narrower operand is repacked first, so a field never
wraps.  Equality compares at a common width.  :meth:`Polynomial.sum_of_products`
is the one accumulation: ``a * b`` is its single triple ``(1, a, b)`` and
``a +- b`` its pair ``(1, a, 1), (+-1, b, 1)`` with the unit polynomial.
Exponent tuples and Fractions appear only at the edges: the constructor,
``monomials()``, ``repr`` (by :func:`_sum_text`, the term rule the graded
containers share) and ``evaluate``, which sums in :func:`integer_evaluator`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

# the largest exponent integer_evaluator takes: a value at a point A/D carries D**exponent
MAX_EXPONENT = 2**16
_EXACT = {int, Fraction}  # matched by exact type, so a bool or a float is not one


def _exact(coef):
    """``coef`` itself if it is exactly an int or a Fraction; else ``TypeError``."""
    if type(coef) not in _EXACT:
        raise TypeError(f"coefficients must be ints or Fractions, not {coef!r}")
    return coef


def _width(bound: int) -> int:
    return max(8, -(-bound.bit_length() // 8) * 8)


def _unpack(key: int, num_vars: int, width: int) -> tuple[int, ...]:
    mask = (1 << width) - 1
    return tuple((key >> (i * width)) & mask for i in range(num_vars))


def _pack(exps: Sequence[int], width: int) -> int:
    return sum(e << (i * width) for i, e in enumerate(exps))


def _packed(clean: Mapping[Sequence[int], tuple[int, int]]) -> tuple[dict[int, int], int, int, int]:
    """``(terms, den, bound, width)`` of valid exponents with nonzero ``(num, den)`` pairs, ``den > 0``.

    The bound is read from the exponents given, so a monomial that cancelled
    before the call does not widen the fields.  At width 8 an exponent
    tuple, or its ``bytes``, packs by ``int.from_bytes``.  Over the lcm of
    reduced pairs' denominators the numerators are coprime to it; the
    content of unreduced pairs is left to :meth:`Polynomial._raw`.
    """
    bound = max((max(e, default=0) for e in clean), default=0)
    width, den = _width(bound), lcm(*(d for _, d in clean.values()))
    terms = {int.from_bytes(e, "little") if width == 8 else _pack(e, width): c * (den // d)
             for e, (c, d) in clean.items()}
    return terms, den, bound, width


class Polynomial:
    """Polynomial in ``num_vars`` variables over the rationals.

    Immutable by convention, so operations may share storage.  Variables
    are 1-based, matching the coordinates ``x^u`` of the package.
    """

    __slots__ = ("num_vars", "terms", "den", "bound", "width")
    __hash__ = None

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(exps)
            # exact ints only (a bool is not an exponent), checked at C speed
            if len(exps) != num_vars or exps and ({*map(type, exps)} != {int} or min(exps) < 0):
                raise ValueError(f"bad exponent tuple {exps!r} for {num_vars} variables")
            _exact(coef)
            clean[exps] = clean[exps] + coef if exps in clean else coef
        self.num_vars = num_vars
        self.terms, self.den, self.bound, self.width = _packed({e: c.as_integer_ratio() for e, c in clean.items() if c})

    @classmethod
    def _raw(cls, num_vars: int, terms: dict[int, int], den: int = 1, bound: int = 0, width: int = 8) -> "Polynomial":
        # internal fast path: the caller guarantees nonzero numerators and a
        # bound that fits the width; only the content is divided out here
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        p = object.__new__(cls)
        p.num_vars, p.terms, p.den, p.bound, p.width = num_vars, terms, den, bound, width
        return p

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls._raw(num_vars, {})

    @classmethod
    def constant(cls, value, num_vars: int) -> "Polynomial":
        _exact(value)
        return cls._raw(num_vars, {0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def variable(cls, u: int, num_vars: int) -> "Polynomial":
        if not 1 <= u <= num_vars:
            raise ValueError(f"variable index {u} out of range 1..{num_vars}")
        return cls._raw(num_vars, {1 << ((u - 1) * 8): 1}, 1, 1)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise ValueError("operands have different variable counts")
            return other
        if type(other) in _EXACT:
            return Polynomial.constant(other, self.num_vars)
        return None

    def _terms_at(self, width: int) -> dict[int, int]:
        if width == self.width:
            return self.terms
        return {_pack(_unpack(k, self.num_vars, self.width), width): c for k, c in self.terms.items()}

    def _add(self, other: "Polynomial", sign: int) -> "Polynomial":
        one = Polynomial._raw(self.num_vars, {0: 1})
        return Polynomial.sum_of_products(self.num_vars, ((1, self, one), (sign, other, one)))

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._add(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other._add(self, -1)

    def __neg__(self):
        return Polynomial._raw(self.num_vars, {k: -c for k, c in self.terms.items()}, self.den, self.bound, self.width)

    def __mul__(self, other):
        if type(other) in _EXACT:
            if not other:
                return Polynomial._raw(self.num_vars, {})
            terms = {k: c * other.numerator for k, c in self.terms.items()}
            return Polynomial._raw(self.num_vars, terms, self.den * other.denominator, self.bound, self.width)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.sum_of_products(self.num_vars, ((1, self, other),))

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, num_vars: int, products: Sequence[tuple[int, "Polynomial", "Polynomial"]]) -> "Polynomial":
        """``sum(sign * a * b)`` over ``(sign, a, b)`` triples, in one accumulation.

        Every monomial product lands in one packed-exponent dict over the
        lcm of the products' denominators, so no polynomial is built for a
        single product or a partial sum.  The signs are integers, usually
        ``+-1``; ``products`` is a sequence, read twice.  The width holds the
        largest ``a.bound + b.bound``; only a cancellation rebuilds the dict.
        """
        bound, den = 0, 1
        for _, a, b in products:
            if a.num_vars != num_vars or b.num_vars != num_vars:
                raise ValueError("operands have different variable counts")
            if a.bound + b.bound > bound:
                bound = a.bound + b.bound
            if den % (d := a.den * b.den):
                den = lcm(den, d)
        width = _width(bound)
        out: dict[int, int] = {}
        get = out.get
        for s, a, b in products:
            f = s * (den // (a.den * b.den))
            ta = a.terms if a.width == width else a._terms_at(width)
            tb = b.terms if b.width == width else b._terms_at(width)
            if len(tb) > len(ta):
                ta, tb = tb, ta
            for kb, cb in tb.items():
                cb *= f
                for ka, ca in ta.items():
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        return cls._raw(num_vars, out, den, bound, width)

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, u: int) -> "Polynomial":
        """Partial derivative with respect to the 1-based variable ``u``."""
        if not 1 <= u <= self.num_vars:
            raise ValueError(f"variable index {u} out of range 1..{self.num_vars}")
        shift, mask = (u - 1) * self.width, (1 << self.width) - 1
        one = 1 << shift
        # lowering one exponent is injective, so no two terms merge
        out = {k - one: c * e for k, c in self.terms.items() if (e := (k >> shift) & mask)}
        return Polynomial._raw(self.num_vars, out, self.den, self.bound, self.width)

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at a point of ints and Fractions, through :func:`integer_evaluator`."""
        (value,), scale = integer_evaluator([self], self.num_vars)(*_integer_point(point, self.num_vars))
        return Fraction(value, scale)

    # -- queries -----------------------------------------------------------

    def variables(self) -> list[int]:
        """The 1-based variables occurring in some term, increasing."""
        used = _unpack(reduce(or_, self.terms, 0), self.num_vars, self.width)
        return [u for u, e in enumerate(used, 1) if e]

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(_unpack(k, self.num_vars, self.width)) for k in self.terms), default=0)

    def is_constant(self) -> bool:
        return not any(self.terms)  # the constant monomial is the only key 0

    def constant_value(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    def monomials(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """``(exponent tuple, Fraction coefficient)`` pairs by increasing tuple."""
        n, w, den = self.num_vars, self.width, self.den
        return iter(sorted((_unpack(k, n, w), Fraction(c, den)) for k, c in self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) in _EXACT:
            other = Polynomial.constant(other, self.num_vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if (self.num_vars, self.den, len(self.terms)) != (other.num_vars, other.den, len(other.terms)):
            return False
        width = max(self.width, other.width)
        return self._terms_at(width) == other._terms_at(width)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        monos = sorted(self.monomials(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return _sum_text(
            (c, "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(x, 1) if e)) for x, c in monos
        )


def _sum_text(terms: Iterable[tuple[object, str]]) -> str:
    """``coef*name + ...`` over ``(coef, name)`` pairs, the one term rule of every ``repr``: an empty
    name shows the coefficient alone, a unit number (never a text) ``name`` or ``-name``."""
    parts = (str(c) if not name else name if c == 1 else "-" + name if c == -1 else f"{c}*{name}" for c, name in terms)
    return " + ".join(parts).replace("+ -", "- ")


def _integer_point(point: Sequence, num_vars: int) -> tuple[list[int], int]:
    """``(A, D)`` with ``point == A/D``, ``D`` the lcm of the denominators of its exact ints and Fractions."""
    if len(point) != num_vars:
        raise ValueError(f"point must have {num_vars} coordinates")
    if not {*map(type, point)} <= _EXACT:
        raise TypeError(f"coordinates must be ints or Fractions, not {point!r}")
    ratios = [c.as_integer_ratio() for c in point]
    d = lcm(*(q for _, q in ratios))
    return [a * (d // q) for a, q in ratios], d


def integer_evaluator(polys: Sequence[Polynomial], num_vars: int) -> Callable[..., tuple[list[int], int]]:
    """Evaluate ``polys`` at a point in integers, sharing one positive scale.

    Each monomial ``c_e x^e`` of ``p_k`` (numerator ``c_e`` over ``den_k``)
    is decoded once, here, into ``c_e * L/den_k``, its ``(variable index,
    exponent)`` pairs and its degree ``|e|``; ``L`` is the lcm of the
    ``den_k`` and ``deg`` the largest degree.  The returned function takes
    a point in the integer form ``A, D`` of :func:`_integer_point`, made
    once per point whatever is evaluated there, and returns
    ``([S_1, ...], L * D**deg)`` with
    ``S_k = sum_e c_e (L/den_k) A^e D^(deg-|e|)``.  As ``x^e = A^e/D^|e|``,
    ``S_k = p_k(x) * L * D**deg``: every value carries the one positive
    scale, so a matrix of signed values ``S_k`` has the rank of the same
    matrix of the ``p_k(x)``.  A bound above :data:`MAX_EXPONENT` is refused.
    """
    if (bound := max((p.bound for p in polys), default=0)) > MAX_EXPONENT:
        raise ValueError(f"exponent {bound} exceeds {MAX_EXPONENT}, the largest that evaluation takes")
    scale, decoded = lcm(*(p.den for p in polys)), []
    for p in polys:
        monos = []
        for key, c in p.terms.items():
            pairs = [(i, e) for i, e in enumerate(_unpack(key, num_vars, p.width)) if e]
            monos.append((c * (scale // p.den), pairs, sum(e for _, e in pairs)))
        decoded.append(monos)
    # only the degrees that occur get a power of D: a lone x^20000 needs two, not 20001
    degrees = {0, *(k for monos in decoded for _, _, k in monos)}
    deg = max(degrees)

    def values(nums: Sequence[int], d: int) -> tuple[list[int], int]:
        powers = {k: d ** (deg - k) for k in degrees}
        out = []
        for monos in decoded:
            s = 0
            for c, pairs, k in monos:
                t = c * powers[k]
                for i, e in pairs:
                    t *= nums[i] ** e
                s += t
            out.append(s)
        return out, scale * powers[0]

    return values
