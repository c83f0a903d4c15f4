"""Sparse multivariate polynomials with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

_SCALARS = (int, Fraction)


class Polynomial:
    """Polynomial in ``num_vars`` variables over the rationals.

    ``terms`` maps exponent tuples (length ``num_vars``, entries >= 0) to
    nonzero Fractions; the zero polynomial stores no terms.  Instances are
    immutable by convention: every operation returns a fresh object.
    Variables are 1-based so that ``variable(u)`` matches the coordinate
    ``x^u`` used throughout the package.
    """

    __slots__ = ("num_vars", "terms")
    __hash__ = None

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(exps)
                if len(exps) != num_vars or any(not isinstance(e, int) or e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps!r} for {num_vars} variables")
                coef = coef if isinstance(coef, Fraction) else Fraction(coef)
                if not coef:
                    continue
                cur = clean.get(exps)
                if cur is None:
                    clean[exps] = coef
                else:
                    s = cur + coef
                    if s:
                        clean[exps] = s
                    else:
                        del clean[exps]
        self.num_vars = num_vars
        self.terms = clean

    @classmethod
    def _raw(cls, num_vars: int, terms: dict[tuple[int, ...], Fraction]) -> "Polynomial":
        # internal fast path: caller guarantees canonical terms
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls._raw(num_vars, {})

    @classmethod
    def constant(cls, value, num_vars: int) -> "Polynomial":
        c = value if isinstance(value, Fraction) else Fraction(value)
        if not c:
            return cls._raw(num_vars, {})
        return cls._raw(num_vars, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, u: int, num_vars: int) -> "Polynomial":
        if not 1 <= u <= num_vars:
            raise ValueError(f"variable index {u} out of range 1..{num_vars}")
        exps = tuple(1 if i == u - 1 else 0 for i in range(num_vars))
        return cls._raw(num_vars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, coef, exps: Sequence[int], num_vars: int | None = None) -> "Polynomial":
        exps = tuple(exps)
        nv = len(exps) if num_vars is None else num_vars
        return cls(nv, {exps: coef})

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise ValueError("operands have different variable counts")
            return other
        if isinstance(other, _SCALARS):
            return Polynomial.constant(other, self.num_vars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            cur = out.get(exps)
            if cur is None:
                out[exps] = coef
            else:
                s = cur + coef
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        return Polynomial._raw(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = other if isinstance(other, Fraction) else Fraction(other)
            if not c:
                return Polynomial._raw(self.num_vars, {})
            return Polynomial._raw(self.num_vars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.num_vars != self.num_vars:
            raise ValueError("operands have different variable counts")
        if not self.terms or not other.terms:
            return Polynomial._raw(self.num_vars, {})
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                piece = c1 * c2
                cur = out.get(exps)
                if cur is None:
                    out[exps] = piece
                else:
                    s = cur + piece
                    if s:
                        out[exps] = s
                    else:
                        del out[exps]
        return Polynomial._raw(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        acc = Polynomial.constant(1, self.num_vars)
        for _ in range(exponent):
            acc = acc * self
        return acc

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, u: int) -> "Polynomial":
        """Partial derivative with respect to the 1-based variable ``u``."""
        if not 1 <= u <= self.num_vars:
            raise ValueError(f"variable index {u} out of range 1..{self.num_vars}")
        i = u - 1
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            # lowering one exponent is injective, so no two terms merge
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = coef * e
        return Polynomial._raw(self.num_vars, out)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError(f"point must have {self.num_vars} coordinates")
        pt = [p if isinstance(p, Fraction) else Fraction(p) for p in point]
        total = Fraction(0)
        for exps, coef in self.terms.items():
            val = coef
            for p, e in zip(pt, exps):
                if e:
                    val *= p ** e
            total += val
        return total

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        zero_exps = (0,) * self.num_vars
        return self.terms.get(zero_exps, Fraction(0))

    def monomials(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(sorted(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(other, self.num_vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            elif coef == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coef}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")
