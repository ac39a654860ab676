"""Exact rational functions of one variable d with factored denominators.

Every quantity this package derives is one RationalFunction, held in the
canonical form

    prefactor * numer / (scalar * prod over c of (d + c)^factors[c])

in four fields: an integer prefactor, a primitive integer polynomial numer
(little-endian coefficients, positive leading coefficient), a positive
integer scalar and a dict factors of offset -> multiplicity.  Denominator
factors cancel into the numerator by exact trial division only, and
gcd(prefactor, scalar) is reduced, so equal values compare equal field by
field.

A small parser accepts the text grammar (integers, d, + - * / ^ and
parentheses); the machine format always writes explicit '*', while the
display format may juxtapose factors and regroup (d+c)(d-c) as (d^2-c^2).
The parser accepts both, so display output round-trips.  One regular
expression splits the text into unsigned integers and single characters;
a unary minus is a factor, so it binds tighter than * and / but looser
than ^ (-d^2 is -(d^2)).  The parser builds RationalFunction values with
the class's own arithmetic: a divisor, or a base raised to a negative
power, must be nonzero, and its numerator must split into integer linear
factors, which become the factors of the denominator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


# ---------------------------------------------------------------------------
# integer polynomials as little-endian coefficient tuples


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return tuple(p)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_scale(a, k):
    return (0,) if k == 0 else tuple(c * k for c in a)


def _poly_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _poly_content(a):
    """Content with the sign of the leading coefficient (0 for the zero poly)."""
    g = 0
    for c in a:
        g = gcd(g, abs(c))
    if g and a[-1] < 0:
        g = -g
    return g


def _poly_div_linear(a, c):
    """Exact quotient of a by (d + c), or None if it does not divide."""
    if len(a) < 2:
        return None
    q = [0] * (len(a) - 1)
    rem = 0
    for i in range(len(a) - 1, -1, -1):
        cur = a[i] - rem * c if i < len(a) - 1 else a[i]
        if i == 0:
            if cur != 0:
                return None
        else:
            q[i - 1] = cur
            rem = cur
    return _trim(q)


def _poly_pow_linear(c, m):
    p = (1,)
    for _ in range(m):
        p = _poly_mul(p, (c, 1))
    return p


# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class RationalFunction:
    """An immutable rational function of d in the canonical form above."""

    prefactor: int
    numer: tuple[int, ...]
    scalar: int
    factors: dict[int, int]

    def __init__(self, prefactor, numer=(1,), factors=None, scalar=1):
        if scalar <= 0:
            raise ValueError("scalar must be positive")
        factors = {int(c): int(m) for c, m in (factors or {}).items()}
        if any(m < 0 for m in factors.values()):
            raise ValueError("negative multiplicity")
        canonical = _canonicalize(int(prefactor), tuple(numer), int(scalar), factors)
        for name, value in zip(("prefactor", "numer", "scalar", "factors"), canonical):
            object.__setattr__(self, name, value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def ratio(cls, numer, den_factors=None, den_scalar=1):
        """numer / (den_scalar * prod (d+c)^m); numer is an int or coeff tuple."""
        poly = (int(numer),) if isinstance(numer, int) else tuple(numer)
        return cls(1, poly, den_factors, den_scalar)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return self.prefactor == 0

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return RationalFunction(-self.prefactor, self.numer, self.factors, self.scalar)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        s = lcm(self.scalar, other.scalar)
        offs = set(self.factors) | set(other.factors)
        mults = {c: max(self.factors.get(c, 0), other.factors.get(c, 0)) for c in offs}

        def lifted(f):
            p = _poly_scale(f.numer, f.prefactor * (s // f.scalar))
            for c, m in mults.items():
                extra = m - f.factors.get(c, 0)
                if extra:
                    p = _poly_mul(p, _poly_pow_linear(c, extra))
            return p

        return RationalFunction(1, _poly_add(lifted(self), lifted(other)), mults, s)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self.factors)
        for c, m in other.factors.items():
            merged[c] = merged.get(c, 0) + m
        return RationalFunction(
            self.prefactor * other.prefactor,
            _poly_mul(self.numer, other.numer),
            merged,
            self.scalar * other.scalar,
        )

    __rmul__ = __mul__

    # -- values ------------------------------------------------------------

    def evaluate(self, d):
        """Exact value at d (int or Fraction); raises ValueError at a pole."""
        x = Fraction(d)
        den = Fraction(self.scalar)
        for off, mult in self.factors.items():
            if x + off == 0:
                raise ValueError(f"pole at d = {d} (factor {_linear(off)})")
            den *= (x + off) ** mult
        return Fraction(self.prefactor) * _poly_eval(self.numer, x) / den

    def leading_asymptotics(self):
        """(coefficient, power) with f(d) ~ coefficient / d**power as d -> oo."""
        if self.is_zero():
            raise ValueError("zero function has no asymptotic scale")
        coeff = Fraction(self.prefactor * self.numer[-1], self.scalar)
        return coeff, sum(self.factors.values()) - (len(self.numer) - 1)

    # -- comparisons -------------------------------------------------------

    # the dataclass compares the four fields, but factors is a dict: hash here
    def __hash__(self):
        return hash((self.prefactor, self.numer, self.scalar, tuple(self.factors.items())))

    def __repr__(self):
        return f"<RationalFunction {self.to_machine()}>"

    # -- text forms --------------------------------------------------------

    def to_machine(self):
        """Exact text with explicit '*'; parses back to an equal function."""
        return _format(self, machine=True)

    def to_display(self):
        """Human-readable text; conjugate factor pairs regroup as d^2-c^2."""
        return _format(self, machine=False)

    @classmethod
    def parse(cls, text):
        return _parse(text)


def _coerce(other):
    """other as a RationalFunction if it is one, an int or a Fraction, else
    None: the one scalar rule of +, - and *."""
    if isinstance(other, RationalFunction):
        return other
    if isinstance(other, (int, Fraction)):
        q = Fraction(other)
        return RationalFunction(q.numerator, scalar=q.denominator)
    return None


# ---------------------------------------------------------------------------
# canonicalization


def _canonicalize(pref, poly, scalar, factors):
    poly = _trim(poly)
    content = _poly_content(poly)
    if pref == 0 or content == 0:
        return 0, (1,), 1, {}
    pref *= content
    poly = tuple(c // content for c in poly)
    for off in sorted(factors):
        while factors[off] > 0:
            q = _poly_div_linear(poly, off)
            if q is None:
                break
            poly = q
            factors[off] -= 1
    factors = {c: m for c, m in sorted(factors.items()) if m > 0}
    g = gcd(abs(pref), scalar)
    return pref // g, poly, scalar // g, factors


# ---------------------------------------------------------------------------
# formatting


def _format_poly(poly, machine):
    if len(poly) == 1:
        return str(poly[0])
    star = "*" if machine else ""
    parts = []
    for k in range(len(poly) - 1, -1, -1):
        c = poly[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            dpow = "d" if k == 1 else f"d^{k}"
            body = dpow if mag == 1 else f"{mag}{star}{dpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def _format_factor(base, mult):
    if mult == 1:
        return base
    return f"{base}^{mult}"


def _linear(c):
    """The factor d + c as text: d, d + 3 or d - 3."""
    if c == 0:
        return "d"
    return f"d {'+' if c > 0 else '-'} {abs(c)}"


def _base(c):
    """The factor d + c as a denominator base: d, (d + 3) or (d - 3)."""
    return _linear(c) if c == 0 else f"({_linear(c)})"


def _den_pieces(factors):
    pieces = []
    factors = dict(factors)
    if 0 in factors:
        pieces.append((_base(0), factors.pop(0)))
    for c in sorted(k for k in factors if k > 0):
        m = factors.get(c, 0)
        mneg = factors.get(-c, 0)
        if m and mneg:
            k = min(m, mneg)
            pieces.append((f"(d^2 - {c * c})", k))
            factors[c] -= k
            factors[-c] -= k
    for c in sorted(factors):
        if factors[c] == 0:
            continue
        pieces.append((_base(c), factors[c]))
    return pieces


def _format(f, machine):
    if f.is_zero():
        return "0"
    star = "*" if machine else " "
    pref, poly = f.prefactor, f"({_format_poly(f.numer, machine)})"
    if f.numer == (1,):
        num = str(pref)
    elif pref == 1:
        num = poly
    elif pref == -1 and not machine:
        num = f"-{poly}"
    else:
        num = f"{pref}{star}{poly}"
    if f.scalar == 1 and not f.factors:
        return num
    den_parts = [] if f.scalar == 1 else [str(f.scalar)]
    if machine:
        for c in sorted(f.factors):
            den_parts.append(_format_factor(_base(c), f.factors[c]))
    else:
        for base, mult in _den_pieces(f.factors):
            den_parts.append(_format_factor(base, mult))
    den_text = star.join(den_parts)
    if len(den_parts) > 1:
        den_text = f"({den_text})"
    return f"{num} / {den_text}"


# ---------------------------------------------------------------------------
# parsing

# one token per match: an unsigned integer or any other non-space character
_TOKEN = re.compile(r"\s*(?:(\d+)|(\S))")


class _Tokens:
    def __init__(self, text):
        self.toks = []
        for digits, ch in _TOKEN.findall(text):
            if digits:
                self.toks.append(("int", int(digits)))
            elif ch in "d+-*/^()":
                self.toks.append((ch, None))
            else:
                raise ValueError(f"bad character {ch!r} in rational function text")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        """The next token, or (None, None) at the end of the text."""
        if self.pos == len(self.toks):
            return None, None
        self.pos += 1
        return self.toks[self.pos - 1]


def _parse(text):
    toks = _Tokens(text)
    f = _parse_expr(toks)
    if toks.peek() is not None:
        raise ValueError(f"trailing input in rational function text {text!r}")
    return f


def _parse_expr(toks):
    f = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op = toks.take()[0]
        g = _parse_term(toks)
        f = f + g if op == "+" else f - g
    return f


def _parse_term(toks):
    f = _parse_factor(toks)
    while True:
        nxt = toks.peek()
        if nxt in ("*", "/"):
            op = toks.take()[0]
            g = _parse_factor(toks)
            if op == "/":
                if g.is_zero():
                    raise ValueError("division by zero in rational function text")
                g = _reciprocal(g)
            f = f * g
        elif nxt in ("int", "d", "("):
            # juxtaposition, e.g. "4 (d + 1)" or "3d^2" (display form)
            f = f * _parse_factor(toks)
        else:
            return f


def _parse_factor(toks):
    f = _parse_atom(toks)
    while toks.peek() == "^":
        toks.take()
        neg = toks.peek() == "-"
        if neg:
            toks.take()
        kind, val = toks.take()
        if kind != "int":
            raise ValueError("exponent must be an integer")
        power = RationalFunction(1)
        for _ in range(val):
            power = power * f
        if neg:
            if power.is_zero():
                raise ValueError("zero to a negative power")
            power = _reciprocal(power)
        f = power
    return f


def _parse_atom(toks):
    kind, val = toks.take()
    if kind == "int":
        return RationalFunction(val)
    if kind == "d":
        return RationalFunction(1, (0, 1))
    if kind == "(":
        f = _parse_expr(toks)
        if toks.take()[0] != ")":
            raise ValueError("unbalanced parentheses")
        return f
    if kind == "-":
        return -_parse_factor(toks)
    if kind is None:
        raise ValueError("rational function text ends too early")
    raise ValueError(f"unexpected token {kind!r} in rational function text")


def _root_candidates(const):
    """Possible integer roots of a monic integer polynomial with this
    constant term: 0 if the term vanishes, otherwise +/- each divisor."""
    if const == 0:
        return [0]
    n = abs(const)
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
    out = []
    for v in small + large[::-1]:
        out.extend((v, -v))
    return out


def _reciprocal(f):
    """1 / f for a nonzero f: its denominator factors become the numerator,
    and its primitive numerator must split into integer linear factors."""
    p = f.numer
    factors: dict[int, int] = {}
    while len(p) > 1:
        for r in _root_candidates(p[0]):
            q = _poly_div_linear(p, -r)  # root r means factor (d - r), offset -r
            if q is not None:
                factors[-r] = factors.get(-r, 0) + 1
                p = q
                break
        else:
            raise ValueError("denominator does not factor into integer linear terms")
    # whatever remains is the constant 1 for a monic primitive polynomial
    assert p == (1,)
    numer = (1,)
    for c, m in f.factors.items():
        numer = _poly_mul(numer, _poly_pow_linear(c, m))
    sign = 1 if f.prefactor > 0 else -1
    return RationalFunction(sign * f.scalar, numer, factors, abs(f.prefactor))
