"""Exact rational functions of one variable d with factored denominators.

Every quantity this package derives is (integer prefactor) * (primitive
integer polynomial in d) / (positive integer * product of (d + c)^m).  The
canonical form keeps the polynomial content-free with positive leading
coefficient, cancels denominator factors into the numerator by exact trial
division only, and reduces gcd(prefactor, denominator scalar), so equal
values compare equal structurally.

A small parser accepts the text grammar (integers, d, + - * / ^ and
parentheses); the machine format always writes explicit '*', while the
display format may juxtapose factors and regroup (d+c)(d-c) as (d^2-c^2).
The parser accepts both, so display output round-trips.
"""

from __future__ import annotations

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


def _poly_neg(a):
    return tuple(-c for c in a)


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


class LinearFactors:
    """A product scalar * prod (d + offset)^multiplicity, scalar >= 1."""

    __slots__ = ("scalar", "factors")

    def __init__(self, factors=None, scalar=1):
        if scalar <= 0:
            raise ValueError("scalar must be positive")
        clean: dict[int, int] = {}
        for off, mult in sorted((factors or {}).items()):
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                clean[int(off)] = int(mult)
        object.__setattr__(self, "scalar", int(scalar))
        object.__setattr__(self, "factors", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LinearFactors is immutable")

    def degree(self):
        return sum(self.factors.values())

    def expand(self):
        p = (self.scalar,)
        for off, mult in self.factors.items():
            p = _poly_mul(p, _poly_pow_linear(off, mult))
        return p

    def evaluate(self, x):
        acc = Fraction(self.scalar)
        for off, mult in self.factors.items():
            acc *= Fraction(x + off) ** mult
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, LinearFactors)
            and self.scalar == other.scalar
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash((self.scalar, tuple(self.factors.items())))

    def __repr__(self):
        return f"LinearFactors({self.factors}, scalar={self.scalar})"


class RationalFunction:
    """Canonical prefactor * polynomial / LinearFactors form."""

    __slots__ = ("prefactor", "numer", "den")

    def __init__(self, prefactor, numer=(1,), den=None):
        den = den if den is not None else LinearFactors()
        pref, poly, scalar, factors = _canonicalize(
            int(prefactor), tuple(numer), den.scalar, dict(den.factors)
        )
        object.__setattr__(self, "prefactor", pref)
        object.__setattr__(self, "numer", poly)
        object.__setattr__(self, "den", LinearFactors(factors, scalar))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_integer(cls, k):
        return cls(k)

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        return cls(q.numerator, (1,), LinearFactors(scalar=q.denominator))

    @classmethod
    def ratio(cls, numer, den_factors=None, den_scalar=1):
        """numer / (den_scalar * prod (d+c)^m); numer is an int or coeff tuple."""
        poly = (int(numer),) if isinstance(numer, int) else tuple(numer)
        return cls(1, poly, LinearFactors(den_factors or {}, den_scalar))

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return self.prefactor == 0

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return RationalFunction(-self.prefactor, self.numer, self.den)

    def __add__(self, other):
        if isinstance(other, int):
            other = RationalFunction.from_integer(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        s = lcm(self.den.scalar, other.den.scalar)
        offs = set(self.den.factors) | set(other.den.factors)
        mults = {c: max(self.den.factors.get(c, 0), other.den.factors.get(c, 0)) for c in offs}

        def lifted(f):
            p = _poly_scale(f.numer, f.prefactor * (s // f.den.scalar))
            for c, m in mults.items():
                extra = m - f.den.factors.get(c, 0)
                if extra:
                    p = _poly_mul(p, _poly_pow_linear(c, extra))
            return p

        return RationalFunction(1, _poly_add(lifted(self), lifted(other)), LinearFactors(mults, s))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = RationalFunction.from_integer(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return RationalFunction(
                self.prefactor * q.numerator,
                self.numer,
                LinearFactors(self.den.factors, self.den.scalar * q.denominator),
            ) if q else RationalFunction(0)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        merged = dict(self.den.factors)
        for c, m in other.den.factors.items():
            merged[c] = merged.get(c, 0) + m
        return RationalFunction(
            self.prefactor * other.prefactor,
            _poly_mul(self.numer, other.numer),
            LinearFactors(merged, self.den.scalar * other.den.scalar),
        )

    __rmul__ = __mul__

    # -- values ------------------------------------------------------------

    def evaluate(self, d):
        """Exact value at d (int or Fraction); raises ValueError at a pole."""
        x = Fraction(d)
        for off in self.den.factors:
            if x + off == 0:
                raise ValueError(f"pole at d = {d} (factor {_linear(off)})")
        return Fraction(self.prefactor) * _poly_eval(self.numer, x) / self.den.evaluate(x)

    def leading_asymptotics(self):
        """(coefficient, power) with f(d) ~ coefficient / d**power as d -> oo."""
        if self.is_zero():
            raise ValueError("zero function has no asymptotic scale")
        coeff = Fraction(self.prefactor * self.numer[-1], self.den.scalar)
        return coeff, self.den.degree() - (len(self.numer) - 1)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.prefactor == other.prefactor
            and self.numer == other.numer
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.prefactor, self.numer, self.den))

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


def _den_pieces(den):
    pieces = []
    factors = dict(den.factors)
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
    num_parts = []
    pref = f.prefactor
    if f.numer == (1,):
        num_parts.append(str(pref))
    else:
        if pref == -1:
            num_parts.append("-1" if machine else "-")
        elif pref != 1:
            num_parts.append(str(pref))
        num_parts.append(f"({_format_poly(f.numer, machine)})")
    if not machine and num_parts and num_parts[0] == "-":
        num = "-" + num_parts[1]
    else:
        num = star.join(num_parts)
    den = f.den
    if den.scalar == 1 and not den.factors:
        return num
    den_parts = [] if den.scalar == 1 else [str(den.scalar)]
    if machine:
        for c in sorted(den.factors):
            den_parts.append(_format_factor(_base(c), den.factors[c]))
    else:
        for base, mult in _den_pieces(den):
            den_parts.append(_format_factor(base, mult))
    den_text = star.join(den_parts)
    if len(den_parts) > 1:
        den_text = f"({den_text})"
    return f"{num} / {den_text}"


# ---------------------------------------------------------------------------
# parsing


class _Tokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
            elif ch == "d":
                self.toks.append(("d", None))
                i += 1
            elif ch in "+-*/^()":
                self.toks.append((ch, None))
                i += 1
            else:
                raise ValueError(f"bad character {ch!r} in rational function text")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok


def _parse(text):
    toks = _Tokens(text)
    num, den = _parse_expr(toks)
    if toks.peek() is not None:
        raise ValueError(f"trailing input in rational function text {text!r}")
    return _ratio_to_canonical(num, den)


def _parse_expr(toks):
    negate = False
    if toks.peek() == "-":
        toks.take()
        negate = True
    num, den = _parse_term(toks)
    if negate:
        num = _poly_neg(num)
    while toks.peek() in ("+", "-"):
        op = toks.take()[0]
        n2, d2 = _parse_term(toks)
        if op == "-":
            n2 = _poly_neg(n2)
        num, den = _poly_add(_poly_mul(num, d2), _poly_mul(n2, den)), _poly_mul(den, d2)
    return num, den


def _parse_term(toks):
    num, den = _parse_factor(toks)
    while True:
        nxt = toks.peek()
        if nxt in ("*", "/"):
            op = toks.take()[0]
            n2, d2 = _parse_factor(toks)
            if op == "*":
                num, den = _poly_mul(num, n2), _poly_mul(den, d2)
            else:
                if n2 == (0,):
                    raise ValueError("division by zero in rational function text")
                num, den = _poly_mul(num, d2), _poly_mul(den, n2)
        elif nxt in ("int", "d", "("):
            # juxtaposition, e.g. "4 (d + 1)" or "3d^2" (display form)
            n2, d2 = _parse_factor(toks)
            num, den = _poly_mul(num, n2), _poly_mul(den, d2)
        else:
            return num, den


def _parse_factor(toks):
    num, den = _parse_atom(toks)
    while toks.peek() == "^":
        toks.take()
        neg = False
        if toks.peek() == "-":
            toks.take()
            neg = True
        kind, val = toks.take()
        if kind != "int":
            raise ValueError("exponent must be an integer")
        pn, pd = (1,), (1,)
        for _ in range(val):
            pn, pd = _poly_mul(pn, num), _poly_mul(pd, den)
        num, den = (pd, pn) if neg else (pn, pd)
        if num == (0,) and neg:
            raise ValueError("zero to a negative power")
    return num, den


def _parse_atom(toks):
    kind, val = toks.take() if toks.peek() is not None else (None, None)
    if kind == "int":
        return (val,), (1,)
    if kind == "d":
        return (0, 1), (1,)
    if kind == "(":
        num, den = _parse_expr(toks)
        if toks.peek() != ")":
            raise ValueError("unbalanced parentheses")
        toks.take()
        return num, den
    if kind == "-":
        num, den = _parse_factor(toks)
        return _poly_neg(num), den
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


def _ratio_to_canonical(num, den):
    den = _trim(den)
    if den == (0,):
        raise ValueError("zero denominator")
    content = _poly_content(den)
    scalar, den = abs(content), tuple(c // content for c in den)
    sign = 1
    factors: dict[int, int] = {}
    if content < 0:
        sign = -1
    p = den
    while len(p) > 1:
        root_found = False
        for r in _root_candidates(p[0]):
            q = _poly_div_linear(p, -r)  # root r means factor (d - r), offset -r
            if q is not None:
                factors[-r] = factors.get(-r, 0) + 1
                p = q
                root_found = True
                break
        if not root_found:
            raise ValueError("denominator does not factor into integer linear terms")
    # whatever remains is the constant 1 for a monic primitive polynomial
    assert p == (1,)
    return RationalFunction(sign, num, LinearFactors(factors, scalar))
