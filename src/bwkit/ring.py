"""Exact arithmetic core: monomials, polynomials over Q, the one revlex key,
the packed monomial keys of the Groebner engines, the one exact sparse rank
(over Q or F_p), the change-of-coordinates kernel, and the univariate
machinery (Hilbert series, bivariate layer polynomials) everything else sits
on.

Two owners of output formats live here as well.  _SparseTable is the base of
every result table (the layer polynomial, the f- and h-triangles, Betti and
local cohomology tables): it validates the integer entries, gives value
semantics and writes and parses the one JSON entry list.  _signed_sum writes
the text of every signed sum of terms (Polynomial, UniPoly, BWPolynomial).

Monomial order is graded reverse lexicographic with x1 > x2 > ... > xn:
higher total degree wins, ties go to the monomial whose last nonzero entry
of the exponent difference is negative. All coefficient arithmetic is exact
(ints and fractions.Fraction); nothing here floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, TypeVar

Exps = tuple[int, ...]
C = TypeVar("C", int, Fraction)


def require_int(x, what: str = "value") -> int:
    """x itself when it is an int; floats, bools and strings raise ValueError
    instead of being coerced."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


_FIELD_LIMIT = 1 << 31  # keeps trial-division primality under ~46k steps


def require_field(p) -> int | None:
    """p itself when it names a coefficient field: None for Q, or a prime
    below 2^31 for F_p.  Anything else raises ValueError."""
    if p is None:
        return None
    if require_int(p, "field characteristic") >= _FIELD_LIMIT:
        raise ValueError(f"field characteristic {p} is too large (must be below 2^31)")
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    return p


@dataclass(frozen=True)
class RingSpec:
    """A standard graded polynomial ring Q[x1..xn], deg xi = 1."""

    n: int

    def __post_init__(self) -> None:
        if require_int(self.n, "variable count") < 1:
            raise ValueError("ring needs at least one variable")

    def variable(self, i: int) -> "Monomial":
        """Monomial xi, 1-based index."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        exps = [0] * self.n
        exps[i - 1] = 1
        return Monomial(tuple(exps))

    def one(self) -> "Monomial":
        return Monomial((0,) * self.n)

    def monomial(self, exponents: Sequence[int]) -> "Monomial":
        m = Monomial(tuple(exponents))
        if len(m.exponents) != self.n:
            raise ValueError("exponent vector length does not match ring")
        return m


def exponent_revlex_key(e: Exps) -> tuple:
    """Sort key on an exponent tuple: ascending in graded revlex."""
    return (sum(e), tuple(-x for x in reversed(e)))


def exponent_mask(e: Exps) -> int:
    """Support of an exponent tuple as a bitmask: bit k stands for x_{k+1}."""
    out = 0
    for k, x in enumerate(e):
        if x:
            out |= 1 << k
    return out


def revlex_key(m: "Monomial") -> tuple:
    """Sort key: ascending in graded revlex."""
    return exponent_revlex_key(m.exponents)


def revlex_compare(a: "Monomial", b: "Monomial") -> int:
    """-1, 0 or +1 as a <, =, > b in graded revlex (x1 greatest)."""
    if len(a.exponents) != len(b.exponents):
        raise ValueError("monomials from rings of different dimension")
    ka, kb = revlex_key(a), revlex_key(b)
    return (ka > kb) - (ka < kb)


class Monomial:
    """Immutable exponent vector. Position k holds the exponent of x(k+1)."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        if type(exponents) is not tuple:
            raise ValueError(f"exponents must be a tuple of integers, got {exponents!r}")
        for e in exponents:
            # a bare type test: this runs on every monomial built
            if type(e) is not int:
                raise ValueError(f"exponent must be an integer, got {e!r}")
            if e < 0:
                raise ValueError("negative exponent")
        object.__setattr__(self, "exponents", exponents)

    def __setattr__(self, *_):
        raise AttributeError("Monomial is immutable")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def support(self) -> tuple[int, ...]:
        """1-based indices of variables actually present."""
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e > 0)

    def exponent(self, i: int) -> int:
        """Exponent of xi, 1-based."""
        return self.exponents[i - 1]

    def max_index(self) -> int:
        """Largest 1-based variable index dividing the monomial; 0 for 1."""
        for i in range(len(self.exponents) - 1, -1, -1):
            if self.exponents[i] > 0:
                return i + 1
        return 0

    @property
    def is_one(self) -> bool:
        return not any(self.exponents)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def _zip(self, other: "Monomial") -> zip:
        """The exponent pairs of two monomials of one ring; monomials of
        different lengths raise instead of being truncated."""
        if len(self.exponents) != len(other.exponents):
            raise ValueError("monomials from rings of different dimension")
        return zip(self.exponents, other.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in self._zip(other)))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in self._zip(other))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other, exact (other must divide self)."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in self._zip(other)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in self._zip(other)))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(min(a, b) for a, b in self._zip(other)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __lt__(self, other: "Monomial") -> bool:
        return revlex_compare(self, other) < 0

    def __le__(self, other: "Monomial") -> bool:
        return revlex_compare(self, other) <= 0

    def __gt__(self, other: "Monomial") -> bool:
        return revlex_compare(self, other) > 0

    def __ge__(self, other: "Monomial") -> bool:
        return revlex_compare(self, other) >= 0

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self.exponents})"


def _power(var: str, k: int) -> str:
    """Text of var^k: empty for k = 0, the bare variable for k = 1."""
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def _signed_sum(terms: Iterable[tuple[int | Fraction, str]], sep: str = "") -> str:
    """Text of the sum of c*m over (c, m) pairs, in the given order: a leading
    minus, " + " and " - " between terms, and "0" for no terms.  A unit
    coefficient is dropped before a non-empty monomial text m, and sep joins
    any other coefficient to it."""
    out = []
    for c, m in terms:
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        a = abs(c)
        if not m:
            out.append(str(a))
        elif a == 1:
            out.append(m)
        else:
            out.append(f"{a}{sep}{m}")
    return "".join(out) or "0"


class Polynomial:
    """Element of Q[x1..xn]: a finite map from monomials to nonzero rationals.

    Term iteration is descending revlex; the leading data come from the same
    order. Instances are treated as immutable values.
    """

    __slots__ = ("ring", "_terms", "_sorted")

    def __init__(self, ring: RingSpec, terms: Mapping[Monomial, Fraction | int]):
        clean: dict[Monomial, Fraction] = {}
        for m, c in terms.items():
            if len(m.exponents) != ring.n:
                raise ValueError("term does not match ring dimension")
            c = Fraction(c)
            if c != 0:
                clean[m] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_sorted", None)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: RingSpec) -> "Polynomial":
        return cls(ring, {ring.one(): Fraction(1)})

    @classmethod
    def from_monomial(cls, ring: RingSpec, m: Monomial, c: Fraction | int = 1) -> "Polynomial":
        return cls(ring, {m: Fraction(c)})

    @classmethod
    def variable(cls, ring: RingSpec, i: int) -> "Polynomial":
        return cls.from_monomial(ring, ring.variable(i))

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """Terms in descending revlex order."""
        if self._sorted is None:
            ordered = tuple(
                sorted(self._terms.items(), key=lambda t: revlex_key(t[0]), reverse=True)
            )
            object.__setattr__(self, "_sorted", ordered)
        return self._sorted

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def leading_monomial(self) -> Monomial:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return self.terms()[0][0]

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return self.terms()[0][1]

    @property
    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self._terms}
        return len(degs) <= 1

    @property
    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if self.is_zero:
            return None
        return max(m.degree for m in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            s = acc.get(m, Fraction(0)) + c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return Polynomial(self.ring, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                s = acc.get(m, Fraction(0)) + c1 * c2
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return Polynomial(self.ring, acc)

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m: k * c for m, k in self._terms.items()})

    def term_mul(self, m: Monomial, c: Fraction | int = 1) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.ring, {k * m: v * c for k, v in self._terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.ring)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lc = self.leading_coefficient()
        return self.scale(Fraction(1) / lc)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return _signed_sum(((c, "" if m.is_one else str(m)) for m, c in self.terms()), "*")

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_TERM_SPLIT = re.compile(r"(?<![\^*/])\s*([+-])\s*")
_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_COEFF = re.compile(r"^(\d+)(?:/(\d*[1-9]\d*))?$")  # no zero denominator


def parse_polynomial(ring: RingSpec, text: str) -> Polynomial:
    """Parse the textual polynomial grammar, e.g. ``x1*x2*x3 - 1/2*x4^2``.

    Terms are joined by + or -, each term an optional rational coefficient
    followed by x<i>[^e] factors joined by ``*``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    # normalize a leading sign so the splitter sees sign-term pairs
    if s[0] not in "+-":
        s = "+" + s
    pieces = _TERM_SPLIT.split(s)
    # pieces: ['', sign, term, sign, term, ...]
    if pieces[0].strip():
        raise ValueError(f"cannot parse polynomial {text!r}")
    acc: dict[Monomial, Fraction] = {}
    for k in range(1, len(pieces), 2):
        sign = -1 if pieces[k] == "-" else 1
        term = pieces[k + 1].strip()
        if not term:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        exps = [0] * ring.n
        for factor in (f.strip() for f in term.split("*")):
            fm = _FACTOR.match(factor)
            if fm:
                i = int(fm.group(1))
                if not 1 <= i <= ring.n:
                    raise ValueError(f"variable x{i} outside ring with {ring.n} variables")
                exps[i - 1] += int(fm.group(2) or 1)
                continue
            cm = _COEFF.match(factor)
            if cm:
                coeff *= Fraction(int(cm.group(1)), int(cm.group(2) or 1))
                continue
            raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
        m = Monomial(tuple(exps))
        s2 = acc.get(m, Fraction(0)) + coeff
        if s2:
            acc[m] = s2
        else:
            acc.pop(m, None)
    return Polynomial(ring, acc)


# -- exact elimination and change of coordinates ----------------------------------


def _sparse_rank(rows: Iterable[Mapping[int, int]], p: int | None) -> int:
    """Rank over Q (p None) or F_p of sparse rows {column: entry}.

    A row's leading column is its largest.  Each row is reduced against the
    pivot stored for its leading column until it has a new leading column or
    vanishes.  Over Q pivots lead with a positive entry a, and the step is
    r <- a*r - b*pivot followed by division by the content of r, so rows stay
    integral and small; over F_p the pivots are monic and r <- r - b*pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        if p is None:
            row = {c: v for c, v in given.items() if v}
        else:
            row = {c: v % p for c, v in given.items() if v % p}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if p is not None:
                    inv = pow(row[lead], -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                elif row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                pivots[lead] = row
                break
            b = row[lead]
            if p is None:
                a = pivot[lead]
                if a != 1:
                    row = {c: a * v for c, v in row.items()}
                for c, v in pivot.items():
                    x = row.get(c, 0) - b * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
            else:
                for c, v in pivot.items():
                    x = (row.get(c, 0) - b * v) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
    return len(pivots)


class _Packing:
    """Exponent vectors of n variables packed into one int, W bits a field
    and x_n in the top field: key(a) = sum_i a_i << W(i-1).

    Products are sums and quotients differences.  Within one degree a
    smaller key is revlex-greater.  While every exponent is below the limit
    2^(W-1), g divides m exactly when d = m - g is non-negative with no
    field's top (guard) bit set, and the degree of a key is the key mod
    2^W - 1.  W fits the largest degree given, with at least 8 bits."""

    __slots__ = ("n", "width", "field", "limit", "guard")

    def __init__(self, n: int, degree: int):
        self.n = n
        self.width = w = max(8, degree.bit_length() + 1)
        self.field = (1 << w) - 1
        self.limit = 1 << (w - 1)
        self.guard = sum(self.limit << (w * i) for i in range(n))

    def pack(self, e: Exps) -> int:
        w = self.width
        return sum(x << (w * i) for i, x in enumerate(e))

    def unpack(self, key: int) -> Exps:
        w, field = self.width, self.field
        return tuple(key >> (w * i) & field for i in range(self.n))

    def divides(self, g: int, m: int) -> bool:
        """g | m; the engines inline this test in their inner loops."""
        q = m - g
        return q >= 0 and not q & self.guard

    def degree(self, key: int) -> int:
        """Sum of the fields; exact below 2^W - 1, so for any lcm of two
        keys of degree below the limit."""
        return key % self.field

    def lcm(self, a: int, b: int) -> int:
        # with the guard bits set in a, no field of a - b borrows from the
        # next, and field i keeps its guard bit exactly when a_i >= b_i
        keep = ((a | self.guard) - b & self.guard) >> (self.width - 1)
        mask = keep * self.field
        return a & mask | b & ~mask


def _poly_mul(a: Mapping[int, C], b: Mapping[int, C]) -> dict[int, C]:
    """Product of two polynomials on packed keys."""
    out: dict[int, C] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = m1 + m2
            v = out.get(key, 0) + c1 * c2
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def _substitute(
    polys: Sequence[Mapping[int, C]],
    matrix: Sequence[Sequence[C]],
    packing: _Packing,
) -> list[dict[int, C]]:
    """Substitute xi -> sum_j matrix[i][j] * xj in each polynomial on packed
    keys with int or Fraction coefficients; integer input stays integral.
    Degrees are kept, so the output fits the packing the input fits."""
    n = len(matrix)
    w, field = packing.width, packing.field
    images = [{1 << (w * j): c for j, c in enumerate(row) if c} for row in matrix]
    # cache linear-form powers; generators reuse the same images repeatedly
    powers: list[dict[int, dict[int, C]]] = [{0: {0: 1}} for _ in range(n)]

    def power(i: int, e: int) -> dict[int, C]:
        cache = powers[i]
        if e not in cache:
            best = max(k for k in cache if k <= e)
            acc = cache[best]
            for k in range(best + 1, e + 1):
                acc = _poly_mul(acc, images[i])
                cache[k] = acc
        return cache[e]

    out = []
    for p in polys:
        result: dict[int, C] = {}
        for m, c in p.items():
            piece = {0: c}
            for i in range(n):
                e = m >> (w * i) & field
                if e:
                    piece = _poly_mul(piece, power(i, e))
            for key, v in piece.items():
                s = result.get(key, 0) + v
                if s:
                    result[key] = s
                else:
                    del result[key]
        out.append(result)
    return out


def apply_linear_change(f: Polynomial, matrix: Sequence[Sequence[int | Fraction]]) -> Polynomial:
    """Substitute xi -> sum_j matrix[i][j] * xj (rows give variable images).

    The matrix must be square of the ring's size and invertible; a singular
    matrix is rejected. apply(f, g1 @ g2) == apply(apply(f, g1), g2).
    """
    n = f.ring.n
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("change-of-coordinates matrix has wrong shape")
    rows = [[Fraction(x) for x in row] for row in matrix]
    scaled = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scaled.append({c: int(x * den) for c, x in enumerate(row)})
    if _sparse_rank(scaled, None) != n:
        raise ValueError("change-of-coordinates matrix is singular")
    packing = _Packing(n, f.degree or 0)
    packed = {packing.pack(m.exponents): c for m, c in f._terms.items()}
    (moved,) = _substitute([packed], rows, packing)
    return Polynomial(f.ring, {Monomial(packing.unpack(k)): c for k, c in moved.items()})


class UniPoly:
    """Univariate polynomial in t with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        if any(type(x) is not int for x in c):
            raise ValueError(f"UniPoly wants integer coefficients, got {c!r}")
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *_):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def t_power(cls, k: int) -> "UniPoly":
        return cls((0,) * k + (1,))

    @classmethod
    def one_minus_t_power(cls, k: int) -> "UniPoly":
        out = cls.one()
        base = cls((1, -1))
        for _ in range(k):
            out = out * base
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, int):
            return UniPoly(tuple(x * other for x in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UniPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return UniPoly((0,) * k + self.coeffs)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divexact_one_minus_t(self, k: int = 1) -> "UniPoly":
        """Divide by (1-t)^k; raises if the division is not exact."""
        cur = self
        for _ in range(k):
            cur = _divide_one_minus_t(cur)
        return cur

    def taylor_at_one(self) -> "UniPoly":
        """Coefficients of p(1+s) as a polynomial in s (binomial transform)."""
        out = [0] * len(self.coeffs)
        for j, c in enumerate(self.coeffs):
            if c:
                # (1+s)^j
                b = 1
                for k in range(j + 1):
                    out[k] += c * b
                    b = b * (j - k) // (k + 1)
        return UniPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        return _signed_sum((c, _power("t", j)) for j, c in enumerate(self.coeffs) if c)

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def _divide_one_minus_t(p: UniPoly) -> UniPoly:
    """Exact quotient p / (1-t); raises ValueError when p(1) != 0."""
    c = list(p.coeffs)
    if not c:
        return p
    # long division from the top: (1 - t) * q = p
    q = [0] * (len(c) - 1)
    rem = list(c)
    for j in range(len(c) - 1, 0, -1):
        q[j - 1] = -rem[j]
        rem[j] = 0
        rem[j - 1] -= q[j - 1]
    if rem[0] != 0:
        raise ValueError("division by (1-t) is not exact")
    return UniPoly(q)


class HilbertSeries:
    """Rational series numerator / (1-t)^denom_power with integer numerator.

    Equality is by value (cross-multiplied numerators), so a series may be held
    in any equivalent presentation; canonical() strips all (1-t) factors.
    """

    __slots__ = ("numerator", "denom_power")

    def __init__(self, numerator: UniPoly, denom_power: int):
        if require_int(denom_power, "denominator power") < 0:
            raise ValueError("denominator power must be non-negative")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denom_power", 0 if numerator.is_zero else denom_power)

    def __setattr__(self, *_):
        raise AttributeError("HilbertSeries is immutable")

    def canonical(self) -> "HilbertSeries":
        num, k = self.numerator, self.denom_power
        while k > 0 and not num.is_zero and num.evaluate(1) == 0:
            num = _divide_one_minus_t(num)
            k -= 1
        return HilbertSeries(num, k)

    def expand(self, upto: int) -> list[int]:
        """Series coefficients in degrees 0..upto."""
        out = [0] * (upto + 1)
        num = self.numerator
        if self.denom_power == 0:
            for j in range(upto + 1):
                out[j] = num.coeff(j)
            return out
        # repeatedly take partial sums: 1/(1-t)^k
        cur = [num.coeff(j) for j in range(upto + 1)]
        for _ in range(self.denom_power):
            acc = 0
            for j in range(upto + 1):
                acc += cur[j]
                cur[j] = acc
        return cur

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        k = other.denom_power - self.denom_power
        if k < 0:
            return other == self
        if not k:
            return self.numerator == other.numerator
        # only the numerator over the smaller power is multiplied
        return self.numerator * UniPoly.one_minus_t_power(k) == other.numerator

    def __hash__(self) -> int:
        c = self.canonical()
        return hash((c.numerator, c.denom_power))

    def __str__(self) -> str:
        if self.denom_power == 0:
            return str(self.numerator)
        num = str(self.numerator)
        if " " in num:
            num = f"({num})"
        if self.denom_power == 1:
            return f"{num}/(1-t)"
        return f"{num}/(1-t)^{self.denom_power}"

    def __repr__(self) -> str:
        return f"HilbertSeries({self})"

    def to_json(self) -> dict:
        return {
            "numerator": list(self.numerator.coeffs),
            "denom_power": self.denom_power,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "HilbertSeries":
        return cls(
            UniPoly(require_int(c, "numerator coefficient") for c in data["numerator"]),
            data["denom_power"],
        )


class _SparseTable:
    """Immutable sparse integer table (a, b) -> nonzero entry.

    Every index and entry must be an int (require_int, with the labels each
    subclass gives in _WHAT); zero entries are dropped after validation.  _check_index adds a
    subclass's range condition.  The JSON form lists the entries sorted by
    index under the field names _KEYS; each subclass wraps that list in its
    own envelope.
    """

    __slots__ = ("entries",)
    _KEYS = ("i", "j", "value")
    _WHAT: tuple[str, str, str]

    def __init__(self, entries: Mapping[tuple[int, int], int]):
        wa, wb, wv = self._WHAT
        clean: dict[tuple[int, int], int] = {}
        for (a, b), v in entries.items():
            a, b, v = require_int(a, wa), require_int(b, wb), require_int(v, wv)
            self._check_index(a, b)
            if v:
                clean[(a, b)] = v
        object.__setattr__(self, "entries", clean)

    def _check_index(self, a: int, b: int) -> None:
        """Raise ValueError for an index outside the table's range."""

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def value(self, a: int, b: int) -> int:
        return self.entries.get((a, b), 0)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.entries})"

    def _json_entries(self) -> list[dict]:
        ka, kb, kv = self._KEYS
        return [{ka: a, kb: b, kv: v} for (a, b), v in sorted(self.entries.items())]

    @classmethod
    def _parse_entries(cls, rows: Iterable[Mapping]) -> dict[tuple[int, int], int]:
        # validate before hashing: True == 1 and 1.0 == 1 would merge keys unseen
        ka, kb, kv = cls._KEYS
        wa, wb, wv = cls._WHAT
        return {
            (require_int(e[ka], wa), require_int(e[kb], wb)): require_int(e[kv], wv)
            for e in rows
        }

    def to_json(self) -> dict:
        return {"entries": self._json_entries()}

    @classmethod
    def from_json(cls, data: Mapping):
        return cls(cls._parse_entries(data["entries"]))


class BWPolynomial(_SparseTable):
    """Bivariate layer polynomial sum_{i,j} c_{ij} t^j w^i, stored as the
    table (i, j) -> c_{ij}.

    Row i collects the h-polynomial of the i-dimensional layer; the w-degree
    equals the Krull dimension of the algebra the polynomial describes (the
    zero polynomial, from the unit ideal, reports dimension -1).
    """

    __slots__ = ()
    _KEYS = ("i", "j", "c")
    _WHAT = ("layer index", "degree", "coefficient")

    def _check_index(self, i: int, j: int) -> None:
        if i < 0 or j < 0:
            raise ValueError("layer and degree indices must be non-negative")

    @classmethod
    def from_rows(cls, rows: Mapping[int, UniPoly]) -> "BWPolynomial":
        return cls({(i, j): c for i, p in rows.items() for j, c in enumerate(p.coeffs)})

    @classmethod
    def zero(cls) -> "BWPolynomial":
        return cls({})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def w_degree(self) -> int:
        """Largest layer index with a nonzero row; -1 for the zero polynomial."""
        return max((i for i, _ in self.entries), default=-1)

    def t_degree(self) -> int:
        return max((j for _, j in self.entries), default=-1)

    def row(self, i: int) -> UniPoly:
        top = max((j for (k, j) in self.entries if k == i), default=-1)
        return UniPoly(self.value(i, j) for j in range(top + 1))

    def rows(self) -> dict[int, UniPoly]:
        return {i: self.row(i) for i in sorted({k for k, _ in self.entries})}

    def specialize(self) -> HilbertSeries:
        """Substitute w = 1/(1-t), returning the canonical Hilbert series."""
        if self.is_zero:
            return HilbertSeries(UniPoly.zero(), 0)
        d = self.w_degree()
        num = UniPoly.zero()
        for i, p in self.rows().items():
            num = num + p * UniPoly.one_minus_t_power(d - i)
        return HilbertSeries(num, d).canonical()

    def __str__(self) -> str:
        return _signed_sum(
            (c, _power("t", j) + _power("w", i)) for (i, j), c in sorted(self.entries.items())
        )

    def __repr__(self) -> str:
        return f"BWPolynomial({self})"

    def to_json(self) -> dict:
        return {"dim": self.w_degree(), "terms": self._json_entries()}

    @classmethod
    def from_json(cls, data: Mapping) -> "BWPolynomial":
        out = cls(cls._parse_entries(data["terms"]))
        if require_int(data["dim"], "dimension") != out.w_degree():
            raise ValueError(f"dim {data['dim']} differs from w-degree {out.w_degree()}")
        return out
