"""Sparse homogeneous polynomial arithmetic in Z_0..Z_N over exact coefficients.

Monomials are exponent tuples of length nvars; coefficients are ints or
Fractions, never stored when zero. Terms iterate in graded reverse
lexicographic order so printing and hashing are deterministic.

Text format (shared with the CLI): exact fraction coefficients and caret
powers, e.g. "3/2*Z0^2*Z1 - Z2^3". Affine polynomials use z1..zN.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactalg import QQ, SparseMatrix, rank
from .rng import SplitMix64


def grevlex_key(exponents):
    """Sort key putting same-degree monomials in graded reverse-lex order."""
    return (-sum(exponents),) + tuple(reversed(exponents))


def mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mi_weight(a):
    return sum(a)


def compositions(total, parts):
    """All exponent tuples of the given length summing to total, in grevlex
    order: ascending in the last coordinate, then in the one before it, and
    so on."""
    if parts == 0:
        return [()] if total == 0 else []
    if total < 0:
        return []

    def extend(t):
        # the compositions of t with one more part `last`, outermost
        return [head + (last,) for last in range(t + 1) for head in by_total[t - last]]

    # by_total[t]: the compositions of t into the parts placed so far
    by_total = [[(t,)] for t in range(total + 1)]
    for _ in range(parts - 2):
        by_total = [extend(t) for t in range(total + 1)]
    return extend(total) if parts > 1 else by_total[total]


class _PolyBase:
    """Shared term-table mechanics for homogeneous and affine polynomials."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {}
        for mono, coeff in terms.items():
            if coeff:
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity")
                self.terms[mono] = coeff

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.nvars, frozenset(self.terms.items())))

    def _combine(self, other, sign):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            w = terms.get(m, 0) + sign * c
            if w:
                terms[m] = w
            else:
                terms.pop(m, None)
        return terms

    def _product_terms(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mi_add(m1, m2)
                w = out.get(m, 0) + c1 * c2
                if w:
                    out[m] = w
                else:
                    out.pop(m, None)
        return out

    def scaled(self, scalar):
        if not scalar:
            return type(self)(self.nvars, {})
        return type(self)(self.nvars, {m: c * scalar for m, c in self.terms.items()})

    def evaluate(self, values, field=None):
        """Evaluate at a point (sequence of nvars values), optionally in a field."""
        total = 0
        for mono, coeff in self.terms.items():
            v = coeff
            for x, e in zip(values, mono):
                if e:
                    v *= x**e
            total += v
        return field.normalize(total) if field is not None else total


class HomogPoly(_PolyBase):
    """Homogeneous polynomial; every stored term has the same weight."""

    __slots__ = ("degree",)

    def __init__(self, nvars, terms, degree=None):
        super().__init__(nvars, terms)
        if self.terms:
            weights = {mi_weight(m) for m in self.terms}
            if len(weights) != 1:
                lo, hi = min(weights), max(weights)
                raise ValueError(f"inhomogeneous terms: degrees {lo} and {hi}")
            self.degree = weights.pop()
            if degree is not None and degree != self.degree:
                raise ValueError(f"declared degree {degree} != actual {self.degree}")
        else:
            self.degree = degree if degree is not None else 0

    @classmethod
    def zero(cls, nvars, degree=0):
        return cls(nvars, {}, degree)

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, i, power=1):
        mono = tuple(power if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def monomial(cls, exponents, coeff=1):
        return cls(len(exponents), {tuple(exponents): coeff})

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch in sum: {self.degree} vs {other.degree}")
        return HomogPoly(self.nvars, self._combine(other, 1), self.degree)

    def __sub__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other.scaled(-1)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch in sum: {self.degree} vs {other.degree}")
        return HomogPoly(self.nvars, self._combine(other, -1), self.degree)

    def __mul__(self, other):
        return HomogPoly(
            self.nvars, self._product_terms(other), self.degree + other.degree
        )

    def partial_derivative(self, i):
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e:
                m = mono[:i] + (e - 1,) + mono[i + 1 :]
                terms[m] = terms.get(m, 0) + coeff * e
        return HomogPoly(self.nvars, terms, max(self.degree - 1, 0))

    def euler_identity_check(self) -> bool:
        """Sum_i Z_i dF/dZ_i == deg(F) * F, exactly; a self-test of derivatives.

        Works on the raw term table (no validating constructors), so a
        corrupted table is reported as False rather than raising.
        """
        acc = {m: c * sum(m) for m, c in self.terms.items() if c * sum(m)}
        target = {m: c * self.degree for m, c in self.terms.items() if c * self.degree}
        return acc == target

    def dehomogenize(self, chart) -> "AffinePoly":
        """Substitute Z_chart = 1, renaming remaining variables in index order."""
        if not 0 <= chart < self.nvars:
            raise ValueError(f"chart {chart} out of range")
        terms = {}
        for mono, coeff in self.terms.items():
            m = mono[:chart] + mono[chart + 1 :]
            terms[m] = terms.get(m, 0) + coeff
        return AffinePoly(self.nvars - 1, terms)

    def divides_into(self, other: "HomogPoly") -> bool:
        """Whether self divides other exactly (single-divisor division algorithm)."""
        if self.is_zero():
            return other.is_zero()
        rem = dict(other.terms)
        lead = min(self.terms, key=grevlex_key)
        lead_c = self.terms[lead]
        while rem:
            m = min(rem, key=grevlex_key)
            q = mi_sub(m, lead)
            if any(e < 0 for e in q):
                return False
            factor = Fraction(rem[m], lead_c)
            for mm, cc in self.terms.items():
                key = mi_add(q, mm)
                w = rem.get(key, 0) - factor * cc
                if w:
                    rem[key] = w
                else:
                    rem.pop(key, None)
        return True

    def to_text(self):
        return _poly_text(self, "Z", offset=0)

    def __repr__(self):
        return f"HomogPoly({self.to_text()!r})"


class AffinePoly(_PolyBase):
    """Polynomial in z_1..z_N, not necessarily homogeneous."""

    __slots__ = ()

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, i, power=1):
        mono = tuple(power if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    def __add__(self, other):
        return AffinePoly(self.nvars, self._combine(other, 1))

    def __sub__(self, other):
        return AffinePoly(self.nvars, self._combine(other, -1))

    def __mul__(self, other):
        return AffinePoly(self.nvars, self._product_terms(other))

    def partial_derivative(self, i):
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e:
                m = mono[:i] + (e - 1,) + mono[i + 1 :]
                terms[m] = terms.get(m, 0) + coeff * e
        return AffinePoly(self.nvars, terms)

    def to_text(self):
        return _poly_text(self, "z", offset=1)

    def __repr__(self):
        return f"AffinePoly({self.to_text()!r})"


# ---------------------------------------------------------------------------
# text format


def _coeff_text(c):
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _poly_text(poly, letter, offset):
    if poly.is_zero():
        return "0"
    parts = []
    for mono, coeff in poly.items():
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"{letter}{i + offset}")
            elif e > 1:
                factors.append(f"{letter}{i + offset}^{e}")
        c = Fraction(coeff)
        body = "*".join(factors)
        if not factors:
            text = _coeff_text(abs(c))
        elif abs(c) == 1:
            text = body
        else:
            text = f"{_coeff_text(abs(c))}*{body}"
        parts.append(("- " if c < 0 else "+ ") + text)
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


class PolyParseError(ValueError):
    def __init__(self, message, line=1, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN = re.compile(r"(?P<num>\d+(?:/\d+)?)|(?P<var>Z\d+)|(?P<op>[-+*^()])")


def parse_poly(text, nvars=None):
    """Parse the package text format into a HomogPoly.

    Variables are Z0..ZN. The variable count is inferred from the highest
    index used unless given.
    """
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolyParseError(f"unexpected character {ch!r}", line, pos - line_start + 1)
        tokens.append((m.lastgroup, m.group(), line, pos - line_start + 1))
        pos = m.end()
    terms = []  # list of (coeff, {varindex: power})
    sign = 1
    current = None

    def flush():
        nonlocal current, sign
        if current is not None:
            terms.append(current)
            current = None
        sign = 1

    i = 0
    max_index = -1
    while i < len(tokens):
        kind, val, ln, col = tokens[i]
        if kind == "op" and val in "+-":
            if current is not None:
                flush()
            if val == "-":
                sign = -sign
            i += 1
            continue
        if kind == "num":
            num, _, den = val.partition("/")
            if den and int(den) == 0:
                raise PolyParseError("zero denominator", ln, col)
            coeff = Fraction(int(num), int(den) if den else 1)
            if current is None:
                current = [sign * coeff, {}]
            else:
                current[0] *= coeff
            i += 1
        elif kind == "var":
            idx = int(val[1:])
            if nvars is not None and idx >= nvars:
                raise PolyParseError(f"variable index exceeds nvars={nvars}", ln, col)
            power = 1
            if i + 2 < len(tokens) and tokens[i + 1][1] == "^" and tokens[i + 1][0] == "op":
                if tokens[i + 2][0] != "num" or "/" in tokens[i + 2][1]:
                    raise PolyParseError("exponent must be an integer", tokens[i + 2][2], tokens[i + 2][3])
                power = int(tokens[i + 2][1])
                i += 2
            if current is None:
                current = [sign * Fraction(1), {}]
            current[1][idx] = current[1].get(idx, 0) + power
            max_index = max(max_index, idx)
            i += 1
        elif kind == "op" and val == "*":
            if current is None:
                raise PolyParseError("dangling '*'", ln, col)
            i += 1
        else:
            raise PolyParseError(f"unexpected token {val!r}", ln, col)
    if current is not None:
        flush()
    if not terms:
        raise PolyParseError("empty polynomial")
    n = nvars if nvars is not None else max_index + 1
    table = {}
    for coeff, powers in terms:
        mono = tuple(powers.get(k, 0) for k in range(n))
        table[mono] = table.get(mono, 0) + coeff
    return HomogPoly(n, table)


# ---------------------------------------------------------------------------
# constructors used by the experiments


def minors_nonzero(rows, up_to):
    """Check that all p x p minors are nonzero for 1 <= p <= up_to.

    Returns (True, None) or (False, (p, row_idxs, col_idxs)) naming the first
    vanishing minor. A minor vanishes exactly when its submatrix has rank < p.
    """
    from itertools import combinations

    nrows = len(rows)
    ncols = len(rows[0])
    for p in range(1, up_to + 1):
        for ri in combinations(range(nrows), p):
            for ci in combinations(range(ncols), p):
                sub = [[rows[r][c] for c in ci] for r in ri]
                if rank(SparseMatrix.from_rows(QQ, sub)) < p:
                    return False, (p, ri, ci)
    return True, None


class MinorVanishingError(ValueError):
    pass


def fermat_generic_system(N, c, e, coeff_rows):
    """Equations F_p = sum_j a_pj Z_j^e from a c x (N+1) coefficient matrix.

    All p x p minors of the matrix must be nonzero for 1 <= p <= c; the
    offending minor is reported otherwise.
    """
    if len(coeff_rows) != c or any(len(r) != N + 1 for r in coeff_rows):
        raise ValueError(f"coefficient matrix must be {c} x {N + 1}")
    ok, witness = minors_nonzero(coeff_rows, c)
    if not ok:
        p, ri, ci = witness
        raise MinorVanishingError(
            f"vanishing {p}x{p} minor at rows {list(ri)}, columns {list(ci)}"
        )
    system = []
    for p in range(c):
        terms = {}
        for j in range(N + 1):
            if coeff_rows[p][j]:
                mono = tuple(e if m == j else 0 for m in range(N + 1))
                terms[mono] = coeff_rows[p][j]
        system.append(HomogPoly(N + 1, terms, e))
    return system


def vandermonde_coeff_rows(N, c):
    """Rows (1, t, t^2, ..., t^N) with t = 1..c: every minor is nonzero."""
    return [[Fraction(t**j) for j in range(N + 1)] for t in range(1, c + 1)]


def deformed_fermat_pair(e, alpha, beta, avec):
    """The degree-e pair (F_alpha, G_beta) in 5 variables with the two
    deformation monomials Z0^e1 Z1^e2 and Z2^e1 Z3^e2, e1 = floor(e/2)."""
    if e < 5:
        raise ValueError("deformation family needs e >= 5")
    if len(avec) != 5 or len(set(avec)) != 5:
        raise ValueError("the five diagonal coefficients must be pairwise distinct")
    e1, e2 = e // 2, e - e // 2
    a1, a2 = alpha
    b1, b2 = beta

    def build(diag, d1, d2):
        terms = {}
        for i in range(5):
            if diag[i]:
                terms[tuple(e if m == i else 0 for m in range(5))] = diag[i]
        if d1:
            terms[(e1, e2, 0, 0, 0)] = d1
        if d2:
            terms[(0, 0, e1, e2, 0)] = d2
        return HomogPoly(5, terms, e)

    return build([1] * 5, a1, a2), build(list(avec), b1, b2)


def random_homog(rng: SplitMix64, nvars, degree, nterms=None):
    """Seeded random homogeneous polynomial with coefficients in {-9..9}\\{0}."""
    monos = compositions(degree, nvars)
    if nterms is None:
        nterms = min(len(monos), max(2, len(monos) // 3))
    chosen = {}
    for _ in range(nterms):
        chosen[monos[rng.randint(0, len(monos) - 1)]] = rng.nonzero_coeff()
    return HomogPoly(nvars, chosen, degree)
