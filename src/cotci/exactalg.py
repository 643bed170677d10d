"""Exact sparse linear algebra over Q and prime fields F_p.

Everything here is exact: rationals are `fractions.Fraction`, prime-field
residues are ints in [0, p). The ground field of the geometric engine is Q;
kernel dimensions of matrices with rational entries agree over Q and over any
extension field (C included), which is why rational arithmetic suffices for
the cohomology computations downstream. F_p is used for finite-field scanning,
for fast cross-checks and to propose span-membership coefficients that an
exact integer identity then proves.

All elimination (echelon form, back-reduction, span membership, rank) goes
through one sparse row update, `_clear`, which clears one column of a row
with a pivot row, in place. Its invariants:

- over Q, every row is a vector of coprime integers: rows are cleared to
  integers once, each update is the two-term integer combination
  a*row - b*prow, and the content is stripped after it;
- over F_p, every pivot row is monic, so an update is row -= row[col]*prow
  and no inverse is taken past the choice of the pivot;
- only the pivot row's columns can enter or leave a row's support, so the
  column index of the elimination is kept in step by visiting those alone.

Pivot rows are chosen by sparsity. The updates act on fresh working rows, so
all public operations are pure; inputs are never mutated. Over Q, kernel
vectors and their combinations are primitive integer vectors too; only the
canonical reduced form of `rref_vectors` creates Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, isqrt


class FieldMismatchError(ValueError):
    pass


class DimensionError(ValueError):
    pass


class RationalField:
    """The rationals; elements are ints or fractions.Fraction in lowest terms.
    Its characteristic `p` is 0, so `field.p` tells Q (0) from F_p (p)."""

    p = 0

    def normalize(self, x):
        """An int for an integral value, a Fraction otherwise."""
        if type(x) is int:
            return x
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Residues mod a prime p, stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def normalize(self, x):
        # `type(x) is int` first: the ABC check against Fraction is slow
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            num, den = x.numerator % self.p, x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return num * pow(den, -1, self.p) % self.p
        return x % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def _check_same_field(a, b):
    if a != b:
        raise FieldMismatchError(f"mixed fields: {a!r} vs {b!r}")


class SparseMatrix:
    """Immutable-by-convention sparse matrix; absent entries are zero.

    The constructor normalizes every entry into the field, drops zeros and
    rejects a key outside the shape. `_adopt` takes an entries dict as it is,
    with none of that; its only callers are `cech.MapRule.assemble` and
    `apply_to_basis`, whose entries are by construction nonzero field
    elements at keys inside the shape (over Q ints or Fractions, over F_p
    residues in [0, p)). Adopting the dict keeps its key tuples, which the
    cech shift tables share between matrices.
    """

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, nrows: int, ncols: int, entries=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                v = field.normalize(v)
                if v != 0:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise DimensionError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                    self.entries[(r, c)] = v

    @classmethod
    def _adopt(cls, field, nrows: int, ncols: int, entries: dict):
        """The matrix with this entries dict itself: no copy and no checks."""
        matrix = cls.__new__(cls)
        matrix.field = field
        matrix.nrows = nrows
        matrix.ncols = ncols
        matrix.entries = entries
        return matrix

    @classmethod
    def from_rows(cls, field, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ent = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    ent[(r, c)] = v
        return cls(field, nrows, ncols, ent)

    def row_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def col_lists(self):
        """Column index {c: [(r, v), ...]} over the nonzero columns, O(nnz)."""
        cols = {}
        for (r, c), v in self.entries.items():
            cols.setdefault(c, []).append((r, v))
        return cols

    def nnz(self):
        return len(self.entries)

    def __repr__(self):
        return f"SparseMatrix({self.field!r}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"


@dataclass
class SubspaceBasis:
    """A list of linearly independent sparse vectors in a fixed ambient space."""

    field: object
    ambient_dim: int
    vectors: list = dc_field(default_factory=list)

    @property
    def dim(self):
        return len(self.vectors)


# ---------------------------------------------------------------------------
# elimination core


def _strip_content(row: dict) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _field_row(field, vec: dict) -> dict:
    """A fresh elimination row for a sparse vector: coprime integers over Q,
    nonzero residues in [0, p) over F_p."""
    p = field.p
    if p:
        return {c: v % p for c, v in vec.items() if v % p}
    lcm = 1
    for v in vec.values():
        if type(v) is not int and isinstance(v, Fraction):
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
    row = {}
    for c, v in vec.items():
        w = v * lcm if type(v) is int else int(v * lcm)
        if w:
            row[c] = w
    _strip_content(row)
    return row


def _clear(row: dict, col, prow: dict, p: int, index=None, key=None) -> None:
    """Clear column `col` of `row` in place with the pivot row `prow`.

    Over F_p (p > 0) `prow` is monic and the update is row -= row[col]*prow.
    Over Q (p == 0) it is the two-term integer combination a*row - b*prow
    with a/b = prow[col]/row[col] in lowest terms, followed by content
    stripping. Only the columns of `prow` can enter or leave the support of
    `row`; `index` ({column: set of row keys}), when given, is kept in step
    for the row `key` by visiting just those columns.
    """
    f = row[col]
    if p:
        b = f
    else:
        g = gcd(prow[col], f)
        a, b = prow[col] // g, f // g
        if a != 1:
            for c in row:
                row[c] *= a
    for c, v in prow.items():
        if c in row:
            w = (row[c] - b * v) % p if p else row[c] - b * v
            if w:
                row[c] = w
            else:
                del row[c]
                if index is not None:
                    index[c].discard(key)
        else:
            row[c] = -b * v % p if p else -b * v
            if index is not None:
                index.setdefault(c, set()).add(key)
    if not p:
        _strip_content(row)


def _eliminate(rows, ncols, field, reduce=True):
    """In-place row echelon with leftmost pivot columns and sparsest-row pivots.

    Returns the pivot list [(col, row_index), ...] in column order. Over F_p
    the pivot rows are made monic. With reduce=True pivot columns are cleared
    from the other pivot rows as well, so the pivot rows form a (scaled)
    reduced echelon system. The result is the canonical RREF profile: pivot
    columns are the leftmost independent ones regardless of the pivot-row
    choice.
    """
    p = field.p
    colrows = {}
    for i, row in enumerate(rows):
        for c in row:
            colrows.setdefault(c, set()).add(i)
    pivots = []
    for col in range(ncols):
        cand = colrows.get(col)
        if not cand:
            continue
        r = min(cand, key=lambda i: (len(rows[i]), i))
        pivots.append((col, r))
        prow = rows[r]
        for c in prow:
            colrows[c].discard(r)
        if p and prow[col] != 1:
            inv = pow(prow[col], -1, p)
            for c in prow:
                prow[c] = prow[c] * inv % p
        for t in list(cand):
            _clear(rows[t], col, prow, p, colrows, t)
    if reduce:
        colpiv = {}
        for _, r in pivots:
            for c in rows[r]:
                colpiv.setdefault(c, set()).add(r)
        for col, r in reversed(pivots):
            for t in list(colpiv[col]):
                if t != r:
                    _clear(rows[t], col, rows[r], p, colpiv, t)
    return pivots


def rank(matrix: SparseMatrix) -> int:
    """Rank over the matrix's field."""
    rows = [_field_row(matrix.field, r) for r in matrix.row_dicts()]
    return len(_eliminate(rows, matrix.ncols, matrix.field, reduce=False))


def kernel_basis(matrix: SparseMatrix) -> SubspaceBasis:
    """Basis of the right kernel {v : Mv = 0}, dim = ncols - rank.

    The returned vectors are the canonical special solutions read off the
    reduced echelon form: vector k is 0 at every free column but its own, so
    the basis is reproducible bit-for-bit and already in reduced form over
    the free coordinates. Over F_p vector k has coordinate 1 at its free
    column. Over Q it is the special solution scaled to a primitive integer
    vector, positive at its free column f: the pivot row r with lead l_r and
    entry w_rf at f gives the special solution -w_rf/l_r at its pivot, so f
    carries L_f, the lcm of the reduced denominators l_r/gcd(w_rf, l_r), and
    each pivot -w_rf*L_f/l_r. The vector has content 1 as it stands: for a
    prime power q^k exactly dividing L_f, some reduced denominator is
    exactly divisible by q^k too, and q then divides neither L_f over it
    nor the reduced numerator w_rf/gcd(w_rf, l_r) at that pivot.

    A one-entry row in column c puts e_c in the row space (stored entries
    are nonzero): c is a pivot column with reduced row e_c, and every kernel
    vector is 0 there. Such rows are settled in one pass over the entries,
    the singleton step of structured Gaussian elimination; only the other
    rows, without the settled columns, go through `_eliminate`, and a row
    left empty is dependent. The cost is linear in nnz for the one-entry
    rows, plus the elimination of the rest and one walk over its reduced
    pivot rows (two over Q, the first for the scales L_f), which hold their
    pivot column and free columns only.
    """
    # per row: its one column, -1 when it has none, -2 when it has several
    single = [-1] * matrix.nrows
    for r, c in matrix.entries:
        single[r] = c if single[r] == -1 else -2
    settled = {c for c in single if c >= 0}
    rest = {}
    for (r, c), v in matrix.entries.items():
        if single[r] == -2 and c not in settled:
            rest.setdefault(r, {})[c] = v
    rows = [_field_row(matrix.field, rest[r]) for r in sorted(rest)]
    pivots = _eliminate(rows, matrix.ncols, matrix.field, reduce=True)
    pivot_cols = settled.union(c for c, _ in pivots)
    p = matrix.field.p
    scale = {f: 1 for f in range(matrix.ncols) if f not in pivot_cols}
    if not p:
        for c, r in pivots:
            lead = abs(rows[r][c])
            for f, w in rows[r].items():
                s = scale.get(f)
                if s is not None:
                    d = lead // gcd(w, lead)
                    if s % d:
                        scale[f] = s // gcd(s, d) * d
    by_free = {f: {f: s} for f, s in scale.items()}
    for c, r in pivots:
        lead = rows[r][c]
        for f, w in rows[r].items():
            vec = by_free.get(f)
            if vec is not None:
                vec[c] = -w % p if p else -w * vec[f] // lead
    return SubspaceBasis(matrix.field, matrix.ncols, list(by_free.values()))


def rref_vectors(field, ambient_dim, vectors) -> list:
    """Canonical reduced row echelon form of the span of the given vectors.

    Unique for the subspace: leftmost pivot columns, leading coefficient 1,
    pivot columns cleared elsewhere, rows ordered by pivot column.
    """
    rows = [_field_row(field, v) for v in vectors]
    pivots = _eliminate(rows, ambient_dim, field, reduce=True)
    if field.p:
        return [rows[r] for _, r in pivots]
    return [{k: Fraction(v, rows[r][c]) for k, v in rows[r].items()} for c, r in pivots]


def apply_to_basis(matrix: SparseMatrix, basis: SubspaceBasis) -> SparseMatrix:
    """Matrix whose columns are M b_j for the basis vectors b_j.

    The way to apply one matrix to many vectors: the column index is built
    once, in O(nnz), and each product touches only its vector's columns."""
    _check_same_field(matrix.field, basis.field)
    if matrix.ncols != basis.ambient_dim:
        raise DimensionError("matrix/basis dimension mismatch")
    cols = matrix.col_lists()
    p = matrix.field.p
    ent = {}
    for j, vec in enumerate(basis.vectors):
        img = {}
        for c, x in vec.items():
            if x == 0:
                continue
            for r, v in cols.get(c, ()):
                w = img.get(r, 0) + v * x
                if w:
                    img[r] = w
                else:
                    img.pop(r, None)
        if p:
            img = {r: v % p for r, v in img.items() if v % p}
        for r, v in img.items():
            ent[(r, j)] = v
    return SparseMatrix._adopt(matrix.field, matrix.nrows, basis.dim, ent)


def combine_basis(basis: SubspaceBasis, coeffs: SubspaceBasis) -> SubspaceBasis:
    """New basis {sum_j x_j b_j : x in coeffs} in the ambient of `basis`.

    Over Q both bases hold integer vectors, as `kernel_basis` returns them,
    and each combination is divided by its content: the result spans the
    same space with primitive integer vectors."""
    _check_same_field(basis.field, coeffs.field)
    if coeffs.ambient_dim != basis.dim:
        raise DimensionError("coefficient length mismatch")
    p = basis.field.p
    vectors = []
    for x in coeffs.vectors:
        vec = {}
        for j, coeff in x.items():
            for coord, v in basis.vectors[j].items():
                w = vec.get(coord, 0) + coeff * v
                if w:
                    vec[coord] = w
                else:
                    vec.pop(coord, None)
        if p:
            vec = {c: v % p for c, v in vec.items() if v % p}
        else:
            _strip_content(vec)
        vectors.append(vec)
    return SubspaceBasis(basis.field, basis.ambient_dim, vectors)


# The prime of the modular membership solve, and the bound on the numerators
# and denominators it reconstructs; 2 * _RECON_BOUND**2 < _SPAN_PRIME makes a
# reconstruction unique.
_SPAN_PRIME = 2**61 - 1
_RECON_BOUND = isqrt(_SPAN_PRIME // 2)


def _reconstruct(u: int, p: int, bound: int):
    """The fraction (n, d) with n = u d mod p, |n| <= bound and 0 < d <= bound,
    or None when there is none (Wang's half-extended Euclid)."""
    r0, r1, t0, t1 = p, u % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


class SpanReducer:
    """Echelonize a fixed generating set once, then test membership of many
    query vectors against the span by reduction. Exact over Q or F_p.

    Over Q a query is first reduced mod the prime _SPAN_PRIME, against monic
    copies of the echelon rows R_k. The multipliers of that reduction are
    lifted to rationals x_k, and the query is a member if the exact integer
    identity D*query = sum_k (D x_k) R_k holds, D the lcm of the
    denominators. F_p only proposes the coefficients; the identity proves
    them. When any step fails, the rational reduction runs as it would
    without this path, so `reduce` returns the same residual either way."""

    def __init__(self, field, ncols, generators):
        self.field = field
        self.ncols = ncols
        self._rows = [_field_row(field, g) for g in generators]
        self._pivots = _eliminate(self._rows, ncols, field, reduce=False)
        if not field.p:
            # per pivot: the inverse of its lead and the monic row mod P, or
            # None when P divides the lead
            P = _SPAN_PRIME
            self._modp = []
            for col, r in self._pivots:
                row = self._rows[r]
                if row[col] % P:
                    inv = pow(row[col], -1, P)
                    self._modp.append((inv, {c: v * inv % P for c, v in row.items()}))
                else:
                    self._modp.append(None)

    def _certified_member(self, cur: dict) -> bool:
        """Whether the integer row cur is proven to lie in the span over Q.
        False means only that no proof was found."""
        P = _SPAN_PRIME
        res = {c: v % P for c, v in cur.items() if v % P}
        coeffs = []
        for (col, r), modp in zip(self._pivots, self._modp):
            f = res.get(col)
            if f is None:
                continue
            if modp is None:
                return False
            inv, mrow = modp
            x = _reconstruct(f * inv, P, _RECON_BOUND)
            if x is None:
                return False
            coeffs.append((r, x))
            _clear(res, col, mrow, P)
        if res:
            return False
        D = 1
        for _, (_, d) in coeffs:
            D = D // gcd(D, d) * d
        total = {}
        for r, (n, d) in coeffs:
            m = n * (D // d)
            for c, v in self._rows[r].items():
                total[c] = total.get(c, 0) + m * v
        return {c: v for c, v in total.items() if v} == {c: D * v for c, v in cur.items()}

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after reduction against the echelon rows."""
        p = self.field.p
        cur = _field_row(self.field, vec)
        if not p and cur and self._certified_member(cur):
            return {}
        for col, r in self._pivots:
            if col in cur:
                _clear(cur, col, self._rows[r], p)
        return cur

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)
