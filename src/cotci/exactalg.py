"""Exact sparse linear algebra over Q and prime fields F_p.

Everything here is exact: rationals are `fractions.Fraction`, prime-field
residues are ints in [0, p). The ground field of the geometric engine is Q;
kernel dimensions of matrices with rational entries agree over Q and over any
extension field (C included), which is why rational arithmetic suffices for
the cohomology computations downstream. F_p is used for finite-field scanning
and for fast cross-checks.

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
all public operations are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd


class FieldMismatchError(ValueError):
    pass


class DimensionError(ValueError):
    pass


class RationalField:
    """The rationals; elements are ints or fractions.Fraction in lowest terms."""

    kind = "QQ"

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

    kind = "Fp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def normalize(self, x):
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


def _mul_indexed(cols, vec, field) -> dict:
    """Product of the matrix with column index `cols` and a sparse vector."""
    out = {}
    for c, x in vec.items():
        if x == 0:
            continue
        for r, v in cols.get(c, ()):
            w = out.get(r, 0) + v * x
            if w:
                out[r] = w
            else:
                out.pop(r, None)
    if field.kind == "Fp":
        p = field.p
        out = {r: v % p for r, v in out.items() if v % p}
    return out


class SparseMatrix:
    """Immutable-by-convention sparse matrix; absent entries are zero."""

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

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): 1 for i in range(n)})

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

    def stack(self, other: "SparseMatrix") -> "SparseMatrix":
        """Vertical stack [self; other]."""
        _check_same_field(self.field, other.field)
        if self.ncols != other.ncols:
            raise DimensionError("column mismatch in stack")
        ent = dict(self.entries)
        for (r, c), v in other.entries.items():
            ent[(r + self.nrows, c)] = v
        return SparseMatrix(self.field, self.nrows + other.nrows, self.ncols, ent)

    def mul_vec(self, vec: dict) -> dict:
        """Matrix times one sparse column vector (dict coord -> value).

        One product: building the column index costs O(nnz) per call, so
        apply a matrix to many vectors with `apply_to_basis`."""
        return _mul_indexed(self.col_lists(), vec, self.field)

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
    if field.kind == "Fp":
        p = field.p
        return {c: v % p for c, v in vec.items() if v % p}
    lcm = 1
    for v in vec.values():
        if isinstance(v, Fraction):
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
    row = {}
    for c, v in vec.items():
        w = int(v * lcm) if isinstance(v, Fraction) else v * lcm
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
    p = field.p if field.kind == "Fp" else 0
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
    reduced echelon form: vector k has coordinate 1 at its own free column
    and 0 at every other free column, so the basis is reproducible
    bit-for-bit and already in reduced form over the free coordinates.

    A reduced pivot row holds its pivot column and free columns only, so the
    vectors are filled in one walk over the pivot rows: past the elimination
    the cost is linear in the nnz of the reduced pivot rows.
    """
    rows = [_field_row(matrix.field, r) for r in matrix.row_dicts()]
    pivots = _eliminate(rows, matrix.ncols, matrix.field, reduce=True)
    pivot_cols = {c for c, _ in pivots}
    p = matrix.field.p if matrix.field.kind == "Fp" else 0
    one = 1 if p else Fraction(1)
    by_free = {f: {f: one} for f in range(matrix.ncols) if f not in pivot_cols}
    for c, r in pivots:
        lead = rows[r][c]
        for f, w in rows[r].items():
            vec = by_free.get(f)
            if vec is not None:
                vec[c] = -w % p if p else Fraction(-w, lead)
    return SubspaceBasis(matrix.field, matrix.ncols, list(by_free.values()))


def rref_vectors(field, ambient_dim, vectors) -> list:
    """Canonical reduced row echelon form of the span of the given vectors.

    Unique for the subspace: leftmost pivot columns, leading coefficient 1,
    pivot columns cleared elsewhere, rows ordered by pivot column.
    """
    rows = [_field_row(field, v) for v in vectors]
    pivots = _eliminate(rows, ambient_dim, field, reduce=True)
    if field.kind == "Fp":
        return [rows[r] for _, r in pivots]
    return [{k: Fraction(v, rows[r][c]) for k, v in rows[r].items()} for c, r in pivots]


def image_basis(matrix: SparseMatrix) -> SubspaceBasis:
    """Canonical basis (RREF) of the column space; dim = rank."""
    cols = [dict() for _ in range(matrix.ncols)]
    for (r, c), v in matrix.entries.items():
        cols[c][r] = v
    vecs = rref_vectors(matrix.field, matrix.nrows, [c for c in cols if c])
    return SubspaceBasis(matrix.field, matrix.nrows, vecs)


def intersect_subspaces(spaces) -> SubspaceBasis:
    """Intersection of subspaces, via the kernel of the stacked membership system.

    Solves B_1 x_1 = B_i x_i for all i simultaneously in one elimination pass
    and returns the canonical RREF basis of {B_1 x_1}, so the result depends
    only on the subspaces and not on the input basis choices.
    """
    spaces = list(spaces)
    if not spaces:
        raise DimensionError("empty intersection list")
    field = spaces[0].field
    n = spaces[0].ambient_dim
    for s in spaces[1:]:
        _check_same_field(field, s.field)
        if s.ambient_dim != n:
            raise DimensionError(f"ambient dims differ: {n} vs {s.ambient_dim}")
    if len(spaces) == 1:
        return SubspaceBasis(field, n, rref_vectors(field, n, spaces[0].vectors))
    dims = [s.dim for s in spaces]
    if min(dims) == 0:
        return SubspaceBasis(field, n, [])
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    ent = {}
    k = len(spaces)
    for blk in range(k - 1):
        base = blk * n
        for j, vec in enumerate(spaces[0].vectors):
            for coord, v in vec.items():
                ent[(base + coord, j)] = v
        for j, vec in enumerate(spaces[blk + 1].vectors):
            for coord, v in vec.items():
                ent[(base + coord, offsets[blk + 1] + j)] = -v
    stacked = SparseMatrix(field, (k - 1) * n, offsets[-1], ent)
    ker = kernel_basis(stacked)
    first = spaces[0].vectors
    produced = []
    for x in ker.vectors:
        vec = {}
        for j, coeff in x.items():
            if j >= dims[0]:
                continue
            for coord, v in first[j].items():
                w = vec.get(coord, 0) + coeff * v
                if w:
                    vec[coord] = w
                else:
                    vec.pop(coord, None)
        if field.kind == "Fp":
            p = field.p
            vec = {c: v % p for c, v in vec.items() if v % p}
        if vec:
            produced.append(vec)
    return SubspaceBasis(field, n, rref_vectors(field, n, produced))


def apply_to_basis(matrix: SparseMatrix, basis: SubspaceBasis) -> SparseMatrix:
    """Matrix whose columns are M b_j for the basis vectors b_j.

    The way to apply one matrix to many vectors: the column index is built
    once, in O(nnz), and each product touches only its vector's columns."""
    _check_same_field(matrix.field, basis.field)
    if matrix.ncols != basis.ambient_dim:
        raise DimensionError("matrix/basis dimension mismatch")
    cols = matrix.col_lists()
    ent = {}
    for j, vec in enumerate(basis.vectors):
        img = _mul_indexed(cols, vec, matrix.field)
        for r, v in img.items():
            ent[(r, j)] = v
    return SparseMatrix(matrix.field, matrix.nrows, basis.dim, ent)


def combine_basis(basis: SubspaceBasis, coeffs: SubspaceBasis) -> SubspaceBasis:
    """New basis {sum_j x_j b_j : x in coeffs} in the ambient of `basis`."""
    _check_same_field(basis.field, coeffs.field)
    if coeffs.ambient_dim != basis.dim:
        raise DimensionError("coefficient length mismatch")
    modp = basis.field.kind == "Fp"
    p = basis.field.p if modp else None
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
        if modp:
            vec = {c: v % p for c, v in vec.items() if v % p}
        vectors.append(vec)
    return SubspaceBasis(basis.field, basis.ambient_dim, vectors)


def subspace_dim_of_sum(a: SubspaceBasis, b: SubspaceBasis) -> int:
    """dim(A + B), by one rank computation on stacked generators."""
    _check_same_field(a.field, b.field)
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError("ambient mismatch")
    ent = {}
    for i, vec in enumerate(a.vectors + b.vectors):
        for c, v in vec.items():
            ent[(i, c)] = v
    m = SparseMatrix(a.field, a.dim + b.dim, a.ambient_dim, ent)
    return rank(m)


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Equality as subspaces, tested by mutual containment via ranks."""
    if a.dim != b.dim:
        return False
    return subspace_dim_of_sum(a, b) == a.dim


def contains_vector(basis: SubspaceBasis, vec: dict) -> bool:
    """Whether vec lies in the span of the basis."""
    if not vec:
        return True
    aug = SubspaceBasis(basis.field, basis.ambient_dim, basis.vectors + [dict(vec)])
    ent = {}
    for i, v in enumerate(aug.vectors):
        for c, x in v.items():
            ent[(i, c)] = x
    m = SparseMatrix(basis.field, aug.dim, basis.ambient_dim, ent)
    return rank(m) == basis.dim


class SpanReducer:
    """Echelonize a fixed generating set once, then test membership of many
    query vectors against the span by reduction. Exact over Q or F_p."""

    def __init__(self, field, ncols, generators):
        self.field = field
        self.ncols = ncols
        self._rows = [_field_row(field, g) for g in generators]
        self._pivots = _eliminate(self._rows, ncols, field, reduce=False)

    @property
    def span_rank(self):
        return len(self._pivots)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after reduction against the echelon rows."""
        p = self.field.p if self.field.kind == "Fp" else 0
        cur = _field_row(self.field, vec)
        for col, r in self._pivots:
            if col in cur:
                _clear(cur, col, self._rows[r], p)
        return cur

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)
