"""Monomial model of top cohomology of twisted tilde-cotangent powers on P^N.

H^N(P^N, Omega~^{(l_1..l_k)}(a)) is spanned by tensors dZ^{J_1} x ... x dZ^{J_k} / Z^I
with |J_j| = l_j, every entry of I at least 1 and |I| = l_1 + ... + l_k - a.
This module enumerates that basis in a canonical order and assembles the three
families of sparse linear maps on it: multiplication by a polynomial,
multiplication by the differential of a polynomial acting on one tensor
factor, and the Euler contraction of one tensor factor.

A product monomial whose denominator exponent drops to 0 or below is the zero
class (it is a coboundary); that truncation rule is applied uniformly and is
validated by the plane-curve identities in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactalg import QQ, SparseMatrix
from .poly import HomogPoly, compositions, grevlex_key, mi_sub

DEFAULT_BASIS_CAP = 5_000_000


class BasisCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class CohomSpace:
    ambient_N: int
    factor_degrees: tuple  # (l_1, ..., l_k), non-negative
    twist: int             # the a in O(a)

    def __post_init__(self):
        if any(l < 0 for l in self.factor_degrees):
            raise ValueError("factor degrees must be non-negative")

    @property
    def k(self):
        return len(self.factor_degrees)

    @property
    def denominator_weight(self):
        return sum(self.factor_degrees) - self.twist

    def dim(self) -> int:
        N = self.ambient_N
        w = self.denominator_weight
        if w < N + 1:
            return 0
        d = comb(w - 1, N)
        for l in self.factor_degrees:
            d *= comb(l + N, N)
        return d

    def is_zero(self) -> bool:
        return self.dim() == 0

    def __str__(self):
        ls = ",".join(str(l) for l in self.factor_degrees)
        return f"H^{self.ambient_N}(Omega~^({ls})({self.twist}))"


def _denominator_exponents(N, weight):
    """All I with N+1 entries >= 1 summing to `weight`, canonical order."""
    inner = compositions(weight - (N + 1), N + 1)
    out = [tuple(v + 1 for v in t) for t in inner]
    out.sort(key=grevlex_key)
    return out


_basis_cache: dict = {}


def basis_enumerate(space: CohomSpace, cap: int = DEFAULT_BASIS_CAP):
    """Ordered basis as tuples (J_1, ..., J_k, I); deterministic order."""
    d = space.dim()
    if d > cap:
        raise BasisCapExceeded(f"basis size {d} exceeds cap {cap}")
    cached = _basis_cache.get(space)
    if cached is not None:
        return cached
    N = space.ambient_N
    if d == 0:
        _basis_cache[space] = []
        return []
    factor_lists = [compositions(l, N + 1) for l in space.factor_degrees]
    denom = _denominator_exponents(N, space.denominator_weight)
    elements = []

    def rec(prefix, idx):
        if idx == len(factor_lists):
            for I in denom:
                elements.append(prefix + (I,))
            return
        for J in factor_lists[idx]:
            rec(prefix + (J,), idx + 1)

    rec((), 0)
    _basis_cache[space] = elements
    return elements


def basis_index(space: CohomSpace, cap: int = DEFAULT_BASIS_CAP) -> dict:
    key = ("index", space)
    cached = _basis_cache.get(key)
    if cached is None:
        cached = {el: i for i, el in enumerate(basis_enumerate(space, cap))}
        _basis_cache[key] = cached
    return cached


@dataclass(frozen=True)
class CohomMap:
    """A sparse matrix together with its source and target spaces."""

    kind: str
    matrix: SparseMatrix
    source: CohomSpace
    target: CohomSpace
    label: str = ""

    def rank_data(self, rank_value=None):
        return {
            "kind": self.kind,
            "label": self.label,
            "source_dim": self.source.dim(),
            "target_dim": self.target.dim(),
            "rank": rank_value,
        }


def _check_poly(space, f: HomogPoly):
    if f.nvars != space.ambient_N + 1:
        raise ValueError(
            f"polynomial in {f.nvars} variables does not match P^{space.ambient_N}"
        )


def mul_poly_matrix(space: CohomSpace, f: HomogPoly, cap=DEFAULT_BASIS_CAP) -> CohomMap:
    """Matrix of multiplication by f into the twist raised by deg f.

    A term 1/Z^{I-M} survives only when every entry of I-M stays >= 1.
    """
    _check_poly(space, f)
    target = CohomSpace(space.ambient_N, space.factor_degrees, space.twist + f.degree)
    source_basis = basis_enumerate(space, cap)
    tindex = basis_index(target, cap)
    entries = {}
    monos = list(f.terms.items())
    for col, el in enumerate(source_basis):
        I = el[-1]
        for M, coeff in monos:
            Inew = mi_sub(I, M)
            if min(Inew) >= 1:
                row = tindex[el[:-1] + (Inew,)]
                key = (row, col)
                w = entries.get(key, 0) + coeff
                if w:
                    entries[key] = w
                else:
                    del entries[key]
    matrix = SparseMatrix(QQ, target.dim(), space.dim(), entries)
    return CohomMap("mulF", matrix, space, target, label=f"*({f.to_text()})"[:60])


def mul_dpoly_matrix(
    space: CohomSpace, f: HomogPoly, factor: int, cap=DEFAULT_BASIS_CAP
) -> CohomMap:
    """Matrix of multiplication by df acting on tensor factor `factor` (1-based).

    df = sum_m (df/dZ_m) dZ_m; each monomial multiplies the denominator and
    appends dZ_m to the chosen factor, with the same truncation rule.
    """
    _check_poly(space, f)
    if not 1 <= factor <= space.k:
        raise ValueError(f"factor index {factor} out of range 1..{space.k}")
    j = factor - 1
    degs = list(space.factor_degrees)
    degs[j] += 1
    target = CohomSpace(space.ambient_N, tuple(degs), space.twist + f.degree)
    source_basis = basis_enumerate(space, cap)
    tindex = basis_index(target, cap)
    partials = []
    for m in range(f.nvars):
        pm = f.partial_derivative(m)
        if not pm.is_zero():
            partials.append((m, list(pm.terms.items())))
    entries = {}
    for col, el in enumerate(source_basis):
        I = el[-1]
        J = el[j]
        for m, monos in partials:
            Jnew = J[:m] + (J[m] + 1,) + J[m + 1 :]
            head = el[:j] + (Jnew,) + el[j + 1 : -1]
            for M, coeff in monos:
                Inew = mi_sub(I, M)
                if min(Inew) >= 1:
                    row = tindex[head + (Inew,)]
                    key = (row, col)
                    w = entries.get(key, 0) + coeff
                    if w:
                        entries[key] = w
                    else:
                        del entries[key]
    matrix = SparseMatrix(QQ, target.dim(), space.dim(), entries)
    return CohomMap(
        "muldF", matrix, space, target, label=f"*d({f.to_text()})@{factor}"[:60]
    )


def euler_contraction_matrix(
    space: CohomSpace, factor: int, cap=DEFAULT_BASIS_CAP
) -> CohomMap:
    """Matrix of the Euler contraction dZ_i -> Z_i on tensor factor `factor`.

    On monomials: dZ^J -> sum_i J_i dZ^{J - delta_i} with denominator I - delta_i,
    zero class when an exponent drops below 1. Surjective onto the target at
    top cohomology, which the tests assert through rank = dim(target).
    """
    if not 1 <= factor <= space.k:
        raise ValueError(f"factor index {factor} out of range 1..{space.k}")
    j = factor - 1
    if space.factor_degrees[j] < 1:
        raise ValueError("cannot contract a degree-0 factor")
    degs = list(space.factor_degrees)
    degs[j] -= 1
    target = CohomSpace(space.ambient_N, tuple(degs), space.twist)
    source_basis = basis_enumerate(space, cap)
    tindex = basis_index(target, cap)
    entries = {}
    for col, el in enumerate(source_basis):
        I = el[-1]
        J = el[j]
        for i, ji in enumerate(J):
            if ji == 0:
                continue
            if I[i] <= 1:
                continue
            Jnew = J[:i] + (ji - 1,) + J[i + 1 :]
            Inew = I[:i] + (I[i] - 1,) + I[i + 1 :]
            row = tindex[el[:j] + (Jnew,) + el[j + 1 : -1] + (Inew,)]
            key = (row, col)
            w = entries.get(key, 0) + ji
            if w:
                entries[key] = w
            else:
                del entries[key]
    matrix = SparseMatrix(QQ, target.dim(), space.dim(), entries)
    return CohomMap("contraction", matrix, space, target, label=f"c_{factor}")


# ---------------------------------------------------------------------------
# classes (sparse vectors over the monomial basis)


class CohomClass:
    """Sparse element of a CohomSpace, keyed by basis tuples."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: CohomSpace, coeffs=None):
        self.space = space
        self.coeffs = {}
        if coeffs:
            for el, c in coeffs.items():
                if not c:
                    continue
                self._validate(el)
                self.coeffs[el] = c

    def _validate(self, el):
        space = self.space
        if len(el) != space.k + 1:
            raise ValueError("element arity does not match the space")
        for J, l in zip(el[:-1], space.factor_degrees):
            if sum(J) != l or len(J) != space.ambient_N + 1:
                raise ValueError(f"factor exponent {J} invalid for degree {l}")
        I = el[-1]
        if (
            len(I) != space.ambient_N + 1
            or min(I) < 1
            or sum(I) != space.denominator_weight
        ):
            raise ValueError(f"denominator exponent {I} not in the space")

    def is_zero(self):
        return not self.coeffs

    def to_vector(self, cap=DEFAULT_BASIS_CAP) -> dict:
        index = basis_index(self.space, cap)
        return {index[el]: c for el, c in self.coeffs.items()}

    def items(self):
        return sorted(
            self.coeffs.items(),
            key=lambda kv: tuple(x for part in kv[0] for x in grevlex_key(part)),
        )

    def to_rows(self):
        return [
            {
                "factors": [list(J) for J in el[:-1]],
                "denominator": list(el[-1]),
                "coefficient": str(Fraction(c)),
            }
            for el, c in self.items()
        ]

    def to_text(self):
        if self.is_zero():
            return "0"
        chunks = []
        for el, c in self.items():
            dzs = "".join(
                "dZ^" + "".join(str(v) for v in J) + " " for J in el[:-1]
            ).strip()
            den = "Z^" + "".join(str(v) for v in el[-1])
            chunks.append(f"{Fraction(c)} * {dzs}/{den}" if dzs else f"{Fraction(c)} * 1/{den}")
        return "  +  ".join(chunks)


def apply_poly(cls: CohomClass, f: HomogPoly) -> CohomClass:
    """Multiplication by f on a single class (no matrix materialized)."""
    _check_poly(cls.space, f)
    target = CohomSpace(
        cls.space.ambient_N, cls.space.factor_degrees, cls.space.twist + f.degree
    )
    out = {}
    for el, c in cls.coeffs.items():
        I = el[-1]
        for M, coeff in f.terms.items():
            Inew = mi_sub(I, M)
            if min(Inew) >= 1:
                key = el[:-1] + (Inew,)
                w = out.get(key, 0) + c * coeff
                if w:
                    out[key] = w
                else:
                    del out[key]
    return CohomClass(target, out)


def apply_dpoly(cls: CohomClass, f: HomogPoly, factor: int) -> CohomClass:
    _check_poly(cls.space, f)
    if not 1 <= factor <= cls.space.k:
        raise ValueError(f"factor index {factor} out of range")
    j = factor - 1
    degs = list(cls.space.factor_degrees)
    degs[j] += 1
    target = CohomSpace(cls.space.ambient_N, tuple(degs), cls.space.twist + f.degree)
    out = {}
    for el, c in cls.coeffs.items():
        I = el[-1]
        J = el[j]
        for m in range(f.nvars):
            pm = f.partial_derivative(m)
            if pm.is_zero():
                continue
            Jnew = J[:m] + (J[m] + 1,) + J[m + 1 :]
            head = el[:j] + (Jnew,) + el[j + 1 : -1]
            for M, coeff in pm.terms.items():
                Inew = mi_sub(I, M)
                if min(Inew) >= 1:
                    key = head + (Inew,)
                    w = out.get(key, 0) + c * coeff
                    if w:
                        out[key] = w
                    else:
                        del out[key]
    return CohomClass(target, out)


def apply_contraction(cls: CohomClass, factor: int) -> CohomClass:
    j = factor - 1
    degs = list(cls.space.factor_degrees)
    if degs[j] < 1:
        raise ValueError("cannot contract a degree-0 factor")
    degs[j] -= 1
    target = CohomSpace(cls.space.ambient_N, tuple(degs), cls.space.twist)
    out = {}
    for el, c in cls.coeffs.items():
        I = el[-1]
        J = el[j]
        for i, ji in enumerate(J):
            if ji == 0 or I[i] <= 1:
                continue
            Jnew = J[:i] + (ji - 1,) + J[i + 1 :]
            Inew = I[:i] + (I[i] - 1,) + I[i + 1 :]
            key = el[:j] + (Jnew,) + el[j + 1 : -1] + (Inew,)
            w = out.get(key, 0) + c * ji
            if w:
                out[key] = w
            else:
                del out[key]
    return CohomClass(target, out)
