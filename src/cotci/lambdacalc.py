"""Intersection-chain settings and the part of their calculus the engine reads.

A setting records, for a chain of hypersurface slices X_1 ⊇ ... ⊇ X_p inside
P^N cut by degrees e_1..e_p, which symmetric powers of which step's (tilde)
cotangent sheaf are tensored together: level j carries the tuple lambda^j of
symmetric-power exponents attached to X_j (level 0 to the ambient space).

The module is pure combinatorics: a setting's invariants (q, t, ...), its
text form and parser, the simplification step c1/c2 of a non-simple
setting, and the limit setting with its accumulated twist. Everything is
immutable and hashable. The rest of the paper's calculus (pairs, the
successors s1/s2 and h1/h2, the vanishing predicate) is run by no command;
tests/pair_calculus.py keeps it as the reference the limit setting and
twist are checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple


def _nz(t) -> int:
    return sum(1 for v in t if v != 0)


@dataclass(frozen=True)
class LambdaSetting:
    ambient_N: int
    degrees: tuple  # (e_1, ..., e_p)
    tuples: tuple   # (lambda^0, ..., lambda^p), tuples of non-negative ints

    def __post_init__(self):
        p = len(self.degrees)
        if not 0 <= p <= self.ambient_N - 1:
            raise ValueError(f"codim {p} out of range for N={self.ambient_N}")
        if len(self.tuples) != p + 1:
            raise ValueError("need one exponent tuple per level 0..p")
        if any(e <= 0 for e in self.degrees):
            raise ValueError("degrees must be positive")
        if any(v < 0 for t in self.tuples for v in t):
            raise ValueError("exponents must be non-negative")

    @property
    def codim(self) -> int:
        return len(self.degrees)

    @property
    def dim(self) -> int:
        return self.ambient_N - self.codim

    def is_simple(self) -> bool:
        return all(
            v >= j for j in range(1, self.codim + 1) for v in self.tuples[j]
        )

    def total(self) -> int:
        return sum(sum(t) for t in self.tuples)

    def nz(self) -> int:
        return sum(_nz(t) for t in self.tuples)

    def n_value(self) -> int:
        return sum(
            min(j, v) for j in range(1, self.codim + 1) for v in self.tuples[j]
        )

    def q(self) -> int:
        return self.dim - self.n_value()

    def t_bound(self) -> int:
        return self.total() - self.nz()

    def serialize(self) -> str:
        parts = [f"N={self.ambient_N}", "e=" + ",".join(str(e) for e in self.degrees)]
        for j, t in enumerate(self.tuples):
            parts.append(f"L{j}=" + ",".join(str(v) for v in t))
        return "(" + "; ".join(parts) + ")"

    def __str__(self):
        return self.serialize()


_SETTING_KEY = re.compile(r"N|e|L(0|[1-9][0-9]*)")


def parse_setting(text: str) -> LambdaSetting:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError("setting must be wrapped in parentheses")
    fields = {}
    for chunk in body[1:-1].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, val = chunk.partition("=")
        key = key.strip()
        if not _SETTING_KEY.fullmatch(key):
            raise ValueError(f"unknown setting key {key!r}")
        if key in fields:
            raise ValueError(f"setting key {key!r} given twice")
        fields[key] = val.strip()
    if "N" not in fields:
        raise ValueError("missing N")
    N = int(fields["N"])
    degs = tuple(int(x) for x in fields.get("e", "").split(",") if x.strip() != "")
    tuples = []
    for j in range(sum(1 for k in fields if k.startswith("L"))):
        key = f"L{j}"
        if key not in fields:
            raise ValueError(f"missing level {key}")
        raw = fields[key]
        tuples.append(tuple(int(x) for x in raw.split(",") if x.strip() != ""))
    return LambdaSetting(N, degs, tuple(tuples))


# ---------------------------------------------------------------------------
# c-successors (simplification of non-simple settings)


class SimplifyStep(NamedTuple):
    c1: LambdaSetting
    c2: LambdaSetting
    degree: int  # deg' = e_{j0}


def c_step(setting: LambdaSetting) -> SimplifyStep:
    """Move the highest offending exponent down one level.

    c1 moves the entry unchanged (well-defined for any entry value, including
    the trivial exponent 0), c2 moves its decrement and therefore requires
    the entry to be >= 1.
    """
    if setting.is_simple():
        raise ValueError("setting is already simple")
    p = setting.codim
    j0 = max(
        j
        for j in range(1, p + 1)
        if any(v < j for v in setting.tuples[j])
    )
    i0 = next(i for i, v in enumerate(setting.tuples[j0]) if v < j0)
    val = setting.tuples[j0][i0]
    mu = setting.tuples[j0][:i0] + setting.tuples[j0][i0 + 1 :]

    def build(new_val):
        new = list(setting.tuples)
        new[j0 - 1] = setting.tuples[j0 - 1] + (new_val,)
        new[j0] = mu
        return LambdaSetting(setting.ambient_N, setting.degrees, tuple(new))

    one = build(val)
    two = build(val - 1) if val >= 1 else None
    return SimplifyStep(one, two, setting.degrees[j0 - 1])


# ---------------------------------------------------------------------------
# limit setting and accumulated twist


def sigma_lim(setting: LambdaSetting) -> LambdaSetting:
    """Ambient-space limit: concatenate the level-j exponents minus j."""
    if not setting.is_simple():
        raise ValueError("limit setting needs a simple input")
    merged = []
    for j, t in enumerate(setting.tuples):
        merged.extend(v - j for v in t)
    return LambdaSetting(setting.ambient_N, (), (tuple(merged),))


def b_sigma(setting: LambdaSetting) -> int:
    """Total twist accumulated by the inclusion chain down to H^N."""
    if not setting.is_simple():
        raise ValueError("b undefined for non-simple settings")
    p = setting.codim
    m = [len(t) for t in setting.tuples]
    return sum(
        setting.degrees[i - 1] * (1 + sum(m[j] for j in range(i, p + 1)))
        for i in range(1, p + 1)
    )
