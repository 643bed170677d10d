"""Bookkeeping calculus for the intersection-chain settings.

A setting records, for a chain of hypersurface slices X_1 ⊇ ... ⊇ X_p inside
P^N cut by degrees e_1..e_p, which symmetric powers of which step's (tilde)
cotangent sheaf are tensored together: level j carries the tuple lambda^j of
symmetric-power exponents attached to X_j (level 0 to the ambient space).
A pair is an (untilded, tilde) couple of settings over the same chain.

The module is pure combinatorics: invariants (q, i, t, ...), the two
short-exact-sequence successors s1/s2, the exponent-moving successors h1/h2
and c1/c2, the limit setting and its accumulated twist, and the sufficient
vanishing predicate. Everything is immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


def _is_zero_tuple(t) -> bool:
    return all(v == 0 for v in t)


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

    def w_value(self) -> int:
        return sum(j * _nz(self.tuples[j]) for j in range(1, self.codim + 1))

    def q(self) -> int:
        return self.dim - self.n_value()

    def i_counter(self) -> int:
        return self.codim + self.w_value()

    def t_bound(self) -> int:
        return self.total() - self.nz()

    def serialize(self) -> str:
        parts = [f"N={self.ambient_N}", "e=" + ",".join(str(e) for e in self.degrees)]
        for j, t in enumerate(self.tuples):
            parts.append(f"L{j}=" + ",".join(str(v) for v in t))
        return "(" + "; ".join(parts) + ")"

    def __str__(self):
        return self.serialize()


def parse_setting(text: str) -> LambdaSetting:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError("setting must be wrapped in parentheses")
    fields = {}
    order = []
    for chunk in body[1:-1].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, val = chunk.partition("=")
        fields[key.strip()] = val.strip()
        order.append(key.strip())
    if "N" not in fields:
        raise ValueError("missing N")
    N = int(fields["N"])
    degs = tuple(int(x) for x in fields.get("e", "").split(",") if x.strip() != "")
    levels = sorted(k for k in fields if k.startswith("L"))
    tuples = []
    for j in range(len(levels)):
        key = f"L{j}"
        if key not in fields:
            raise ValueError(f"missing level {key}")
        raw = fields[key]
        tuples.append(tuple(int(x) for x in raw.split(",") if x.strip() != ""))
    return LambdaSetting(N, degs, tuple(tuples))


@dataclass(frozen=True)
class LambdaPair:
    left: LambdaSetting   # untilded side
    right: LambdaSetting  # tilde side

    def __post_init__(self):
        if self.left.ambient_N != self.right.ambient_N:
            raise ValueError("ambient mismatch in pair")
        if self.left.degrees != self.right.degrees:
            raise ValueError("pair sides must share the degree chain")

    @property
    def codim(self):
        return self.left.codim

    @property
    def dim(self):
        return self.left.dim

    def is_simple(self):
        return self.left.is_simple() and self.right.is_simple()

    def q(self):
        return self.dim - self.left.n_value() - self.right.n_value()

    def i_counter(self):
        return self.codim + self.left.w_value() + self.right.w_value()

    def t_bound(self):
        # only the untilded side's nonzero count is subtracted
        return self.left.total() + self.right.total() - self.left.nz()

    def serialize(self):
        return self.left.serialize() + " ~ " + self.right.serialize()


def invariants(setting: LambdaSetting) -> dict:
    """All the integer invariants of a setting in one record."""
    return {
        "q": setting.q(),
        "i": setting.i_counter(),
        "t": setting.t_bound(),
        "total": setting.total(),
        "nz": setting.nz(),
        "w": setting.w_value(),
        "nfun": setting.n_value(),
    }


# ---------------------------------------------------------------------------
# degree selectors


def deg_of(setting: LambdaSetting) -> int:
    """Degree consumed by one successor step: e_{j0} for the lowest active
    level, e_p when all levels above 0 are zero."""
    p = setting.codim
    if p < 1:
        raise ValueError("degree undefined at codimension 0")
    for j in range(1, p + 1):
        if not _is_zero_tuple(setting.tuples[j]):
            return setting.degrees[j - 1]
    return setting.degrees[p - 1]


def deg_of_pair(pair: LambdaPair) -> int:
    p = pair.codim
    if p < 1:
        raise ValueError("degree undefined at codimension 0")
    for j in range(1, p + 1):
        if not _is_zero_tuple(pair.left.tuples[j]) or not _is_zero_tuple(
            pair.right.tuples[j]
        ):
            return pair.left.degrees[j - 1]
    return pair.left.degrees[p - 1]


# ---------------------------------------------------------------------------
# s-successors (restriction / conormal exact sequences)


class SuccessorStep(NamedTuple):
    s1: object
    s2: object
    tag: str      # restriction | tilde-conormal | conormal
    degree: int   # twist consumed by the s2 slot


def _split_tuples(tuples, j0, i0, decrement):
    """Move entry i0 of level j0 down one level, per the successor recipe.

    Levels 1..j0-2 are zeroed (they are all-zero already), the moved entry
    lands at level j0-1 (merged into level 0 when j0 = 1), the remainder of
    level j0 stays at level j0.
    """
    lam = tuples[j0]
    val = lam[i0] - (1 if decrement else 0)
    tail = lam[i0 + 1 :]
    new = list(tuples)
    if j0 == 1:
        new[0] = tuples[0] + (val,)
    else:
        for m in range(1, j0 - 1):
            new[m] = ()
        new[j0 - 1] = (val,)
    new[j0] = tail
    return tuple(new)


def s_step(setting: LambdaSetting) -> SuccessorStep:
    p = setting.codim
    if p < 1:
        raise ValueError("successors need codimension >= 1")
    degree = deg_of(setting)
    j0 = None
    for j in range(1, p + 1):
        if not _is_zero_tuple(setting.tuples[j]):
            j0 = j
            break
    if j0 is None:
        dropped = LambdaSetting(
            setting.ambient_N, setting.degrees[:-1], setting.tuples[:-1]
        )
        return SuccessorStep(dropped, dropped, "restriction", degree)
    i0 = next(i for i, v in enumerate(setting.tuples[j0]) if v != 0)
    one = LambdaSetting(
        setting.ambient_N, setting.degrees, _split_tuples(setting.tuples, j0, i0, False)
    )
    two = LambdaSetting(
        setting.ambient_N, setting.degrees, _split_tuples(setting.tuples, j0, i0, True)
    )
    return SuccessorStep(one, two, "tilde-conormal", degree)


def s1(setting: LambdaSetting) -> LambdaSetting:
    return s_step(setting).s1


def s2(setting: LambdaSetting) -> LambdaSetting:
    return s_step(setting).s2


def s_step_pair(pair: LambdaPair) -> SuccessorStep:
    p = pair.codim
    if p < 1:
        raise ValueError("successors need codimension >= 1")
    degree = deg_of_pair(pair)
    j0 = None
    for j in range(1, p + 1):
        if not _is_zero_tuple(pair.left.tuples[j]) or not _is_zero_tuple(
            pair.right.tuples[j]
        ):
            j0 = j
            break
    if j0 is None:
        step_l = s_step(pair.left)
        step_r = s_step(pair.right)
        dropped = LambdaPair(step_l.s2, step_r.s2)
        return SuccessorStep(dropped, dropped, "restriction", degree)
    if not _is_zero_tuple(pair.right.tuples[j0]):
        step = s_step(pair.right)
        return SuccessorStep(
            LambdaPair(pair.left, step.s1),
            LambdaPair(pair.left, step.s2),
            "tilde-conormal",
            degree,
        )
    step = s_step(pair.left)
    return SuccessorStep(
        LambdaPair(step.s1, pair.right),
        LambdaPair(step.s2, pair.right),
        "conormal",
        degree,
    )


# ---------------------------------------------------------------------------
# h-successors (Euler exact sequence on the leading untilded exponent)


class EulerStep(NamedTuple):
    h1: LambdaPair
    h2: LambdaPair
    tag: str
    level: int
    moved: int  # the exponent moved across


def h_step(pair: LambdaPair) -> EulerStep:
    if not pair.is_simple():
        raise ValueError("h-successors need a simple pair")
    if pair.left.nz() == 0:
        raise ValueError("left side has no nonzero exponent to move")
    left, right = pair.left, pair.right
    j0 = next(
        j for j in range(left.codim + 1) if not _is_zero_tuple(left.tuples[j])
    )
    i0 = next(i for i, v in enumerate(left.tuples[j0]) if v != 0)
    val = left.tuples[j0][i0]
    new_left = list(left.tuples)
    for m in range(j0):
        new_left[m] = ()
    new_left[j0] = left.tuples[j0][i0 + 1 :]
    moved_left = LambdaSetting(left.ambient_N, left.degrees, tuple(new_left))
    r1 = list(right.tuples)
    r1[j0] = right.tuples[j0] + (val,)
    r2 = list(right.tuples)
    r2[j0] = right.tuples[j0] + (val - 1,)
    one = LambdaPair(moved_left, LambdaSetting(right.ambient_N, right.degrees, tuple(r1)))
    two = LambdaPair(moved_left, LambdaSetting(right.ambient_N, right.degrees, tuple(r2)))
    return EulerStep(one, two, "euler", j0, val)


def h1(pair: LambdaPair) -> LambdaPair:
    return h_step(pair).h1


def h2(pair: LambdaPair) -> LambdaPair:
    return h_step(pair).h2


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


def c1(setting: LambdaSetting) -> LambdaSetting:
    return c_step(setting).c1


def c2(setting: LambdaSetting) -> LambdaSetting:
    step = c_step(setting)
    if step.c2 is None:
        raise ValueError("c2 needs the offending entry to be >= 1")
    return step.c2


def simplify_chain(setting: LambdaSetting):
    """Iterate c1 to a simple setting; q is preserved at every step."""
    chain = [setting]
    current = setting
    while not current.is_simple():
        current = c_step(current).c1
        chain.append(current)
    return chain


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


# ---------------------------------------------------------------------------
# vanishing predicate


def vanishing_predicate(pair: LambdaPair, j: int, a: int) -> bool:
    """True when the sufficient vanishing hypotheses hold (group is zero);
    False carries no information."""
    return j < pair.q() and a < pair.t_bound()


# ---------------------------------------------------------------------------
# seeded random generators for the property suites


def random_setting(rng, max_N=6, max_codim=4, max_len=3, max_entry=6) -> LambdaSetting:
    N = rng.randint(2, max_N)
    p = rng.randint(0, min(max_codim, N - 1))
    degrees = tuple(rng.randint(1, 7) for _ in range(p))
    tuples = []
    for _ in range(p + 1):
        m = rng.randint(0, max_len)
        tuples.append(tuple(rng.randint(0, max_entry) for _ in range(m)))
    return LambdaSetting(N, degrees, tuple(tuples))


def random_simple_setting(rng, max_N=6, max_codim=4, max_len=3, extra=4) -> LambdaSetting:
    N = rng.randint(2, max_N)
    p = rng.randint(1, min(max_codim, N - 1))
    degrees = tuple(rng.randint(1, 7) for _ in range(p))
    tuples = []
    for j in range(p + 1):
        m = rng.randint(0, max_len)
        tuples.append(tuple(rng.randint(j, j + extra) for _ in range(m)))
    return LambdaSetting(N, degrees, tuple(tuples))


def random_pair(rng, **kw) -> LambdaPair:
    left = random_setting(rng, **kw)
    right_tuples = []
    for j in range(left.codim + 1):
        m = rng.randint(0, 3)
        right_tuples.append(tuple(rng.randint(0, 6) for _ in range(m)))
    right = LambdaSetting(left.ambient_N, left.degrees, tuple(right_tuples))
    return LambdaPair(left, right)


def random_simple_pair(rng, **kw) -> LambdaPair:
    left = random_simple_setting(rng, **kw)
    right_tuples = []
    for j in range(left.codim + 1):
        m = rng.randint(0, 3)
        right_tuples.append(tuple(rng.randint(j, j + 4) for _ in range(m)))
    right = LambdaSetting(left.ambient_N, left.degrees, tuple(right_tuples))
    return LambdaPair(left, right)
