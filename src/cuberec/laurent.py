"""Exact sparse multivariate Laurent-polynomial arithmetic over the integers.

Variables are encoded as plain tuples whose first entry is an integer tag:

    x(i,j,k) -> (0, i, j, k)    lattice-point variables
    a(j,k)   -> (1, j, k)       edge variables, axis a
    b(i,k)   -> (2, i, k)       edge variables, axis b
    c(i,j)   -> (3, i, j)       edge variables, axis c
    alpha    -> (4,)            recurrence coefficients
    beta     -> (5,)
    gamma    -> (6,)
    t        -> (7,)            auxiliary indeterminate
    y(m)     -> (8, m)          one-dimensional sequence terms

Tuple comparison therefore realises the canonical variable order (tag first,
then indices lexicographically).  An exponent map is a tuple of
(variable, exponent) pairs sorted by variable, with no zero exponents; a
polynomial maps exponent tuples to nonzero integer coefficients.  The zero
polynomial is the empty map.  Terms are reported in descending graded
lexicographic order, the same order used by exact division, so serialization
is canonical.

Graded lex order is defined once, by ``_Packing``: over the variables of a
set of terms, each exponent map packs into one int whose fields hold, most
significant first, the total degree and then each variable's exponent.  Every
field has a guard bit on top and is wide enough for the largest degree the
terms reach once shifted to nonnegative exponents, so int order is graded lex
order and a product of monomials is an int sum.  ``canonical_term_order``
sorts by these ints; ``div_exact`` divides over them, keeping the remainder
in a dict keyed by packed monomial with a max-heap of its keys (heap division
after Monagan and Pearce, "Sparse polynomial division using a heap", 2011).

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple

TAG_X, TAG_A, TAG_B, TAG_C, TAG_ALPHA, TAG_BETA, TAG_GAMMA, TAG_T, TAG_Y = range(9)

_TAG_NAMES = ("x", "a", "b", "c", "alpha", "beta", "gamma", "t", "y")
_TAG_BY_NAME = {name: tag for tag, name in enumerate(_TAG_NAMES)}
_TAG_ARITY = (3, 2, 2, 2, 0, 0, 0, 0, 1)

VarKey = tuple
Exps = tuple  # tuple of (VarKey, int) pairs, sorted by variable, no zeros

_exponent = itemgetter(1)


def xvar(i: int, j: int, k: int) -> VarKey:
    return (TAG_X, i, j, k)


def avar(j: int, k: int) -> VarKey:
    return (TAG_A, j, k)


def bvar(i: int, k: int) -> VarKey:
    return (TAG_B, i, k)


def cvar(i: int, j: int) -> VarKey:
    return (TAG_C, i, j)


def yvar(m: int) -> VarKey:
    return (TAG_Y, m)


ALPHA: VarKey = (TAG_ALPHA,)
BETA: VarKey = (TAG_BETA,)
GAMMA: VarKey = (TAG_GAMMA,)
T: VarKey = (TAG_T,)


def var_name(v: VarKey) -> str:
    """Render a variable key to its textual form, e.g. ``x(0,-1,0)``."""
    if len(v) == 1:
        return _TAG_NAMES[v[0]]
    return "%s(%s)" % (_TAG_NAMES[v[0]], ",".join(str(i) for i in v[1:]))


_VAR_RE = re.compile(r"^([a-z]+)(?:\((-?\d+(?:,-?\d+)*)\))?$")


def parse_var(name: str) -> VarKey:
    m = _VAR_RE.match(name.strip())
    if not m or m.group(1) not in _TAG_BY_NAME:
        raise ValueError(f"unrecognized variable {name!r}")
    tag = _TAG_BY_NAME[m.group(1)]
    indices = tuple(int(s) for s in m.group(2).split(",")) if m.group(2) else ()
    if len(indices) != _TAG_ARITY[tag]:
        raise ValueError(f"variable {name!r} has wrong index count")
    return (tag,) + indices


class DivisionByZero(ZeroDivisionError):
    pass


class NonzeroRemainder(ArithmeticError):
    """Exact division left a remainder; the dividend is not a multiple."""


class UnassignedVariable(KeyError):
    pass


class ZeroToNegativePower(ZeroDivisionError):
    pass


# Monotonically increasing count of NonzeroRemainder raises, for stress checks.
nonzero_remainder_count = 0


class Monomial(NamedTuple):
    coeff: int
    exps: Exps

    def __str__(self) -> str:
        if not self.exps:
            return str(self.coeff)
        body = "*".join(
            var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in self.exps
        )
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return "-" + body
        return f"{self.coeff}*{body}"


def exps_from_items(items: Iterable[tuple[VarKey, int]]) -> Exps:
    """Normalize (variable, exponent) pairs: merge, drop zeros, sort."""
    acc: dict[VarKey, int] = {}
    for v, e in items:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e))


def _exps_mul(e1: Exps, e2: Exps) -> Exps:
    # Merge two sorted pair tuples, adding exponents and dropping zeros.
    out = []
    i, j = 0, 0
    n1, n2 = len(e1), len(e2)
    while i < n1 and j < n2:
        v1, x1 = e1[i]
        v2, x2 = e2[j]
        if v1 == v2:
            s = x1 + x2
            if s:
                out.append((v1, s))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(e1[i])
            i += 1
        else:
            out.append(e2[j])
            j += 1
    out.extend(e1[i:])
    out.extend(e2[j:])
    return tuple(out)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, Iterable[tuple[VarKey, int]]]] = ()):
        data: dict[Exps, int] = {}
        for coeff, exps in terms:
            e = exps_from_items(exps)
            data[e] = data.get(e, 0) + coeff
        self._terms = {e: c for e, c in data.items() if c}

    @staticmethod
    def _raw(data: dict[Exps, int]) -> "LaurentPoly":
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = data
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls._raw({(): c} if c else {})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def variable(cls, v: VarKey, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        if coeff == 0:
            return cls.zero()
        if exp == 0:
            return cls.constant(coeff)
        return cls._raw({((v, exp),): coeff})

    @classmethod
    def monomial(cls, coeff: int, exps: Iterable[tuple[VarKey, int]]) -> "LaurentPoly":
        if coeff == 0:
            return cls.zero()
        return cls._raw({exps_from_items(exps): coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficients(self) -> list[int]:
        return [m.coeff for m in self.terms()]

    def variables(self) -> list[VarKey]:
        seen = set()
        for e in self._terms:
            for v, _ in e:
                seen.add(v)
        return sorted(seen)

    def exponent_range(self, tag: int) -> tuple[int, int] | None:
        """Min/max exponent over all stored occurrences of variables with ``tag``."""
        lo, hi = None, None
        for e in self._terms:
            for v, x in e:
                if v[0] == tag:
                    lo = x if lo is None else min(lo, x)
                    hi = x if hi is None else max(hi, x)
        return None if lo is None else (lo, hi)

    def terms(self) -> list[Monomial]:
        """Terms in canonical order: descending graded lex over the variable order."""
        order = canonical_term_order(self._terms.keys())
        return [Monomial(self._terms[e], e) for e in order]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes like it.
        if self._terms.keys() <= {()}:
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[Exps, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = _exps_mul(e1, e2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of general polynomials are not defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(m) for m in self.terms())

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)})"


def _lowest_exponents(pairs: Counter, n_terms: int) -> dict[VarKey, int]:
    """Each variable's least exponent over ``n_terms`` terms, read from the
    counts of their (variable, exponent) pairs; a term without it counts 0."""
    low: dict[VarKey, int] = {}
    seen: dict[VarKey, int] = {}
    for (v, x), count in pairs.items():
        seen[v] = seen.get(v, 0) + count
        if x < low.get(v, x + 1):
            low[v] = x
    return {v: x if seen[v] == n_terms else min(x, 0) for v, x in low.items()}


class _Packing:
    """Graded lex monomials over a set of term lists, packed into ints.

    Every list is shifted by its own lowest exponents (``lows``), so that all
    its exponents are nonnegative.  A shifted term packs into fields of
    ``width`` bits: the total degree on top, then one field per variable in
    variable order.  The top bit of each field is a guard bit, and the bits
    below it hold the largest shifted total degree of any list.  While no
    total degree exceeds that, no field carries into the next: int order is
    graded lex order, a product of monomials is the sum of their keys, and a
    difference of keys has a guard bit set exactly when some field of it went
    negative.
    """

    def __init__(self, groups: list[list[Exps]]):
        pairs = [Counter(chain.from_iterable(keys)) for keys in groups]
        self.lows = [_lowest_exponents(c, len(keys)) for c, keys in zip(pairs, groups)]
        degree = max(
            max(sum(map(_exponent, e)) for e in keys) - sum(low.values())
            for keys, low in zip(groups, self.lows)
        )
        self.variables = sorted(set().union(*self.lows))
        n = len(self.variables)
        self.width = degree.bit_length() + 1
        self.position = {v: self.width * (n - 1 - i) for i, v in enumerate(self.variables)}
        self.guards = sum(1 << (self.width * i + self.width - 1) for i in range(n + 1))
        # A variable's unit exponent adds 1 to its own field and to the total.
        self.weight = {v: (1 << pos) + (1 << self.width * n) for v, pos in self.position.items()}
        self._pair_keys = {
            (v, x): x * self.weight[v] for counts in pairs for v, x in counts
        }

    def key(self, exps: Exps) -> int:
        """The packed unshifted exponents of a term of one of the lists.
        Packing is linear, so this is the shifted key plus a constant: it
        sorts like the shifted keys."""
        return sum(map(self._pair_keys.__getitem__, exps))

    def shifted(self, terms: dict[Exps, int], group: int) -> dict[int, int]:
        """The terms of list ``group`` keyed by their shifted packed exponents."""
        base = sum(x * self.weight[v] for v, x in self.lows[group].items())
        return {self.key(e) - base: c for e, c in terms.items()}

    def unpacker(self, shift: Mapping[VarKey, int]) -> Callable[[int], Exps]:
        """The map from a nonnegative packed key to its exponents plus ``shift``."""
        fields = [(v, pos, shift.get(v, 0)) for v, pos in self.position.items()]
        mask = (1 << (self.width - 1)) - 1

        def unpack(key: int) -> Exps:
            return tuple([(v, x) for v, pos, s in fields if (x := ((key >> pos) & mask) + s)])

        return unpack


def canonical_term_order(exps_keys: Iterable[Exps]) -> list[Exps]:
    """Sort exponent maps in descending graded lexicographic order."""
    keys = list(exps_keys)
    if not keys:
        return keys
    return sorted(keys, key=_Packing([keys]).key, reverse=True)


def div_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact division: the q with q*d == p.

    Both operands are shifted by a monomial so that every variable has minimum
    exponent zero, and their terms are packed as ``_Packing`` describes.  Then
    heap division runs under graded lex: the remainder is a dict from packed
    monomial to coefficient, and a max-heap of its keys gives the leading term
    (a key whose term cancelled stays on the heap and is skipped when popped).
    The divisor's leading monomial divides the remainder's exactly when their
    key difference has no guard bit set.  Each quotient term's products with
    the divisor are int sums of no higher degree than the leading term they
    cancel, and below it in order, so no field overflows and a popped key
    never returns.  The shift is undone on the quotient.  Any nonzero
    remainder (or coefficient non-divisibility) raises NonzeroRemainder.
    """
    global nonzero_remainder_count
    if d.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero()

    packing = _Packing([list(p._terms), list(d._terms)])
    guards = packing.guards
    R = packing.shifted(p._terms, 0)
    (lt_d, c_d), *rest = sorted(packing.shifted(d._terms, 1).items(), reverse=True)
    heap = [-k for k in R]
    heapq.heapify(heap)
    Q: dict[int, int] = {}
    while heap:
        lt_r = -heapq.heappop(heap)
        c_r = R.pop(lt_r, 0)
        if not c_r:
            continue
        mono = lt_r - lt_d
        if mono & guards or c_r % c_d != 0:
            nonzero_remainder_count += 1
            raise NonzeroRemainder(
                "dividend is not an exact multiple (stuck at term "
                f"{Monomial(c_r, packing.unpacker(packing.lows[0])(lt_r))})"
            )
        cq = c_r // c_d
        Q[mono] = cq
        for vec, c in rest:
            w = mono + vec
            s = R.get(w)
            if s is None:
                R[w] = -cq * c
                heapq.heappush(heap, -w)
            elif s != cq * c:
                R[w] = s - cq * c
            else:
                del R[w]

    low_p, low_d = packing.lows
    unpack = packing.unpacker({v: low_p.get(v, 0) - low_d.get(v, 0) for v in packing.variables})
    return LaurentPoly._raw({unpack(k): c for k, c in Q.items()})


def substitute(p: LaurentPoly, v: VarKey, value: "LaurentPoly | int") -> LaurentPoly:
    """Replace every occurrence of ``v`` in ``p`` by ``value``, any Laurent polynomial.

    With p the sum of part_e * v**e over the exponents e of v, the result is
    the sum of part_e * value**e.  Negative exponents are cleared by
    multiplying through by value**shift, where -shift is the least e, and
    divided out once at the end with div_exact.  A result that is not a
    Laurent polynomial raises NonzeroRemainder; a zero value under a negative
    exponent raises DivisionByZero.
    """
    if isinstance(value, int):
        value = LaurentPoly.constant(value)
    groups: dict[int, dict[Exps, int]] = {}
    for e, c in p._terms.items():
        exp = 0
        rest = []
        for var, x in e:
            if var == v:
                exp = x
            else:
                rest.append((var, x))
        groups.setdefault(exp, {})[tuple(rest)] = c
    shift = max(0, -min(groups, default=0))
    # One summand per exponent of v, a handful, so summing them copies each
    # term a bounded number of times.
    assembled = sum(
        (LaurentPoly._raw(part) * value ** (e + shift) for e, part in groups.items()),
        LaurentPoly.zero(),
    )
    return div_exact(assembled, value**shift) if shift else assembled


def evaluate(p: LaurentPoly, assign: Mapping[VarKey, "Fraction | int"]) -> Fraction:
    """Evaluate exactly at a rational point.

    Zero values are only allowed for variables appearing with nonnegative
    exponents; every variable of p must be assigned.
    """
    total = Fraction(0)
    for e, c in p._terms.items():
        val = Fraction(c)
        for v, x in e:
            if v not in assign:
                raise UnassignedVariable(var_name(v))
            base = Fraction(assign[v])
            if base == 0 and x < 0:
                raise ZeroToNegativePower(var_name(v))
            val *= base**x
        total += val
    return total


def rename_variables(p: LaurentPoly, mapping: Mapping[VarKey, VarKey]) -> LaurentPoly:
    """Rename variables (possibly merging several into one), collecting terms."""
    return LaurentPoly((c, [(mapping.get(v, v), x) for v, x in e]) for e, c in p._terms.items())


def drop_variables(p: LaurentPoly, tags: Iterable[int]) -> LaurentPoly:
    """Erase all variables with the given tags (set them to 1), collecting terms."""
    tagset = frozenset(tags)
    return LaurentPoly(
        (c, [(v, x) for v, x in e if v[0] not in tagset]) for e, c in p._terms.items()
    )


def to_json(p: LaurentPoly) -> dict:
    """Canonical JSON form: terms in canonical order, coefficients as strings."""
    return {
        "terms": [
            {"coeff": str(m.coeff), "exps": {var_name(v): e for v, e in m.exps}}
            for m in p.terms()
        ]
    }


def from_json(obj: Mapping) -> LaurentPoly:
    terms = []
    for t in obj["terms"]:
        exps = [(parse_var(name), int(e)) for name, e in t["exps"].items()]
        terms.append((int(t["coeff"]), exps))
    return LaurentPoly(terms)
