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
(variable, exponent) pairs sorted by variable, with no zero exponents.  Terms
are reported in descending graded lexicographic order over the canonical
variable order (``canonical_term_order``), so serialization is canonical.

Stored form.  Each variable gets a fixed field index the first time any
polynomial is built over it, and keeps it for the life of the process.  A
polynomial stores a field width w (8, 16, 32, ... bits) and a dict from packed
monomial to nonzero integer coefficient; the monomial with exponent e_i in
field i packs to the int sum of e_i * 2**(w*i), with signed digits.  Every
stored exponent lies in [-H, H), H = 2**(w-2).  So:

* a product of monomials is the sum of their keys, and its digits lie in
  [-2**(w-1), 2**(w-1)), which still determines them uniquely;
* with H added to every field (the bias), an in-range digit becomes a value
  below 2**(w-1), so ``(key + bias) & guards``, where ``guards`` holds the top
  bit of every field, is zero exactly when every digit is in range.  The
  same top bits compare all fields of two keys at once (``_extremes``).

Products of polynomials are summed by one loop, ``_sum_of_products``: ``*``
(unless a factor has one term, which shifts every key by its own), the
walk's recurrence step (``quotient_of_products``), ``substitute`` and the
substitution route's step (``recurrence.f_via_substitution``) pass it their
pairs of factors, and it adds the keys of every two terms into one dict.  A
sum with a key out of range is re-encoded at twice the width, so exponents are
unbounded and exact.  A new variable never changes an existing key.  A
variable v to a power e in [-64, 64) is the key e << (8 * field(v)) at the
starting width, made without an exponent map; a monomial's key is the sum of
e_i << (w * field(v_i)) at the narrowest width w that holds its exponents.
Int order on keys is lex order with the last interned variable most
significant; exact division runs over it (``div_exact``).  Keys are decoded
only where exponents are read out, and ``terms()`` (so ``to_json`` and
``__str__``) sorts them canonically, so the JSON bytes do not depend on the
interning order; ``==`` and ``hash`` do not depend on the width.  Packed
exponents and division over int order follow Monagan and Pearce ("Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC 2007;
"Sparse polynomial division using a heap", 2011).

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import heapq
import re
import sys
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


# ---------------------------------------------------------------------------
# Packed monomials

_field: dict[VarKey, int] = {}  # each variable's field index, fixed at first use
_variables: list[VarKey] = []  # the variable of each field
_W0 = 8  # the width a polynomial is stored at unless an exponent needs more
_H0 = 1 << (_W0 - 2)  # its stored exponents are those in [-_H0, _H0)
_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # native unsigned ints of each width
_mask_cache: dict[int, tuple[int, int, int]] = {}


def _intern(v: VarKey) -> int:
    f = _field.get(v)
    if f is None:
        f = _field[v] = len(_variables)
        _variables.append(v)
    return f


def _masks(w: int) -> tuple[int, int]:
    """(bias, guards) at width w: 2**(w-2), and the top bit 2**(w-1), in every field."""
    n = len(_variables)
    got = _mask_cache.get(w)
    if got is None or got[0] != n:
        ones = ((1 << (w * n)) - 1) // ((1 << w) - 1)
        got = _mask_cache[w] = (n, ones << (w - 2), ones << (w - 1))
    return got[1], got[2]


def _width_for(exponents: Iterable[int]) -> int:
    """The narrowest width whose fields hold every one of the exponents."""
    top = max((x if x >= 0 else ~x for x in exponents), default=0)  # [-H, H) is ~x < H
    w = _W0
    while top >= 1 << (w - 2):
        w *= 2
    return w


def _digits(u: int, w: int):
    """The w-bit fields of a nonnegative int, lowest first, one per interned variable."""
    n = len(_variables)
    fmt = _FORMATS.get(w)
    if fmt:
        return memoryview(u.to_bytes(n * w // 8, sys.byteorder)).cast(fmt)
    mask = (1 << w) - 1
    return [(u >> (w * f)) & mask for f in range(n)]


def _reencode(terms: dict[int, int], w: int, w2: int) -> dict[int, int]:
    """The terms at width w2, from width w where every digit is in [-2**(w-1), 2**(w-1))."""
    _, half_bias = _masks(w)
    half = 1 << (w - 1)
    out = {}
    for k, c in terms.items():
        digits = _digits(k + half_bias, w)
        out[sum((d - half) << (w2 * f) for f, d in enumerate(digits) if d != half)] = c
    return out


def _checked(terms: dict[int, int], w: int) -> "LaurentPoly":
    """A polynomial of terms whose digits are in [-2**(w-1), 2**(w-1)):
    at width w if they are all in its stored range, else at 2w."""
    bias, guards = _masks(w)
    if terms and reduce(or_, map(bias.__add__, terms)) & guards:
        return LaurentPoly._raw(_reencode(terms, w, 2 * w), 2 * w)
    return LaurentPoly._raw(terms, w)


def _extremes(keys: Iterable[int], w: int) -> tuple[int, int]:
    """The fieldwise least and greatest exponents of stored keys, packed as keys.

    Biased fields are below 2**(w-1), so setting each field's top bit before a
    subtraction leaves that bit set exactly where the field did not go below
    zero, and no field borrows from the next.  With 1 more subtracted in
    every field, the bit is set where the field stayed above zero, so a key
    that sets no new extreme costs one test each way.
    """
    bias, guards = _masks(w)
    top = w - 1
    ones = guards >> top
    keys = iter(keys)
    lo = hi = next(keys) + bias
    hi1, lo1 = hi + ones, (lo | guards) - ones
    for k in keys:
        u = k + bias
        gt = ((u | guards) - hi1) & guards  # top bits of the fields where u > hi
        if gt:
            hi ^= (u ^ hi) & (gt - (gt >> top))  # gt's fields' value bits
            hi1 = hi + ones
        lt = (lo1 - u) & guards  # where u < lo
        if lt:
            lo ^= (u ^ lo) & (lt - (lt >> top))
            lo1 = (lo | guards) - ones
    return lo - bias, hi - bias


def _exps_of(k: int, w: int) -> Exps:
    """The exponent map of one key stored at width w."""
    return next(LaurentPoly._raw({k: 1}, w)._decoded())[0]


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms", "_w")

    def __init__(self, terms: Iterable[tuple[int, Iterable[tuple[VarKey, int]]]] = ()):
        data: dict[Exps, int] = {}
        for coeff, exps in terms:
            e = exps_from_items(exps)
            data[e] = data.get(e, 0) + coeff
        items = [(e, c) for e, c in data.items() if c]
        self._w = w = _width_for(x for e, _ in items for _, x in e)
        self._terms = {LaurentPoly._key(e, w): c for e, c in items}

    @staticmethod
    def _raw(data: dict[int, int], w: int = _W0) -> "LaurentPoly":
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = data
        p._w = w
        return p

    @staticmethod
    def _key(exps: Iterable[tuple[VarKey, int]], w: int = _W0) -> int:
        """The key at width w of (variable, exponent) pairs; each exponent must fit."""
        return sum(x << (w * _intern(v)) for v, x in exps)

    @staticmethod
    def _from_keys(terms: dict[int, int]) -> "LaurentPoly":
        """From nonzero terms keyed at the starting width w, exponents in [-2**(w-1), 2**(w-1))."""
        return _checked(terms, _W0)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls._raw({0: c} if c else {})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def variable(cls, v: VarKey, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        if coeff and exp and -_H0 <= exp < _H0:  # its key, at the starting width
            return cls._raw({exp << (_W0 * _intern(v)): coeff})
        return cls.monomial(coeff, [(v, exp)])

    @classmethod
    def monomial(cls, coeff: int, exps: Iterable[tuple[VarKey, int]]) -> "LaurentPoly":
        if coeff == 0:
            return cls.zero()
        e = exps_from_items(exps)
        w = _width_for(map(_exponent, e))
        return cls._raw({cls._key(e, w): coeff}, w)

    def _at(self, w: int) -> dict[int, int]:
        """The terms at width w, which is at least the stored width."""
        return self._terms if w == self._w else _reencode(self._terms, self._w, w)

    def _fields(self) -> list[int]:
        """The fields in which some term has a nonzero exponent."""
        bias, _ = _masks(self._w)
        used = reduce(or_, ((k + bias) ^ bias for k in self._terms), 0)
        return [f for f, d in enumerate(_digits(used, self._w)) if d]

    def _decoded(self) -> Iterator[tuple[Exps, int]]:
        """(exponent map, coefficient) of every term, in storage order."""
        w = self._w
        bias, _ = _masks(w)
        h = 1 << (w - 2)
        fields = [(f, _variables[f]) for f in sorted(self._fields(), key=_variables.__getitem__)]
        for k, c in self._terms.items():
            digits = _digits(k + bias, w)
            yield tuple([(v, digits[f] - h) for f, v in fields if digits[f] != h]), c

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficients(self) -> list[int]:
        """The coefficients in canonical term order."""
        coeffs = list(self._terms.values())
        if len(set(coeffs)) <= 1:  # every order is the canonical one
            return coeffs
        return [m.coeff for m in self.terms()]

    def variables(self) -> list[VarKey]:
        return sorted(_variables[f] for f in self._fields())

    def exponent_range(self, tag: int) -> tuple[int, int] | None:
        """The least and greatest exponent of a variable with ``tag`` over all terms.

        A term without one of those variables counts as exponent 0 for it, so
        the range is read off the two keys of ``_extremes``.  None when no
        term has a variable with ``tag``.
        """
        if not self._terms:
            return None
        least, greatest = (dict(_exps_of(k, self._w)) for k in _extremes(self._terms, self._w))
        tagged = [v for v in least.keys() | greatest.keys() if v[0] == tag]
        if not tagged:
            return None
        return min(least.get(v, 0) for v in tagged), max(greatest.get(v, 0) for v in tagged)

    def terms(self) -> list[Monomial]:
        """Terms in canonical order: descending graded lex over the variable order."""
        coeffs = dict(self._decoded())
        return [Monomial(coeffs[e], e) for e in canonical_term_order(coeffs)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._w == other._w:
            return self._terms == other._terms
        w = max(self._w, other._w)
        return self._at(w) == other._at(w)

    def __hash__(self) -> int:
        terms = self._terms
        # A constant equals its int, so it hashes like it.
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        if self._w > _W0:  # equal polynomials hash alike at the narrowest width
            extremes = _extremes(terms, self._w)  # hold every field's widest exponents
            narrow = _width_for(x for k in extremes for _, x in _exps_of(k, self._w))
            if narrow < self._w:
                terms = _reencode(terms, self._w, narrow)
        return hash(frozenset(terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({k: -c for k, c in self._terms.items()}, self._w)

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        w = max(self._w, other._w)
        big, small = self._at(w), other._at(w)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for k, c in small.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly._raw(out, w)

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
            return LaurentPoly._raw({k: c * other for k, c in self._terms.items()}, self._w)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        small, big = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        if len(small._terms) != 1:
            return _sum_of_products([(small, big)])
        # A monomial shifts every key by the same amount: no two products meet.
        w = max(self._w, other._w)
        ((k2, c2),) = small._at(w).items()
        return _checked({k + k2: c * c2 for k, c in big._at(w).items()}, w)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        """``self`` to the power n >= 0 by binary powering; ``p ** 0`` is one."""
        if n < 0:
            raise ValueError("negative powers of general polynomials are not defined")
        if n < 2:
            return self if n else LaurentPoly.one()
        # Binary powering down to the base itself, so one() is never a factor.
        half = self ** (n >> 1)
        square = half * half
        return square * self if n & 1 else square

    def __reduce__(self):
        # Keys depend on this process's field order, so pickle exponent maps.
        return LaurentPoly, ([(c, e) for e, c in self._decoded()],)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(m) for m in self.terms())

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)})"


def canonical_term_order(exps_keys: Iterable[Exps]) -> list[Exps]:
    """Sort exponent maps in descending graded lex order: total degree first,
    then the exponents of the variables in canonical order."""
    keys = list(exps_keys)
    position = {v: t for t, v in enumerate(sorted({v for e in keys for v, _ in e}), 1)}
    size = len(position) + 1

    def grlex(e: Exps) -> list[int]:
        vec = [0] * size
        for v, x in e:
            vec[position[v]] = x
        vec[0] = sum(map(_exponent, e))
        return vec

    return sorted(keys, key=grlex, reverse=True)


def _stuck(c: int, k: int, w: int):
    """Count one division failure and raise it, naming the stuck term."""
    global nonzero_remainder_count
    nonzero_remainder_count += 1
    raise NonzeroRemainder(
        f"dividend is not an exact multiple (stuck at term {Monomial(c, _exps_of(k, w))})"
    )


def _descending(keys: list[int], side: list[int]) -> Iterator[int]:
    """Descending keys merged with ``side``, a max-heap of negated keys that may grow meanwhile."""
    for k in keys:
        while side and -side[0] > k:
            yield -heapq.heappop(side)
        yield k
    while side:
        yield -heapq.heappop(side)


def div_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact division: the q with q*d == p.

    A monomial divisor is a unit: every key shifts by its key and every
    coefficient must divide by its coefficient, as in ``__mul__``.  Otherwise
    the division runs over the stored keys in int order (Monagan and Pearce).
    The remainder is a dict from key to coefficient; its leading key is the
    next of p's keys, sorted once in descending order, or of the keys that
    products put outside p's support, which only cancellation makes and
    which wait on a small max-heap.  A key whose term cancelled is skipped
    when reached.  Each quotient term is the leading key minus the divisor's,
    and its products with the divisor are below the leading term it cancels,
    so a key once passed never returns.

    If q exists, in each variable its exponents lie between p's least minus
    d's least and p's greatest minus d's greatest.  Every quotient term is
    checked against that box, with the same top-bit test as ``_extremes``;
    one outside it, or a coefficient that does not divide, raises
    NonzeroRemainder.  The box is finite, so a non-multiple stops within the
    operands' exponents, and since every quotient term lies in it, every
    remainder key stays within p's fieldwise range and never overflows.  A
    monomial's quotient lies in that box, so it needs no test.
    """
    if d.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero()

    w = max(p._w, d._w)
    P, D = p._at(w), d._at(w)
    if len(D) == 1:
        ((lt_d, c_d),) = D.items()
        if c_d != 1 and c_d != -1:
            bad = [k for k, c in P.items() if c % c_d]
            if bad:
                k = max(bad)
                _stuck(P[k], k, w)
        # Quotient digits are differences of stored ones, within [-2**(w-1), 2**(w-1)).
        return _checked({k - lt_d: c // c_d for k, c in P.items()}, w)
    R = dict(P)
    _, guards = _masks(w)
    p_lo, p_hi = _extremes(R, w)
    d_lo, d_hi = _extremes(D, w)
    lo, hi = p_lo - d_lo, p_hi - d_hi
    (lt_d, c_d), *rest = sorted(D.items(), reverse=True)
    side: list[int] = []
    Q: dict[int, int] = {}
    for lt_r in _descending(sorted(P, reverse=True), side):
        c_r = R.pop(lt_r, 0)
        if not c_r:
            continue
        mono = lt_r - lt_d
        if ((mono - lo) | (hi - mono)) & guards or c_r % c_d != 0:
            _stuck(c_r, lt_r, w)
        cq = c_r // c_d
        Q[mono] = cq
        for vec, c in rest:
            k = mono + vec
            s = R.get(k)
            if s is None:
                R[k] = -cq * c
                if k not in P:
                    heapq.heappush(side, -k)
            elif s != cq * c:
                R[k] = s - cq * c
            else:
                del R[k]
    # Quotient digits lie in the box, within [-2**(w-1), 2**(w-1)).
    return _checked(Q, w)


def _sum_of_products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """The sum of ``a * b`` over the (a, b) pairs: the module's one product loop.

    All the term products go into one dict, the smaller factor's terms
    outermost, and the sum is checked once at the end: a product of two
    stored keys has digits in [-2**(w-1), 2**(w-1)), which ``_checked`` takes.
    """
    pairs = list(pairs)
    w = max([p._w for pair in pairs for p in pair], default=_W0)
    out: dict[int, int] = {}
    get = out.get
    for a, b in pairs:
        small, big = a._at(w), b._at(w)
        if len(small) > len(big):
            small, big = big, small
        for k2, c2 in small.items():
            for k1, c1 in big.items():
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
    return _checked(out, w)


def quotient_of_products(terms, den: LaurentPoly) -> LaurentPoly:
    """The sum of ``coeff * v1 * v2`` over ``terms``, divided exactly by ``den``.

    The recurrence step in one pass.  Each coeff, a polynomial or an int, is
    multiplied into the smaller of its two factors, and the products are
    summed into one dict by ``_sum_of_products``, the loop ``*`` runs.  The
    sum is divided by ``den`` with ``div_exact``, so a zero ``den`` raises
    DivisionByZero.
    """
    pairs = []
    for coeff, v1, v2 in terms:
        small, big = (v1, v2) if len(v1) <= len(v2) else (v2, v1)
        pairs.append((coeff * small, big))
    return div_exact(_sum_of_products(pairs), den)


def substitute(p: LaurentPoly, v: VarKey, value: "LaurentPoly | int") -> LaurentPoly:
    """Replace every occurrence of ``v`` in ``p`` by ``value``, any Laurent polynomial.

    With p the sum of part_e * v**e over the exponents e of v, the result is
    the sum of part_e * value**e.  Negative exponents are cleared by
    multiplying through by value**shift, where -shift is the least e: the
    products part_e * value**(e+shift) are summed into one dict by
    ``_sum_of_products``, and value**shift is divided out once at the end
    with div_exact.  The powers of value, up to shift plus the greatest e
    (and at least shift), are made once each, by one ``*`` from the last,
    and the division reuses value**shift.  A result that is not a Laurent
    polynomial raises NonzeroRemainder; a zero value under a negative
    exponent raises DivisionByZero.
    """
    if isinstance(value, int):
        value = LaurentPoly.constant(value)
    w = p._w
    f = _intern(v)  # if v is new, every key reads 0 in its field
    bias, _ = _masks(w)
    at, mask, h = w * f, (1 << w) - 1, 1 << (w - 2)
    groups: dict[int, dict[int, int]] = {}
    for k, c in p._terms.items():
        exp = (((k + bias) >> at) & mask) - h
        groups.setdefault(exp, {})[k - (exp << at)] = c
    shift = max(0, -min(groups, default=0))
    powers = [LaurentPoly.one(), value]  # powers[e] is value**e, each made once
    while len(powers) <= shift + max([0, *groups]):
        powers.append(powers[-1] * value)
    assembled = _sum_of_products(
        (LaurentPoly._raw(part, w), powers[e + shift]) for e, part in groups.items()
    )
    return div_exact(assembled, powers[shift]) if shift else assembled


def evaluate(p: LaurentPoly, assign: Mapping[VarKey, "Fraction | int"]) -> Fraction:
    """Evaluate exactly at a rational point.

    Zero values are only allowed for variables appearing with nonnegative
    exponents; every variable of p must be assigned.  Each term's value has a
    denominator dividing L, the product over the variables of (denominator
    to the greatest exponent) times (numerator to minus the least), so the
    terms are summed as integers over L.
    """
    if not p:
        return Fraction(0)
    least, greatest = (dict(_exps_of(k, p._w)) for k in _extremes(p._terms, p._w))
    ratio = {}
    L = 1
    for v in sorted(least.keys() | greatest.keys()):
        low, high = min(least.get(v, 0), 0), max(greatest.get(v, 0), 0)
        if v not in assign:
            raise UnassignedVariable(var_name(v))
        value = Fraction(assign[v])
        if value == 0 and low < 0:
            raise ZeroToNegativePower(var_name(v))
        a, b = ratio[v] = value.numerator, value.denominator
        L *= b**high * a**-low
    total = 0
    for e, c in p._decoded():
        num, den = c, 1
        for v, x in e:
            a, b = ratio[v]
            if x > 0:
                num, den = num * a**x, den * b**x
            else:
                num, den = num * b**-x, den * a**-x
        total += num * (L // den)
    return Fraction(total, L)


def rename_variables(p: LaurentPoly, mapping: Mapping[VarKey, VarKey]) -> LaurentPoly:
    """Rename variables (possibly merging several into one), collecting terms."""
    return LaurentPoly((c, [(mapping.get(v, v), x) for v, x in e]) for e, c in p._decoded())


def collapse_tags(
    p: LaurentPoly,
    tags: Sequence[int],
    image: Callable[[tuple[int, ...]], Iterable[tuple[VarKey, int]]],
) -> LaurentPoly:
    """Replace, in each term, the variables with the given tags by one monomial.

    ``image(sums)`` gives that monomial's (variable, exponent) pairs, where
    ``sums[t]`` is the term's total exponent over the variables with tag
    ``tags[t]``.  Terms that meet are collected.  The sums are read off each
    key's fields and the variables erased with one mask, without decoding.
    """
    w = p._w
    bias, _ = _masks(w)
    h = 1 << (w - 2)
    fields = p._fields()
    groups = [[f for f in fields if _variables[f][0] == tag] for tag in tags]
    erase = sum(((1 << w) - 1) << (w * f) for group in groups for f in group)
    keep = bias & ~erase
    rows = []
    for k, c in p._terms.items():
        u = k + bias
        digits = _digits(u, w)
        pairs = list(image(tuple(sum(digits[f] for f in g) - h * len(g) for g in groups)))
        rows.append(((u & ~erase) - keep, pairs, c))
    wide = _width_for(x for _, pairs, _ in rows for _, x in pairs)
    if wide > w:
        return collapse_tags(LaurentPoly._raw(p._at(wide), wide), tags, image)
    out: dict[int, int] = {}
    for rest, pairs, c in rows:
        k = rest + sum(x << (w * _intern(v)) for v, x in pairs)
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    # Each digit is a stored one plus an image exponent, both in [-2**(w-2), 2**(w-2)).
    return _checked(out, w)


def drop_variables(p: LaurentPoly, tags: Iterable[int]) -> LaurentPoly:
    """Erase all variables with the given tags (set them to 1), collecting terms."""
    return collapse_tags(p, tuple(tags), lambda sums: ())


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
