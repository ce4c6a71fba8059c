"""Label sequences with exact metadata.

Infinite parts of a symbolic tree (ray vertices, star leaves, family
envelopes) carry their labels as a declared sequence.  Every kind answers,
with exact rational arithmetic: the n-th term, limsup / liminf / inf / sup,
whether the sequence vanishes (tends to 0), and which indices carry a term
>= eps (a finite list or the answer "infinitely many"), or only how many
and the last of them (``count_last_geq``, no list).  ``terms(stop)``
gives the first ``stop`` terms at once, equal to ``term`` called for each
index and raising where it would.  ``scale(f)`` multiplies the
parameters, so its terms are f times the terms, at no cost per term.

The kinds form three families, and each states a statistic once.
``const``, ``finite_support`` and ``custom`` list a prefix, then repeat a
cycle forever ((c), (0) and (limsup, liminf)); their base derives from the
two tuples the terms, limsup and liminf (the cycle's max and min), inf and
sup (over both), ``indices_geq``, the zero profile (len(prefix),
len(cycle)) and the progression rules below.  ``harmonic``, ``geometric``
and ``prime_recip`` are a times a positive profile decreasing to 0; their
base gives limsup = liminf = inf = 0, sup = term(1), the zero profile
(0, 1), and ``indices_geq`` and ``count_last_geq`` from a count of the
leading terms >= eps.
Harmonic and prime-reciprocal terms with a = p/q are p/(q*d) for d the
index or the n-th prime, in lowest terms as (p/g)/(q*(d/g)) for g = gcd(p, d).
A geometric batch multiplies a running n/d by r = rn/rd after cancelling
gcd(n, rd) and gcd(rn, d).  Both are made by the trusted ``coprime_fraction``,
not normalized again.  Primes come from a sieve; a prime count past
``PRIME_SIEVE_LIMIT`` raises SizeCapExceeded.  ``modulated`` interleaves child
sequences of any kind, answers from its children, and fills each child's
batch slots from the child's own batch.

Zeroness of every kind is eventually periodic, and ``zero_profile`` returns
a (threshold, period) certificate; existential or universal questions about
zero terms, also along arithmetic subprogressions of indices, are decided by
scanning one certified window.  That is what makes non-degeneracy of an
infinite labeling decidable.  A modulated sequence whose children are each
zero everywhere or nowhere, all alike, is so itself and has profile (0, 1);
otherwise every level multiplies its children's threshold and period.

Counting the vertices of a glue family whose envelope does not vanish
asks three more questions of a kind, along the member progression of
indices start + k*step: ``class_limits`` splits it into residue classes
of k and gives each class's limit, ``settle`` gives the k past which
every class approaches its limit from above, and ``sup_factors(skip)``
lists the parameter products whose max is the largest term off index
``skip``.  A modulated sequence answers each by splitting the progression
into one sub-progression per phase on its children.

Parameters are rationals, or - inside a glue-family template - a
:class:`Ref` to the member's site label or envelope value, with an optional
rational coefficient.  Metadata methods demand a concrete (ref-free)
sequence; ``substitute`` produces one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from math import floor, gcd, isqrt, lcm

from .errors import InvalidDeclaration, SizeCapExceeded
from .ratio import coprime_fraction, format_rational, parse_rational


class _Infinite:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

REF_SOURCES = ("site_label", "envelope")


@dataclass(frozen=True)
class Ref:
    """Placeholder for a per-member value: coeff * source(m)."""

    source: str
    coeff: Fraction = Fraction(1)

    def __post_init__(self):
        if self.source not in REF_SOURCES:
            raise InvalidDeclaration(f"unknown ref source {self.source!r}")
        object.__setattr__(self, "coeff", parse_rational(self.coeff))
        if self.coeff < 0:
            raise InvalidDeclaration(f"negative ref coefficient {self.coeff}")


def as_val(x):
    """Coerce x ('p/q' string, int, Fraction, Ref, {'$': ...} dict) to a Val."""
    if isinstance(x, Ref):
        return x
    if isinstance(x, dict):
        if "$" not in x:
            raise InvalidDeclaration(f"bad parameter object {x!r}")
        coeff = parse_rational(x.get("coeff", "1"))
        return Ref(source=x["$"], coeff=coeff)
    return parse_rational(x)


def val_is_concrete(v) -> bool:
    return not isinstance(v, Ref)


def resolve_val(v, bindings: dict[str, Fraction]):
    """``v`` with every ref resolved: a parameter, a sequence or a tuple of
    them (anything else is returned as is)."""
    if isinstance(v, Ref):
        if v.source not in bindings:
            raise InvalidDeclaration(f"unresolved ref {v.source!r}")
        return v.coeff * bindings[v.source]
    if isinstance(v, LabelSeq):
        return v.substitute(bindings)
    if isinstance(v, tuple):
        return tuple(resolve_val(x, bindings) for x in v)
    return v


@cache
def field_names(cls) -> tuple[str, ...]:
    """The dataclass field names of ``cls``, in declaration order."""
    return tuple(f.name for f in fields(cls))


def holds_refs(value) -> bool:
    """Does a parameter, a sequence or a tuple of them contain a Ref?"""
    if isinstance(value, Ref):
        return True
    if isinstance(value, LabelSeq):
        return value.has_refs()
    if isinstance(value, tuple):
        return any(holds_refs(v) for v in value)
    return False


def _scale_val(v, factor):
    if isinstance(v, Ref):
        if isinstance(factor, Ref):
            raise InvalidDeclaration("cannot scale a ref by a ref")
        return Ref(v.source, v.coeff * factor)
    if isinstance(factor, Ref):
        return Ref(factor.source, factor.coeff * v)
    return v * factor


def _need_concrete(seq: "LabelSeq"):
    if seq.has_refs():
        raise InvalidDeclaration(
            "sequence still contains template refs; substitute first"
        )


class LabelSeq:
    """Base class; see module docstring for the contract."""

    kind = "abstract"

    # -- derived helpers shared by all kinds --------------------------------

    def count_geq(self, eps: Fraction):
        found = self.count_last_geq(eps)
        return found if found is INFINITE else found[0]

    def is_zero(self, n: int) -> bool:
        return self.term(n) == 0

    def has_zero_term(self) -> bool:
        return self.zero_in_progression(1, 1)

    def _window_zeros(self, start: int, step: int):
        """Zeroness of the terms at start, start+step, ... up to one full
        residue cycle past the zero threshold: the certified window."""
        _need_concrete(self)
        n0, q = self.zero_profile()
        return (self.is_zero(n) for n in range(start, n0 + step * q + step + 1, step))

    def zero_in_progression(self, start: int, step: int) -> bool:
        """Does any index start, start+step, ... carry a zero term?"""
        return any(self._window_zeros(start, step))

    def all_zero_in_progression(self, start: int, step: int) -> bool:
        return all(self._window_zeros(start, step))

    def has_adjacent_zero_pair(self):
        """First n with term(n) = term(n+1) = 0, else None."""
        _need_concrete(self)
        n0, q = self.zero_profile()
        for n in range(1, n0 + 2 * q + 2):
            if self.is_zero(n) and self.is_zero(n + 1):
                return n
        return None

    # -- interface ----------------------------------------------------------

    def term(self, n: int) -> Fraction:
        raise NotImplementedError

    def terms(self, stop: int) -> list[Fraction]:
        """``[term(1), ..., term(stop)]`` (empty for stop < 1), with one
        concreteness check for the batch.  It raises exactly when one of
        those ``term`` calls would; kinds override ``_batch`` to compute
        the terms together."""
        if stop < 1:
            return []
        _need_concrete(self)
        return self._batch(stop)

    def _batch(self, stop: int) -> list[Fraction]:
        return [self.term(n) for n in range(1, stop + 1)]

    def limsup(self) -> Fraction:
        raise NotImplementedError

    def liminf(self) -> Fraction:
        raise NotImplementedError

    def inf(self) -> Fraction:
        raise NotImplementedError

    def sup(self) -> Fraction:
        raise NotImplementedError

    def vanishes(self) -> bool:
        return self.limsup() == 0

    def indices_geq(self, eps: Fraction):
        raise NotImplementedError

    def count_last_geq(self, eps: Fraction):
        """(count, last): how many terms are >= eps and the largest index
        among them (0 when none), or INFINITE.  Read off ``indices_geq``
        here; a kind with a closed form gives it without the list."""
        idx = self.indices_geq(eps)
        return idx if idx is INFINITE else (len(idx), max(idx, default=0))

    def zero_profile(self) -> tuple[int, int]:
        raise NotImplementedError

    # -- terms along a progression start + k*step, k = 0, 1, 2, ... ---------

    def class_limits(self, start: int, step: int) -> tuple[int, list[Fraction]]:
        """(Q, limits): limits[k % Q] is the limit of the terms at
        start + k*step within that residue class of k.  A kind whose terms
        tend to its limsup has one class."""
        return 1, [self.limsup()]

    def settle(self, start: int, step: int) -> int:
        """First k past which every residue class of the terms at
        start + k*step is non-increasing toward (or equal to) its limit."""
        return 0

    def sup_factors(self, skip: int | None) -> list[tuple]:
        """Tuples of parameters (values or refs) whose products have as their
        max the sup of term(n) over n != skip; each product is a term."""
        raise NotImplementedError

    # -- refs, derived from the dataclass fields of each kind -----------------

    @cached_property
    def _refs(self) -> bool:  # every term() asks, so it is computed once
        return any(holds_refs(getattr(self, n)) for n in field_names(type(self)))

    def has_refs(self) -> bool:
        return self._refs

    def substitute(self, bindings: dict[str, Fraction]) -> "LabelSeq":
        """The same kind with every ref resolved against ``bindings``."""
        if not self._refs:
            return self
        return type(self)(
            *(resolve_val(getattr(self, n), bindings) for n in field_names(type(self)))
        )

    def scale(self, factor) -> "LabelSeq":
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


def _check_eps(eps: Fraction):
    if eps <= 0:
        raise InvalidDeclaration(f"eps must be positive, got {eps}")


def _fmt_val(v) -> str:
    if isinstance(v, Ref):
        if v.coeff == 1:
            return f"${v.source}"
        return f"{format_rational(v.coeff)}*${v.source}"
    return format_rational(v)


class _PrefixCycle(LabelSeq):
    """A listed ``prefix``, then the terms of ``_cycle`` repeated forever.
    The limits are the cycle's extremes, the bounds those of prefix and
    cycle together, and past the prefix the terms at start + k*step run
    through the cycle with a period in k."""

    def term(self, n):
        if n < 1:
            raise InvalidDeclaration(f"index {n} out of range")
        _need_concrete(self)
        past = n - len(self.prefix)
        if past <= 0:
            return self.prefix[n - 1]
        return self._cycle[(past - 1) % len(self._cycle)]

    def _batch(self, stop):
        laps, part = divmod(max(stop - len(self.prefix), 0), len(self._cycle))
        return [*self.prefix[:stop], *self._cycle * laps, *self._cycle[:part]]

    def limsup(self):
        _need_concrete(self)
        return max(self._cycle)

    def liminf(self):
        _need_concrete(self)
        return min(self._cycle)

    def inf(self):
        _need_concrete(self)
        return min(self.prefix + self._cycle)

    def sup(self):
        _need_concrete(self)
        return max(self.prefix + self._cycle)

    def indices_geq(self, eps):
        _need_concrete(self)
        _check_eps(eps)
        if max(self._cycle) >= eps:
            return INFINITE
        return [i for i, x in enumerate(self.prefix, 1) if x >= eps]

    def zero_profile(self):
        return (len(self.prefix), len(self._cycle))

    def class_limits(self, start, step):
        _need_concrete(self)
        size = len(self._cycle)
        first = start - len(self.prefix) - 1  # the cycle position of k = 0
        q = size // gcd(size, step)
        return q, [self._cycle[(first + k * step) % size] for k in range(q)]

    def settle(self, start, step):
        spill = len(self.prefix) - start  # the first k past the prefix
        return 0 if spill < 0 else spill // step + 1

    def sup_factors(self, skip):
        rest = [x for i, x in enumerate(self.prefix, 1) if i != skip]
        return [(max(rest + list(self._cycle)),)]  # a cycle term recurs past any skip


@dataclass(frozen=True)
class Const(_PrefixCycle):
    """c, c, c, ..."""

    c: Fraction | Ref

    kind = "const"
    prefix = ()

    def __post_init__(self):
        object.__setattr__(self, "c", as_val(self.c))
        if val_is_concrete(self.c) and self.c < 0:
            raise InvalidDeclaration(f"negative constant {self.c}")

    @cached_property
    def _cycle(self):
        return (self.c,)

    def term(self, n):  # the hot case in one step; the base raises the errors
        return self.c if n >= 1 and not self._refs else super().term(n)

    def scale(self, factor):
        return Const(_scale_val(self.c, factor))

    def describe(self):
        return f"const({_fmt_val(self.c)})"


@dataclass(frozen=True)
class FiniteSupport(_PrefixCycle):
    """Explicit prefix, then all zeros."""

    prefix: tuple[Fraction, ...]

    kind = "finite_support"
    _cycle = (Fraction(0),)

    def __post_init__(self):
        vals = tuple(parse_rational(x) for x in self.prefix)
        for x in vals:
            if x < 0:
                raise InvalidDeclaration(f"negative term {x}")
        object.__setattr__(self, "prefix", vals)

    def scale(self, factor):
        if isinstance(factor, Ref):
            raise InvalidDeclaration("finite_support cannot carry refs")
        return FiniteSupport(tuple(x * factor for x in self.prefix))

    def describe(self):
        return "finite_support(" + ", ".join(map(format_rational, self.prefix)) + ")"


@dataclass(frozen=True)
class Custom(_PrefixCycle):
    """Explicit prefix plus declared asymptotics.

    Beyond the prefix the sequence is materialized canonically as the
    alternation limsup, liminf, limsup, ...; validation guarantees the
    declared stats are exactly the stats of the materialized sequence:
    prefix terms must not exceed limsup, inf must equal
    min(min(prefix), liminf), and vanishes must equal (limsup == 0).
    """

    prefix: tuple[Fraction, ...]
    limsup_: Fraction
    liminf_: Fraction
    inf_: Fraction
    vanishes_: bool

    kind = "custom"

    def __post_init__(self):
        vals = tuple(parse_rational(x) for x in self.prefix)
        object.__setattr__(self, "prefix", vals)
        object.__setattr__(self, "limsup_", parse_rational(self.limsup_))
        object.__setattr__(self, "liminf_", parse_rational(self.liminf_))
        object.__setattr__(self, "inf_", parse_rational(self.inf_))
        for x in vals:
            if x < 0:
                raise InvalidDeclaration(f"negative term {x}")
            if x > self.limsup_:
                raise InvalidDeclaration(
                    f"prefix term {x} exceeds declared limsup {self.limsup_}"
                )
        if not (0 <= self.liminf_ <= self.limsup_):
            raise InvalidDeclaration(
                f"need 0 <= liminf <= limsup, got {self.liminf_}, {self.limsup_}"
            )
        expect_inf = min(vals) if vals else self.liminf_
        expect_inf = min(expect_inf, self.liminf_)
        if self.inf_ != expect_inf:
            raise InvalidDeclaration(
                f"declared inf {self.inf_} differs from materialized inf {expect_inf}"
            )
        if self.vanishes_ != (self.limsup_ == 0):
            raise InvalidDeclaration(
                "declared vanishes flag contradicts declared limsup"
            )

    @cached_property
    def _cycle(self):
        return (self.limsup_, self.liminf_)

    def scale(self, factor):
        if isinstance(factor, Ref):
            raise InvalidDeclaration("custom sequences cannot carry refs")
        return Custom(
            tuple(x * factor for x in self.prefix),
            self.limsup_ * factor,
            self.liminf_ * factor,
            self.inf_ * factor,
            self.vanishes_,
        )

    def describe(self):
        return (
            f"custom(prefix={list(map(format_rational, self.prefix))}, "
            f"limsup={format_rational(self.limsup_)}, liminf={format_rational(self.liminf_)})"
        )


class _Vanishing(LabelSeq):
    """a times a positive profile that decreases to 0 from 1: the limits
    and the inf are 0, the sup is term(1) = a, and the terms are zero
    everywhere (a = 0) or nowhere.  ``_count_geq(eps)`` counts the leading
    terms >= eps."""

    def __post_init__(self):
        object.__setattr__(self, "a", as_val(self.a))
        if val_is_concrete(self.a) and self.a < 0:
            raise InvalidDeclaration(f"negative coefficient {self.a}")

    def limsup(self):
        return Fraction(0)

    liminf = inf = limsup

    def sup(self):
        _need_concrete(self)
        return self.a

    def indices_geq(self, eps):
        _need_concrete(self)
        _check_eps(eps)
        return list(range(1, self._count_geq(eps) + 1))

    def count_last_geq(self, eps):
        _need_concrete(self)
        _check_eps(eps)
        n = self._count_geq(eps)
        return n, n

    def zero_profile(self):
        return (0, 1)


def _over(p: int, q: int, d: int) -> Fraction:
    """(p/q) / d for p/q in lowest terms: gcd(p, q*d) = gcd(p, d)."""
    g = gcd(p, d)
    return coprime_fraction(p // g, q * (d // g))


class _Reciprocal(_Vanishing):
    """a / d(n) for an increasing sequence of positive integers d(n)."""

    def term(self, n):
        if n < 1:
            raise InvalidDeclaration(f"index {n} out of range")
        _need_concrete(self)
        return _over(self.a.numerator, self.a.denominator, self._denominator(n))

    def _batch(self, stop):
        p, q = self.a.numerator, self.a.denominator
        return [_over(p, q, d) for d in self._denominators(stop)]

    def sup_factors(self, skip):
        return [(self.a, Fraction(1, self._denominator(2 if skip == 1 else 1)))]

    def scale(self, factor):
        return type(self)(_scale_val(self.a, factor))

    def describe(self):
        return f"{self.kind}({_fmt_val(self.a)})"


@dataclass(frozen=True)
class Harmonic(_Reciprocal):
    """a/1, a/2, a/3, ..."""

    a: Fraction | Ref

    kind = "harmonic"

    @staticmethod
    def _denominator(n):
        return n

    @staticmethod
    def _denominators(stop):
        return range(1, stop + 1)

    def _count_geq(self, eps):
        return floor(self.a / eps)


@dataclass(frozen=True)
class Geometric(_Vanishing):
    """a, a*r, a*r^2, ... with 0 < r < 1."""

    a: Fraction | Ref
    r: Fraction | Ref

    kind = "geometric"

    def __post_init__(self):
        object.__setattr__(self, "a", as_val(self.a))
        object.__setattr__(self, "r", as_val(self.r))
        if val_is_concrete(self.a) and self.a < 0:
            raise InvalidDeclaration(f"negative coefficient {self.a}")
        if val_is_concrete(self.r) and not (0 < self.r < 1):
            raise InvalidDeclaration(f"geometric ratio {self.r} not in (0, 1)")

    def term(self, n):
        if n < 1:
            raise InvalidDeclaration(f"index {n} out of range")
        _need_concrete(self)
        return self.a * self.r ** (n - 1)

    def _batch(self, stop):
        # n/d and rn/rd are in lowest terms, so the cross-cancelled product is
        n, d, rn, rd = self.a.numerator, self.a.denominator, self.r.numerator, self.r.denominator
        out = [self.a]
        for _ in range(stop - 1):
            g1, g2 = gcd(n, rd), gcd(rn, d)
            n, d = (n // g1) * (rn // g2), (d // g2) * (rd // g1)
            out.append(coprime_fraction(n, d))
        return out

    def _count_geq(self, eps):
        n, t = 0, self.a
        while t >= eps:
            n, t = n + 1, t * self.r
        return n

    def sup_factors(self, skip):
        return [(self.a, self.r) if skip == 1 else (self.a,)]

    def scale(self, factor):
        return Geometric(_scale_val(self.a, factor), self.r)

    def describe(self):
        return f"geometric({_fmt_val(self.a)}, {_fmt_val(self.r)})"


# -- primes ------------------------------------------------------------------

# the largest bound a prime count sieves to; it covers the 200,000th prime
# (2,750,159), so a truncation within TRUNCATE_SIZE_CAP never meets it
PRIME_SIEVE_LIMIT = 3_000_000

_PRIMES: list[int] = []  # every prime below _sieved, in order
_sieved = 2


def _sieve(upto: int) -> None:
    """List every prime <= upto, sieving again over at least twice the range."""
    global _sieved
    if upto < _sieved:
        return
    _sieved = max(upto + 1, 2 * _sieved)
    flags = bytearray([1]) * _sieved
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(_sieved - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, _sieved, p)))
    _PRIMES[:] = compress(range(_sieved), flags)


def nth_prime(n: int) -> int:
    """1-based: nth_prime(1) == 2."""
    if n < 1:
        raise InvalidDeclaration(f"prime index {n} out of range")
    while len(_PRIMES) < n:
        _sieve(_sieved)
    return _PRIMES[n - 1]


@dataclass(frozen=True)
class PrimeRecip(_Reciprocal):
    """a/2, a/3, a/5, a/7, ...: a over the n-th prime."""

    a: Fraction | Ref

    kind = "prime_recip"

    _denominator = staticmethod(nth_prime)

    def sup(self):
        return self.term(1)  # the profile starts at 1/2

    @staticmethod
    def _denominators(stop):
        nth_prime(stop)  # grows the prime table to ``stop`` primes
        return _PRIMES[:stop]

    def _count_geq(self, eps):
        bound = floor(self.a / eps)  # a/p >= eps exactly for the primes p <= bound
        if bound > PRIME_SIEVE_LIMIT:
            raise SizeCapExceeded(bound, PRIME_SIEVE_LIMIT, "prime sieve")
        _sieve(bound)
        return bisect_right(_PRIMES, bound)


@dataclass(frozen=True)
class Modulated(LabelSeq):
    """Interleaves ``period`` child sequences: term(n) is child (n-1) % period
    evaluated at index (n-1) // period + 1."""

    period: int
    seqs: tuple[LabelSeq, ...]

    kind = "modulated"

    def __post_init__(self):
        if type(self.period) is not int:  # a bool or a float is refused too
            raise InvalidDeclaration(f"modulated period must be an integer, got {self.period!r}")
        object.__setattr__(self, "seqs", tuple(self.seqs))
        if self.period < 1 or len(self.seqs) != self.period:
            raise InvalidDeclaration(
                f"modulated needs exactly period={self.period} child sequences, got {len(self.seqs)}"
            )
        # settled now, from the children's settled flags: asking lazily at
        # the top of a deep nesting would recurse several frames per level
        self.has_refs()

    def _split(self, n: int) -> tuple[int, int]:
        return (n - 1) % self.period, (n - 1) // self.period + 1

    def term(self, n):
        if n < 1:
            raise InvalidDeclaration(f"index {n} out of range")
        i, j = self._split(n)
        return self.seqs[i].term(j)

    def terms(self, stop):
        # no check of its own: each child checks the terms it is asked for,
        # so a child with refs but no terms in range raises nothing, as in
        # the term-by-term loop
        out = [None] * max(stop, 0)
        for i, s in enumerate(self.seqs):
            out[i :: self.period] = s.terms(len(range(i, stop, self.period)))
        return out

    def limsup(self):
        return max(s.limsup() for s in self.seqs)

    def liminf(self):
        return min(s.liminf() for s in self.seqs)

    def inf(self):
        return min(s.inf() for s in self.seqs)

    def sup(self):
        return max(s.sup() for s in self.seqs)

    def indices_geq(self, eps):
        _check_eps(eps)
        merged: list[int] = []
        for i, s in enumerate(self.seqs):
            sub = s.indices_geq(eps)
            if sub is INFINITE:
                return INFINITE
            merged.extend((j - 1) * self.period + i + 1 for j in sub)
        return sorted(merged)

    def count_last_geq(self, eps):
        _check_eps(eps)
        count = last = 0
        for i, s in enumerate(self.seqs):
            found = s.count_last_geq(eps)
            if found is INFINITE:
                return INFINITE
            count += found[0]
            if found[0]:
                last = max(last, (found[1] - 1) * self.period + i + 1)
        return count, last

    def zero_profile(self):
        profiles = [s.zero_profile() for s in self.seqs]
        # children each zero everywhere or nowhere, and all alike: so is the
        # interleaving (decided only without refs, where is_zero would raise)
        if (not self._refs and all(p == (0, 1) for p in profiles)
                and len({s.is_zero(1) for s in self.seqs}) == 1):
            return (0, 1)
        thresholds, periods = zip(*profiles)
        return (self.period * (max(thresholds) + 1), self.period * lcm(*periods))

    def _phases(self, start: int, step: int) -> tuple[int, list]:
        """(phases, parts): split the progression start + k*step by phase.
        For k = j + phases*i (j < phases) the index is child s's index
        start_j + i*step_j, where parts[j] = (s, start_j, step_j)."""
        span = lcm(step, self.period)
        firsts = (self._split(start + j * step) for j in range(span // step))
        return span // step, [(self.seqs[c], i, span // self.period) for c, i in firsts]

    def class_limits(self, start, step):
        phases, parts = self._phases(start, step)
        maps = [s.class_limits(*at) for s, *at in parts]
        big = phases * lcm(*(q for q, _ in maps))
        limits = []
        for r in range(big):
            q, child = maps[r % phases]
            limits.append(child[(r // phases) % q])
        return big, limits

    def settle(self, start, step):
        phases, parts = self._phases(start, step)
        return max(j + phases * s.settle(*at) for j, (s, *at) in enumerate(parts))

    def sup_factors(self, skip):
        c_skip, j_skip = (None, None) if skip is None else self._split(skip)
        return [
            f for c, s in enumerate(self.seqs)
            for f in s.sup_factors(j_skip if c == c_skip else None)
        ]

    def scale(self, factor):
        return Modulated(self.period, tuple(s.scale(factor) for s in self.seqs))

    def describe(self):
        return f"modulated({self.period}; " + ", ".join(s.describe() for s in self.seqs) + ")"



SEQ_KINDS = {
    "const": Const,
    "finite_support": FiniteSupport,
    "harmonic": Harmonic,
    "geometric": Geometric,
    "modulated": Modulated,
    "custom": Custom,
    "prime_recip": PrimeRecip,
}
