from __future__ import annotations

import math
import operator
import random
import time
from fractions import Fraction
from functools import cache
from itertools import takewhile

import pytest

from ultratree import seqs as seqs_module
from ultratree.errors import InvalidDeclaration, SizeCapExceeded
from ultratree.ratio import coprime_fraction, format_rational
from ultratree.seqs import (
    INFINITE,
    PRIME_SIEVE_LIMIT,
    Const,
    Custom,
    FiniteSupport,
    Geometric,
    Harmonic,
    Modulated,
    PrimeRecip,
    Ref,
    nth_prime,
    resolve_val,
)

F = Fraction


def brute_count_geq(seq, eps, horizon):
    """Oracle: count indices with term >= eps among the first ``horizon``."""
    return sum(1 for n in range(1, horizon + 1) if seq.term(n) >= eps)


def test_const_metadata():
    s = Const("3/2")
    assert s.term(1) == s.term(100) == F(3, 2)
    assert s.limsup() == s.inf() == F(3, 2)
    assert not s.vanishes()
    assert s.indices_geq(F(1)) is INFINITE
    assert s.indices_geq(F(2)) == []


def test_const_zero_is_cauchy():
    assert Const(0).vanishes()


def test_harmonic_metadata():
    s = Harmonic(1)
    assert s.term(3) == F(1, 3)
    assert s.vanishes() and s.inf() == 0 and s.sup() == 1
    assert s.indices_geq(F(1, 4)) == [1, 2, 3, 4]
    assert s.count_geq(F(2, 7)) == 3
    assert s.count_geq(F(1, 100)) == brute_count_geq(s, F(1, 100), 500)


def test_geometric_metadata():
    s = Geometric(1, "1/2")
    assert s.term(4) == F(1, 8)
    assert s.indices_geq(F(1, 8)) == [1, 2, 3, 4]
    assert s.count_geq(F(1, 100)) == brute_count_geq(s, F(1, 100), 200)
    with pytest.raises(InvalidDeclaration):
        Geometric(1, 1)
    with pytest.raises(InvalidDeclaration):
        Geometric(1, "3/2")


def test_prime_recip_metadata():
    s = PrimeRecip(1)
    assert [s.term(n) for n in range(1, 5)] == [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]
    assert s.sup() == F(1, 2)
    # primes <= 8 are 2, 3, 5, 7
    assert s.indices_geq(F(1, 8)) == [1, 2, 3, 4]
    assert s.count_geq(F(1, 30)) == brute_count_geq(s, F(1, 30), 60)
    assert nth_prime(10) == 29


def test_finite_support():
    s = FiniteSupport(("2", "0", "1/2"))
    assert s.term(2) == 0 and s.term(17) == 0
    assert s.sup() == 2 and s.vanishes()
    assert s.indices_geq(F(1, 2)) == [1, 3]
    assert s.has_zero_term()
    # the all-zero tail starts at index 4, so (4, 5) is the first adjacent pair
    assert s.has_adjacent_zero_pair() == 4


def test_modulated_interleaves():
    s = Modulated(2, (Harmonic(1), Const(0)))
    # positions: 1 -> 1/1, 2 -> 0, 3 -> 1/2, 4 -> 0, 5 -> 1/3 ...
    assert [s.term(n) for n in range(1, 6)] == [F(1), F(0), F(1, 2), F(0), F(1, 3)]
    assert s.vanishes()
    assert s.indices_geq(F(1, 3)) == [1, 3, 5]
    assert s.count_geq(F(1, 9)) == brute_count_geq(s, F(1, 9), 40)
    assert s.zero_in_progression(2, 2)          # even positions all zero
    assert s.all_zero_in_progression(2, 2)
    assert not s.zero_in_progression(1, 2)      # odd positions never zero
    assert s.has_adjacent_zero_pair() is None


@pytest.mark.parametrize("period", [2.0, True, "2"])
def test_modulated_refuses_a_period_that_is_not_an_int(period):
    with pytest.raises(InvalidDeclaration, match="^modulated period must be an integer"):
        Modulated(period, (Const(1), Const(0)))


def test_modulated_adjacent_zeros():
    s = Modulated(3, (Const(0), Const(0), Harmonic(2)))
    assert s.has_adjacent_zero_pair() == 1


def test_custom_validation_and_tail():
    # limsup smaller than a prefix term must be rejected
    with pytest.raises(InvalidDeclaration):
        Custom(("1", "1/2"), F(1, 4), F(0), F(0), True)
    with pytest.raises(InvalidDeclaration):
        Custom(("1/2",), F(1), F(0), F(1, 2), True)  # vanishes contradicts limsup
    with pytest.raises(InvalidDeclaration):
        Custom(("1/2",), F(1), F(0), F(1, 4), False)  # inf not materialized
    ok = Custom(("1/2", "1"), F(1), F(1, 3), F(1, 3), False)
    # tail alternates limsup, liminf
    assert ok.term(3) == F(1) and ok.term(4) == F(1, 3) and ok.term(5) == F(1)
    assert ok.indices_geq(F(1, 2)) is INFINITE
    assert ok.count_geq(F(3, 2)) == 0
    assert not ok.vanishes()


def test_custom_vanishing():
    # a positive prefix term above the declared limsup is rejected, so the
    # only vanishing customs are all-zero ones
    with pytest.raises(InvalidDeclaration):
        Custom(("1/2", "1/4"), F(0), F(0), F(0), True)
    s = Custom(("0", "0"), F(0), F(0), F(0), True)
    assert s.term(1) == 0 and s.term(99) == 0
    assert s.vanishes()
    assert s.indices_geq(F(1, 4)) == []
    assert s.has_adjacent_zero_pair() == 1


def test_ref_substitution_and_scaling():
    s = Geometric(Ref("site_label"), Ref("site_label"))
    assert s.has_refs()
    with pytest.raises(InvalidDeclaration):
        s.term(1)
    conc = s.substitute({"site_label": F(1, 3), "envelope": F(1)})
    assert conc.term(2) == F(1, 9)
    t = Harmonic(Ref("envelope", F(2))).substitute({"envelope": F(1, 4)})
    assert t.term(1) == F(1, 2)
    sc = Harmonic(1).scale(F(1, 2))
    assert sc.term(2) == F(1, 4)
    sc2 = Harmonic(F(2)).scale(Ref("envelope"))
    assert sc2.substitute({"envelope": F(1, 3)}).term(1) == F(2, 3)


def test_scaled_custom_and_modulated():
    m = Modulated(2, (Harmonic(1), Const(0))).scale(F(1, 2))
    assert m.term(1) == F(1, 2) and m.term(3) == F(1, 4) and m.term(2) == 0
    c = Custom(("1/2",), F(1), F(1, 2), F(1, 2), False).scale(F(2))
    assert c.term(1) == 1 and c.limsup() == 2


def test_stats_bundle():
    s = Modulated(2, (Harmonic(1), Const("1/3")))
    assert s.limsup() == F(1, 3)
    assert s.liminf() == 0
    assert s.inf() == 0
    assert not s.vanishes()


def test_count_geq_oracle_random():
    rng = random.Random(2024)
    pool = [
        Harmonic(F(rng.randrange(1, 5))),
        Geometric(F(rng.randrange(1, 4)), F(1, rng.randrange(2, 5))),
        PrimeRecip(F(rng.randrange(1, 4))),
        FiniteSupport(tuple(F(rng.randrange(0, 4), 2) for _ in range(5))),
    ]
    pool.append(Modulated(2, (pool[0], pool[1])))
    for s in pool:
        for k in (1, 2, 5, 9, 30):
            eps = F(1, k)
            got = s.count_geq(eps)
            assert got is not INFINITE
            assert got == brute_count_geq(s, eps, 800)


# ---------------------------------------------------------------------------
# batched terms against the term-by-term oracle

TERM_KINDS = [
    Const("3/2"),
    Const(0),
    FiniteSupport(("1", "1/2", "0", "1/3")),
    FiniteSupport(()),
    Harmonic("2/3"),
    Harmonic(0),
    Geometric(3, "2/5"),
    PrimeRecip("7/2"),
    Custom(("1/2", "1"), F(1), F(1, 3), F(1, 3), False),
    Custom((), F(1, 2), F(0), F(0), False),
    Modulated(3, (Harmonic(1), Geometric(1, "1/2"), FiniteSupport(("1",)))),
    Modulated(2, (
        Modulated(3, (PrimeRecip(1), Const("1/4"), Custom(("1",), F(1), F(0), F(0), False))),
        Modulated(1, (Harmonic(5),)),
    )),
]


@pytest.mark.parametrize("seq", TERM_KINDS, ids=lambda s: s.describe())
def test_terms_match_term_by_term(seq):
    for stop in range(-1, 30):
        assert seq.terms(stop) == [seq.term(n) for n in range(1, stop + 1)], stop


def test_terms_with_refs_raise_as_term_does():
    for seq in (Harmonic(Ref("site_label")), Geometric(1, Ref("envelope")),
                PrimeRecip(Ref("envelope")), Const(Ref("site_label"))):
        assert seq.terms(0) == []
        with pytest.raises(InvalidDeclaration) as want:
            seq.term(1)
        with pytest.raises(InvalidDeclaration) as got:
            seq.terms(3)
        assert str(got.value) == str(want.value)
    # a ref in a slot the batch does not reach raises nothing, term by term
    # or batched
    mixed = Modulated(3, (Harmonic(1), Const(2), Harmonic(Ref("site_label"))))
    assert mixed.terms(2) == [mixed.term(1), mixed.term(2)] == [F(1), F(2)]
    with pytest.raises(InvalidDeclaration, match="substitute first"):
        mixed.terms(3)


def test_terms_at_the_deepest_accepted_nesting():
    from ultratree.treeio import SEQ_DEPTH_CAP

    seq = Harmonic(1)
    for _ in range(SEQ_DEPTH_CAP):
        seq = Modulated(1, (seq,))
    assert seq.terms(4) == [F(1), F(1, 2), F(1, 3), F(1, 4)]
    assert not seq.has_refs()


@pytest.mark.parametrize("seq", TERM_KINDS, ids=lambda s: s.describe())
def test_scale_then_terms_is_terms_times_the_factor(seq):
    for factor in (F(1), F(3), F(2, 7)):
        assert seq.scale(factor).terms(25) == [factor * t for t in seq.terms(25)]


def test_scaled_terms_with_refs_raise_as_unscaled_ones_do():
    for seq in (Harmonic(Ref("site_label")), Geometric(1, Ref("envelope")),
                PrimeRecip(Ref("envelope", F(1, 2))), Const(Ref("site_label")),
                Modulated(2, (Harmonic(1), Harmonic(Ref("envelope"))))):
        with pytest.raises(InvalidDeclaration) as want:
            seq.terms(4)
        with pytest.raises(InvalidDeclaration) as got:
            seq.scale(F(3)).terms(4)
        assert str(got.value) == str(want.value) == (
            "sequence still contains template refs; substitute first"
        )


# ---------------------------------------------------------------------------
# zero profiles of nested modulated sequences


def _loose_profile(seq):
    """The certificate without the everywhere-or-nowhere shortcut: each
    modulated level multiplies its children's threshold and period."""
    if isinstance(seq, Modulated):
        thresholds, periods = zip(*(_loose_profile(s) for s in seq.seqs))
        return seq.period * (max(thresholds) + 1), seq.period * math.lcm(*periods)
    return seq.zero_profile()


def _random_nested(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((
            lambda: Const(rng.choice((F(0), F(1, 2)))),
            lambda: Harmonic(rng.choice((F(0), F(1)))),
            lambda: Geometric(rng.choice((F(0), F(1))), F(1, 2)),
            lambda: PrimeRecip(rng.choice((F(0), F(2)))),
            lambda: FiniteSupport(tuple(rng.choice((F(0), F(1))) for _ in range(rng.randint(0, 3)))),
            lambda: (lambda zeros, low: Custom((F(0),) * zeros, F(1), low,
                                               F(0) if zeros else low, False))(
                rng.randint(0, 2), rng.choice((F(0), F(1, 2)))),
        ))()
    period = rng.randint(1, 3)
    return Modulated(period, tuple(_random_nested(rng, depth - 1) for _ in range(period)))


def test_zero_questions_match_brute_force_on_nested_sequences():
    """Each answer equals a scan of the terms over a window the loose
    certificate covers, on seeded nestings up to four levels deep."""
    rng = random.Random(2718)
    shortcut = 0
    for _ in range(400):
        seq = _random_nested(rng, 4)
        n0, q = _loose_profile(seq)
        zero = [None] + [t == 0 for t in seq.terms(n0 + 16 * q + 8)]
        shortcut += seq.zero_profile() == (0, 1) != (n0, q)
        for start, step in ((1, 1), (1, 2), (2, 2), (3, 3), (2, 5)):
            window = range(start, n0 + 3 * step * q + step + 1, step)
            assert seq.zero_in_progression(start, step) == any(zero[n] for n in window)
            assert seq.all_zero_in_progression(start, step) == all(zero[n] for n in window)
        first = next((n for n in range(1, n0 + 2 * q + 2) if zero[n] and zero[n + 1]), None)
        assert seq.has_adjacent_zero_pair() == first
    assert shortcut > 20


_TERMS = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2))
_BINDINGS = {"site_label": F(1, 2), "envelope": F(1, 3)}


def _random_kind(rng, depth, refs=False):
    """A sequence of any kind with ``modulated`` nested up to ``depth``
    levels; with ``refs`` a parameter that may be a ref sometimes is one,
    in (0, 1) once bound by ``_BINDINGS``."""
    def ref():
        return Ref(rng.choice(("site_label", "envelope")), rng.choice((F(1), F(1, 2))))

    def val():
        return ref() if refs and rng.random() < 0.4 else rng.choice(_TERMS)

    def prefix():
        return tuple(rng.choice(_TERMS) for _ in range(rng.randint(0, 4)))

    kinds = ["const", "finite_support", "harmonic", "geometric", "prime_recip", "custom"]
    kind = rng.choice(kinds + ["modulated"] * 3 * (depth > 0))
    if kind == "modulated":
        period = rng.randint(1, 3)
        return Modulated(period, tuple(_random_kind(rng, depth - 1, refs) for _ in range(period)))
    if kind == "custom":
        terms, liminf = prefix(), rng.choice(_TERMS)
        limsup = max((*terms, liminf, rng.choice(_TERMS)))
        return Custom(terms, limsup, liminf, min((*terms, liminf)), limsup == 0)
    if kind == "geometric":
        ratio = ref() if refs and rng.random() < 0.4 else rng.choice((F(1, 2), F(2, 3)))
        return Geometric(val(), ratio)
    if kind == "finite_support":
        return FiniteSupport(prefix())
    return {"const": Const, "harmonic": Harmonic, "prime_recip": PrimeRecip}[kind](val())


def test_progression_rules_match_brute_force_terms():
    """``class_limits`` and ``settle`` on seeded nestings of every kind, for
    each start 1..6 and step 1..4: past ``settle`` each residue class of the
    terms at start + k*step is non-increasing, at or above its limit, and
    within 1/100 of it some 2000 steps out."""
    rng = random.Random(1618)
    classes = 0
    for _ in range(150):
        seq = _random_kind(rng, 2)
        for start in range(1, 7):
            for step in range(1, 5):
                q, limits = seq.class_limits(start, step)
                settle = seq.settle(start, step)
                assert len(limits) == q
                for r, limit in enumerate(limits):
                    first = settle + (r - settle) % q  # the first k >= settle in class r
                    near = [seq.term(start + k * step) for k in range(first, first + 8 * q, q)]
                    assert all(a >= b >= limit for a, b in zip(near, near[1:])), (seq, start, step, r)
                    far = seq.term(start + (first + q * (2000 // q)) * step)
                    assert limit <= far < limit + F(1, 100), (seq, start, step, r)
                classes += q
    print(f"progression rules: {classes} residue classes checked")


def test_statistics_match_brute_force_terms():
    """On seeded nestings of every kind: ``sup`` is the largest of the first
    200 terms and ``inf`` their smallest, or 0 below it; ``limsup`` and
    ``liminf`` are at most the largest and smallest term of indices
    2000..2100 and within 1/100 of them; ``vanishes`` is limsup == 0."""
    rng = random.Random(1620)
    for _ in range(400):
        seq = _random_kind(rng, 2)
        head, far = seq.terms(200), seq.terms(2100)[1999:]
        assert seq.sup() == max(head), seq
        assert seq.inf() == min(head) or 0 == seq.inf() < min(head), seq
        assert max(far) - F(1, 100) < seq.limsup() <= max(far), seq
        assert min(far) - F(1, 100) < seq.liminf() <= min(far), seq
        assert seq.vanishes() == (seq.limsup() == 0), seq


def test_count_last_geq_matches_the_listed_indices():
    """``count_last_geq`` gives the length and the largest entry (0 when
    empty) of ``indices_geq``, or INFINITE with it, on seeded nestings."""
    rng = random.Random(1621)
    for _ in range(400):
        seq = _random_kind(rng, 2)
        for eps in (F(1, 7), F(1, 3), F(1, 2), F(1), F(2)):
            idx = seq.indices_geq(eps)
            want = idx if idx is INFINITE else (len(idx), max(idx, default=0))
            assert seq.count_last_geq(eps) == want, (seq, eps)
            assert seq.count_geq(eps) == (idx if idx is INFINITE else len(idx))


def test_sup_factors_match_the_largest_term():
    """The largest product of ``sup_factors(skip)``, refs bound, is the
    largest term at an index other than ``skip``, on seeded nestings with
    refs.  Every kind's largest term sits within the first 120 indices."""
    rng = random.Random(1619)
    for _ in range(300):
        seq = _random_kind(rng, 2, refs=True)
        terms = [None, *seq.substitute(_BINDINGS).terms(120)]
        for skip in (None, *range(1, 9)):
            products = [math.prod(resolve_val(f, _BINDINGS) for f in factors)
                        for factors in seq.sup_factors(skip)]
            assert max(products) == max(t for n, t in enumerate(terms) if n and n != skip), (seq, skip)


def test_zero_profile_with_refs_keeps_the_loose_certificate():
    """``is_zero`` raises on refs, so a nesting with a ref is not checked for
    the shortcut and its profile is computed as before, without raising."""
    seq = Modulated(2, (Harmonic(Ref("site_label")), Modulated(1, (Const(F(1, 2)),))))
    assert seq.zero_profile() == (2 * (0 + 1), 2 * 1)
    assert Modulated(2, (Harmonic(1), Const(F(1, 2)))).zero_profile() == (0, 1)
    assert Modulated(2, (Harmonic(1), Const(0))).zero_profile() == (2, 2)


def test_zero_profile_of_a_deep_never_zero_nesting_within_budget():
    """A ray labeled by ``modulated(2; ., const(1/2))`` nested 30 deep: the
    loose certificate's window would have about 2**31 terms."""
    from ultratree.classify import classify
    from ultratree.symbolic import Ray

    budget = 2.0
    seq = Harmonic(1)
    for _ in range(30):
        seq = Modulated(2, (seq, Const(F(1, 2))))
    start = time.perf_counter()
    assert seq.zero_profile() == (0, 1)
    assert not seq.zero_in_progression(1, 1) and not seq.all_zero_in_progression(2, 3)
    assert seq.has_adjacent_zero_pair() is None
    verdict = classify(Ray(seq))
    took = time.perf_counter() - start
    print(f"nested modulated depth 30: zero questions and classify in {took:.3f}s of {budget:.0f}s")
    assert verdict.complete and not verdict.totally_bounded
    assert took < budget


# ---------------------------------------------------------------------------
# the trusted constructor and the batches built in lowest terms


def test_fraction_keeps_the_slots_the_trusted_constructor_sets():
    # coprime_fraction writes these two slots; every supported Python has them
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def test_coprime_fraction_is_the_fraction_the_constructor_makes():
    rng = random.Random(4099)
    pairs = [(0, 1), (1, 1), (-3, 4), (7, 2)]
    while len(pairs) < 300:
        n = rng.randrange(-(10 ** rng.randrange(1, 60)), 10 ** rng.randrange(1, 60))
        d = rng.randrange(1, 10 ** rng.randrange(1, 60))
        if math.gcd(n, d) == 1:
            pairs.append((n, d))
    for n, d in pairs:
        got, want = coprime_fraction(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (n, d)
        assert got == want and hash(got) == hash(want) and {want: 1}[got] == 1
        assert (repr(got), str(got), format_rational(got)) == (
            repr(want), str(want), format_rational(want))
        other = Fraction(rng.randrange(-50, 50), rng.randrange(1, 50))
        for op in (operator.add, operator.sub, operator.mul, operator.lt, operator.eq):
            assert op(got, other) == op(want, other) and op(other, got) == op(other, want)
        assert (-got, abs(got), got / 7, got**3) == (-want, abs(want), want / 7, want**3)


def _naive_term(seq, k):
    """Each kind's term from its definition, one term at a time."""
    if isinstance(seq, Harmonic):
        return seq.a / k
    if isinstance(seq, PrimeRecip):
        return seq.a / _trial_division_primes()[k - 1]
    if isinstance(seq, Geometric):
        return seq.a * seq.r ** (k - 1)
    i, j = (k - 1) % seq.period, (k - 1) // seq.period + 1
    return _naive_term(seq.seqs[i], j)


@cache
def _trial_division_primes(count=10_000):
    primes = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in takewhile(lambda p: p * p <= cand, primes)):
            primes.append(cand)
        cand += 1
    return primes


def _random_batch_seq(rng, depth=2):
    a = rng.choice((F(0), F(1), F(9, 4), F(rng.randrange(1, 10**6), rng.randrange(1, 10**6))))
    kind = rng.randrange(4 if depth else 3)
    if kind == 0:
        return Harmonic(a)
    if kind == 1:
        return PrimeRecip(a)
    if kind == 2:
        den = rng.randrange(2, 40)
        return Geometric(a, rng.choice((F(2, 3), F(rng.randrange(1, den), den))))
    period = rng.randint(1, 3)
    return Modulated(period, tuple(_random_batch_seq(rng, depth - 1) for _ in range(period)))


def test_batches_match_the_naive_terms_in_lowest_terms():
    rng = random.Random(1009)
    seqs = [Geometric(F(9, 4), F(2, 3)), Geometric(0, F(1, 2)), Harmonic(0), PrimeRecip(0),
            Harmonic(F(6, 35)), PrimeRecip(F(10, 3))]
    seqs += [_random_batch_seq(rng) for _ in range(300)]
    for i, seq in enumerate(seqs):
        stop = 1200 if i % 50 == 0 else rng.randrange(1, 40)
        factor = F(rng.randrange(1, 30), rng.randrange(1, 30))
        batch, scaled = seq.terms(stop), seq.scale(factor).terms(stop)
        assert batch == [seq.term(k) for k in range(1, stop + 1)], seq.describe()
        for k, (t, s) in enumerate(zip(batch, scaled), 1):
            assert t == _naive_term(seq, k) and s == factor * t, (seq.describe(), k)
            for x in (t, s):
                assert type(x) is Fraction and x.denominator > 0
                assert math.gcd(x.numerator, x.denominator) == 1, (seq.describe(), k)


# ---------------------------------------------------------------------------
# the prime sieve


@pytest.fixture
def fresh_primes(monkeypatch):
    """An empty prime table, as in a new process."""
    monkeypatch.setattr(seqs_module, "_PRIMES", [])
    monkeypatch.setattr(seqs_module, "_sieved", 2)


def test_sieve_matches_trial_division(fresh_primes):
    want = _trial_division_primes()
    assert [nth_prime(k) for k in range(1, 10_001)] == want
    assert nth_prime(200_000) == 2_750_159 <= PRIME_SIEVE_LIMIT


def test_prime_recip_star_and_count_within_budget(fresh_primes):
    """From an empty table: a 40,000-leaf star of ``prime_recip(1)``, and
    the count of ``prime_recip(10**5)`` labels >= 1, the primes <= 10**5."""
    from ultratree.symbolic import Ray, Star, count_vertices_geq, truncate

    budget = 3.0
    start = time.perf_counter()
    tree, _ = truncate(Star(F(1), PrimeRecip(1)), 40_000)
    took = time.perf_counter() - start
    print(f"truncate star(1; prime_recip(1)) at budget 40000: {took:.3f}s of {budget:.0f}s")
    assert len(tree.vertices) == 40_001
    assert max(l for l in tree.labels.values() if l < 1) == F(1, 2)
    assert took < budget

    seqs_module._PRIMES[:], seqs_module._sieved = [], 2
    budget = 1.0
    start = time.perf_counter()
    count = count_vertices_geq(Ray(PrimeRecip(10**5)), F(1))
    took = time.perf_counter() - start
    print(f"count of ray prime_recip(10**5) at eps 1: {took:.3f}s of {budget:.0f}s")
    assert count == 9_592
    assert took < budget


def test_prime_count_past_the_sieve_limit_is_refused(fresh_primes):
    from ultratree.symbolic import Ray, count_vertices_geq

    budget = 1.0
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded) as err:
        count_vertices_geq(Ray(PrimeRecip(10**7)), F(1))
    took = time.perf_counter() - start
    print(f"count of ray prime_recip(10**7) at eps 1: refused in {took:.4f}s of {budget:.0f}s")
    assert str(err.value) == f"prime sieve size {10**7} exceeds cap {PRIME_SIEVE_LIMIT}"
    assert seqs_module._PRIMES == []  # refused before sieving
    assert PrimeRecip(F(1, 2)).count_geq(F(1, 2 * PRIME_SIEVE_LIMIT)) == len(
        seqs_module._PRIMES)
    assert took < budget
