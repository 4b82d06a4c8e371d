"""Unit tests for digit extraction and pattern counting."""

import math
import random
from itertools import product

import pytest

from korosum import digits as dg
from korosum import numtheory as nt
from korosum import sumeval as se
from korosum.errors import NotCoprime, OutOfRange

P5 = nt.PrimeSet.of(5)


def long_division_digits(a, m, b, count):
    """Schoolbook long division, one residue step per digit: the independent
    oracle for the blocked digits."""
    out = []
    r = a
    for _ in range(count):
        r *= b
        out.append(r // m)
        r %= m
    return out


def naive_count(a, m, pattern, N):
    """O(N k) window scanner over a materialized digit list."""
    k = len(pattern.digits)
    ds = long_division_digits(a, m, pattern.base, N + k - 1)
    return sum(1 for n in range(N) if tuple(ds[n : n + k]) == pattern.digits)


class TestDigitPattern:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            dg.DigitPattern(10, ())
        with pytest.raises(OutOfRange):
            dg.DigitPattern(2, (2,))
        assert dg.DigitPattern.from_string("1a", 16).digits == (1, 10)
        assert dg.DigitPattern.from_string("1F", 16).digits == (1, 15)
        assert dg.DigitPattern.from_string("z0", 36).digits == (35, 0)
        assert dg.DigitPattern.from_string("14", 10).digits == (1, 4)

    # a digit at or above the base, and non-ASCII digits (ARABIC-INDIC THREE,
    # FULLWIDTH ONE) and letters (KELVIN SIGN, whose lower case is "k")
    @pytest.mark.parametrize("text, base", [
        ("1g", 16), ("1a", 10), ("1\u0663", 10), ("\uff11", 10), ("\u212a", 36), ("1 ", 10),
    ])
    def test_from_string_rejects(self, text, base):
        with pytest.raises(OutOfRange) as exc:
            dg.DigitPattern.from_string(text, base)
        assert f"pattern {text!r}" in str(exc.value)


class TestDigitAt:
    def test_one_third(self):
        for n in (1, 2, 17, 100):
            assert dg.digit_at(1, 3, 10, n) == 3

    def test_one_seventh(self):
        assert [dg.digit_at(1, 7, 10, n) for n in range(1, 7)] == [1, 4, 2, 8, 5, 7]

    def test_two_sevenths_cyclic_shift(self):
        assert [dg.digit_at(2, 7, 10, n) for n in range(1, 7)] == [2, 8, 5, 7, 1, 4]

    def test_matches_long_division(self):
        rng = random.Random(3)
        for _ in range(25):
            m = rng.choice([7, 49, 81, 121, 343, 625])
            b = rng.choice([2, 3, 10])
            if math.gcd(b, m) != 1:
                continue
            a = rng.randrange(1, m)
            want = long_division_digits(a, m, b, 40)
            got = [dg.digit_at(a, m, b, n) for n in range(1, 41)]
            assert got == want

    def test_periodicity(self):
        for a, m, b in ((1, 7, 10), (3, 125, 2), (5, 81, 10)):
            period = nt.mult_order(b, m)
            for n in range(1, 3 * period + 1):
                assert dg.digit_at(a, m, b, n) == dg.digit_at(a, m, b, n + period)

    def test_rejects_bad_inputs(self):
        with pytest.raises(OutOfRange):
            dg.digit_at(0, 7, 10, 1)
        with pytest.raises(OutOfRange):
            dg.digit_at(7, 7, 10, 1)
        with pytest.raises(NotCoprime):
            dg.digit_at(1, 10, 10, 1)


class TestCountOccurrences:
    def test_constant_expansion(self):
        rep = dg.count_occurrences(1, 3, dg.DigitPattern(10, (3,)), 100)
        assert rep.count == 100
        assert rep.expected == pytest.approx(10.0)

    def test_pattern_14_in_one_seventh(self):
        # expansion 142857 142857...: "14" starts once in positions 1..6;
        # position 6 would need digits (7, 1) = "71", not "14"
        rep = dg.count_occurrences(1, 7, dg.DigitPattern(10, (1, 4)), 6)
        assert rep.count == 1

    def test_match_may_extend_past_n(self):
        # "71" starts at position 6, read digit 7 beyond N = 6
        rep = dg.count_occurrences(1, 7, dg.DigitPattern(10, (7, 1)), 6)
        assert rep.count == 1

    def test_single_seven(self):
        assert dg.count_occurrences(1, 7, dg.DigitPattern(10, (7,)), 6).count == 1

    def test_against_naive_scanner(self):
        rng = random.Random(17)
        for _ in range(40):
            m = rng.choice([7, 31, 49, 81, 625, 2401])
            b = rng.choice([2, 3, 10])
            if math.gcd(b, m) != 1:
                continue
            a = rng.randrange(1, m)
            k = rng.randrange(1, 4)
            pattern = dg.DigitPattern(b, tuple(rng.randrange(b) for _ in range(k)))
            N = rng.randrange(1, 300)
            assert dg.count_occurrences(a, m, pattern, N).count == naive_count(a, m, pattern, N)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_position_starts_one_pattern(self, k):
        a, m, b, N = 3, 343, 10, 200
        total = sum(
            dg.count_occurrences(a, m, dg.DigitPattern(b, ds), N).count
            for ds in product(range(b), repeat=k)
        )
        assert total == N

    @pytest.mark.parametrize("m,b", [(3**13, 2), (7**9, 10), (3**39, 10), (3**41, 2), (2**89 - 1, 16)],
                             ids=["3^13", "7^9", "3^39_b_m_past_2^63", "3^41", "2^89-1"])
    def test_a_pattern_is_a_residue_interval(self, m, b):
        # digits n..n+k-1 of a/m read P exactly when the residue
        # r = a b^(n-1) mod m lies in [ceil(P m / b^k), ceil((P + 1) m / b^k));
        # the pattern at n, its neighbours P - 1 and P + 1, and residues at
        # the edges, each checked against digit_at
        rng = random.Random(m)
        for _ in range(30):
            a, n, k = rng.randrange(1, m), rng.randrange(1, 10**6), rng.randrange(1, 6)
            r = a * pow(b, n - 1, m) % m
            read = sum(dg.digit_at(a, m, b, n + j) * b ** (k - 1 - j) for j in range(k))
            for P in {max(read - 1, 0), read, min(read + 1, b**k - 1)}:
                pattern = dg.DigitPattern(b, tuple(P // b ** (k - 1 - j) % b for j in range(k)))
                lo, hi = -(-P * m // b**k), -(-(P + 1) * m // b**k)
                assert (lo <= r < hi) == (P == read)
                for x in {v for v in (r, lo - 1, lo, hi - 1, hi) if 1 <= v < m}:
                    hit = all(dg.digit_at(x, m, b, 1 + j) == d for j, d in enumerate(pattern.digits))
                    assert (lo <= x < hi) == hit
                    assert dg.count_occurrences(x, m, pattern, 1).count == hit

    @pytest.mark.parametrize("k", [1, 3, se._BLOCK + 7])
    def test_reads_exactly_n_residues(self, k, monkeypatch):
        # however long the pattern, the first N residues are all it needs
        asked, orbit_blocks = [], dg._orbit_blocks

        def spy(r0, b0, m, N):
            asked.append(N)
            return orbit_blocks(r0, b0, m, N)

        monkeypatch.setattr(dg, "_orbit_blocks", spy)
        dg.count_occurrences(3, 5**9, dg.DigitPattern(2, (1,) * k), 1000)
        assert asked == [1000]


class TestBlockedAgainstStream:
    """Blocked digits against long division, at block boundaries and past
    the int64 ranges."""

    B = se._BLOCK

    @pytest.mark.parametrize(
        "a,m,pattern",
        [
            (5, 3**13, dg.DigitPattern(2, (1, 0, 1))),
            (12345, 7**9, dg.DigitPattern(10, (1, 4))),
            (77, 3**11, dg.DigitPattern(16, (15, 3))),
        ],
        ids=["base2", "base10", "base16"],
    )
    @pytest.mark.parametrize("length", [B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1])
    def test_read_length_around_block_multiples(self, a, m, pattern, length):
        # N + k - 1 digits hold the N starts: just below, at and above a
        # block boundary; the second pattern straddles the first boundary (or
        # is the last window, when the stream ends before it)
        k = len(pattern)
        N = length - k + 1
        ds = long_division_digits(a, m, pattern.base, length)
        at = min(self.B - 1, N - 1)
        straddling = dg.DigitPattern(pattern.base, tuple(ds[at : at + k]))
        for p in (pattern, straddling):
            assert dg.count_occurrences(a, m, p, N).count == naive_count(a, m, p, N)
        assert dg.digit_frequencies(a, m, pattern.base, N) == [
            ds[:N].count(d) for d in range(pattern.base)
        ]

    @pytest.mark.parametrize("N,start", [(3, 2), (B + 10, B + 5)])
    def test_pattern_longer_than_the_stream(self, N, start):
        # k > _BLOCK, a pattern longer than a block; the pattern is read from
        # the stream at `start`, and a copy with its last digit flipped
        a, m, b = 3, 5**9, 2
        k = self.B + 7
        ds = long_division_digits(a, m, b, N + k - 1)
        present = dg.DigitPattern(b, tuple(ds[start - 1 : start - 1 + k]))
        absent = dg.DigitPattern(b, present.digits[:-1] + (1 - present.digits[-1],))
        assert dg.count_occurrences(a, m, present, N).count >= 1
        for pattern in (present, absent):
            assert dg.count_occurrences(a, m, pattern, N).count == naive_count(a, m, pattern, N)

    def test_fallback_above_int64_residues(self):
        # Python-int residues, over a block boundary
        a, m, b, N = 1234567, 3**21, 2, self.B + 300
        assert m > se._INT64_SAFE_M
        pattern = dg.DigitPattern(b, (1, 1, 0))
        assert dg.count_occurrences(a, m, pattern, N).count == naive_count(a, m, pattern, N)
        ds = long_division_digits(a, m, b, N)
        assert dg.digit_frequencies(a, m, b, N) == [ds.count(0), ds.count(1)]

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_base_times_modulus_at_the_int64_guard(self, side):
        # the largest base with b m within int64 and the smallest past it,
        # both coprime to m, against long division: digit_frequencies at
        # m = 3^38 (bases 5 and 7, Python-int residues), and at m = 3^19,
        # whose bases near 7.9e9 are past the frequencies' cap, the pattern
        # count, which compares residues alone
        int64_max = 2**63 - 1

        def base(m):
            b = int64_max // m + (side == "above")
            while b % 3 == 0:
                b += -1 if side == "below" else 1
            assert (b * m <= int64_max) == (side == "below")
            return b

        a, N = 987654321, 300
        m = 3**38
        b = base(m)
        ds = long_division_digits(a, m, b, N)
        assert dg.digit_frequencies(a, m, b, N) == [ds.count(d) for d in range(b)]
        m = 3**19
        b = base(m)
        ds = long_division_digits(a, m, b, N + 1)
        pattern = dg.DigitPattern(b, tuple(ds[10:12]))
        assert dg.count_occurrences(a, m, pattern, N).count == naive_count(a, m, pattern, N) >= 1
        with pytest.raises(OutOfRange, match="base must be at most 1048576"):
            dg.digit_frequencies(a, m, b, N)

    def test_frequencies_stop_at_the_base_cap(self):
        # at most 2^20 counters (an 8 MB list), so int64 digits b r // m stay
        # in int64 (b m < 2^63 while m <= 3.04e9) and a huge base raises
        # OutOfRange instead of asking for gigabytes of counters
        a, m, N = 987654321, 3**19, 60
        b = dg._MAX_FREQUENCY_BASE
        assert b == 2**20 and b * se._INT64_SAFE_M < 2**63
        ds = long_division_digits(a, m, b, N)
        freq = dg.digit_frequencies(a, m, b, N)
        assert len(freq) == b and {d: freq[d] for d in ds} == {d: ds.count(d) for d in ds} and sum(freq) == N
        for big in (b + 1, 7935711799):
            with pytest.raises(OutOfRange, match=f"at most {b} for digit frequencies, got {big}"):
                dg.digit_frequencies(a, m, big, N)


class TestDeviationReport:
    def test_well_formed_when_expected_below_one(self):
        pattern = dg.DigitPattern(2, (1, 0, 1, 1, 0, 1, 0, 1))
        rep = dg.deviation_report(1, 5**4, pattern, 20, P5)
        assert rep.occurrence.expected < 1
        assert rep.envelope > 0
        assert rep.ratio >= 0

    def test_full_period_exact_counts(self):
        m = 5**4
        N = nt.mult_order(2, m)
        zeros = dg.deviation_report(1, m, dg.DigitPattern(2, (0,)), N, P5)
        ones = dg.deviation_report(1, m, dg.DigitPattern(2, (1,)), N, P5)
        assert zeros.occurrence.count + ones.occurrence.count == N

    def test_frequencies_match_counts(self):
        # b m past 2^63 at 3^39 in base 10, and m past 2^63 at 3^41
        N = 500
        for m, b in ((5**4, 2), (3**39, 10), (3**41, 2)):
            freq = dg.digit_frequencies(1, m, b, N)
            for d in range(b):
                assert freq[d] == dg.count_occurrences(1, m, dg.DigitPattern(b, (d,)), N).count
