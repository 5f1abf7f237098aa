import random
import sys
from fractions import Fraction

import pytest

from censtab.errors import FieldMismatch, ParseError
from censtab.scalars import MAX_LITERAL_DIGITS, RATIONALS, FieldSpec, is_prime, prime_field

Q = RATIONALS
GF7 = prime_field(7)


def test_rational_examples():
    assert Q.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert Q.parse("-2/4") == Fraction(-1, 2)
    assert Q.parse("7") == Fraction(7, 1)
    assert Q.format(Fraction(-1, 2)) == "-1/2"
    assert Q.format(Fraction(7)) == "7"


def test_prime_field_examples():
    assert GF7.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    assert GF7.parse("10") == 3
    assert GF7.format(10) == "3"


def test_parse_errors():
    with pytest.raises(ZeroDivisionError):
        Q.parse("1/0")
    with pytest.raises(ParseError):
        Q.parse("1.5")
    with pytest.raises(ParseError):
        GF7.parse("-1")
    with pytest.raises(ParseError):
        Q.parse("x")


def test_only_ascii_digits_parse():
    # "\u0661" (Arabic-Indic one) and "\uff11" (fullwidth one) are decimal
    # digits to int(), but not to the grammar
    for field in (Q, GF7):
        for text in ("\u0661", "\uff11", "1\u0660"):
            with pytest.raises(ParseError):
                field.parse(text)
    for text in ("-\u0661", "1/\uff12"):
        with pytest.raises(ParseError):
            Q.parse(text)


def test_parse_format_round_trip():
    rng = random.Random(11)
    for field in (Q, GF7, prime_field(101)):
        for _ in range(200):
            s = field.random_scalar(rng)
            assert field.parse(field.format(s)) == s
    # parsing canonicalizes
    assert Q.format(Q.parse("-2/4")) == "-1/2"
    assert Q.format(Q.parse("6/3")) == "2"


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        Q.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF7.inv(0)


def test_coerce_rejects_foreign_values():
    with pytest.raises(FieldMismatch):
        GF7.coerce(Fraction(1, 2))
    with pytest.raises(FieldMismatch):
        Q.coerce("3")
    assert Q.coerce(3) == Fraction(3)
    assert GF7.coerce(-1) == 6


def test_field_axioms_random_triples():
    rng = random.Random(5)
    for field in (Q, GF7, prime_field(97)):
        for _ in range(300):
            a, b, c = (field.random_scalar(rng) for _ in range(3))
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            assert field.add(a, field.neg(a)) == field.zero
            if a:
                assert field.mul(a, field.inv(a)) == field.one


def test_canonical_fractions():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randint(-30, 30)
        b = rng.randint(1, 30)
        x = Fraction(a, b)
        assert x.denominator > 0
        from math import gcd

        assert gcd(x.numerator, x.denominator) == 1


def test_prime_validation():
    assert is_prime(2) and is_prime(97) and is_prime(101)
    assert not is_prime(1) and not is_prime(91)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        prime_field(1)
    with pytest.raises(ValueError):
        prime_field(2**64 + 13)  # beyond machine-word bound


def test_literal_length_is_bounded():
    # every integer Python writes by default reads back, and no longer one
    assert MAX_LITERAL_DIGITS == sys.int_info.default_max_str_digits
    longest = "9" * MAX_LITERAL_DIGITS
    assert Q.parse(longest) == int(longest)
    assert Q.parse("-" + longest) == -int(longest)
    sevens = "7" * MAX_LITERAL_DIGITS
    assert Q.parse(f"-{longest}/{sevens}") == Fraction(-int(longest), int(sevens))
    assert GF7.parse(longest) == int(longest) % 7
    for field in (Q, GF7):
        for text in ("1" * (MAX_LITERAL_DIGITS + 1), "1" * 5000):
            with pytest.raises(ParseError, match="exceeds the limit"):
                field.parse(text)
    for text in ("1/" + "3" * (MAX_LITERAL_DIGITS + 1), "-" + "2" * (MAX_LITERAL_DIGITS + 1) + "/3"):
        with pytest.raises(ParseError, match="exceeds the limit"):
            Q.parse(text)
