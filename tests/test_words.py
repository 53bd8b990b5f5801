import random

import pytest
from hypothesis import given, strategies as st

from betalab.errors import UsageError
from betalab.words import (
    SymbolWord,
    as_word,
    check_byte_alphabet,
    format_digits,
    format_periodic,
    parse_digit_string,
    parse_digits,
    self_admissible,
)


def test_symbol_word_basics():
    """A SymbolWord is an unchecked bytes word: it compares, hashes, slices
    and concatenates as bytes, and `digits` is the plain bytes."""
    w = SymbolWord((1, 0, 1))
    assert isinstance(w, bytes) and w == b"\x01\x00\x01"
    assert w.digits == b"\x01\x00\x01" and type(w.digits) is bytes
    assert hash(w) == hash(b"\x01\x00\x01")
    assert type(w[1:]) is bytes and type(w + w) is bytes
    assert not hasattr(w, "__dict__")  # nothing stored besides the digits
    assert w == SymbolWord(b"\x01\x00\x01")
    assert len(w) == 3
    assert list(w) == [1, 0, 1]
    assert w[1] == 0
    assert format_digits(w) == "101"


def test_words_wider_than_a_byte_are_usage_errors():
    """A bytes digit is at most 255: larger digits and alphabets are
    refused, never wrapped."""
    for bound in (256, 400):
        with pytest.raises(UsageError, match="does not fit in a byte"):
            check_byte_alphabet(bound)
    check_byte_alphabet(255)
    for bad in ((256,), (1, -1), [0, 300]):
        with pytest.raises(UsageError, match=r"must lie in 0\.\.255"):
            as_word(bad)
    with pytest.raises(UsageError, match="not an int"):
        as_word(3)  # bytes(3) would be three zero digits
    word = b"\x00\x01"
    assert as_word(word) is word
    assert as_word((0, 1)) == as_word(SymbolWord((0, 1))) == word
    assert as_word((255,)) == b"\xff"


def test_concat_and_shift():
    """Words concatenate and shift as bytes."""
    a = SymbolWord((1, 0))
    b = SymbolWord((0, 1))
    assert a.digits + b.digits == bytes((1, 0, 0, 1))
    assert a + b == SymbolWord((1, 0, 0, 1))
    assert a.digits[1:] == b"\x00"  # the shift drops the first digit


def test_hamming():
    a = SymbolWord((1, 0, 1))
    b = SymbolWord((1, 1, 1))
    assert a.hamming(b) == 1
    assert a.hamming(a) == 0


def test_hamming_length_mismatch():
    with pytest.raises(UsageError):
        SymbolWord((1,)).hamming(SymbolWord((1, 0)))


def test_self_admissible():
    assert self_admissible((1, 0, 1, 0))
    assert not self_admissible((1, 0, 1, 1))  # shifted suffix exceeds the word


def oracle_self_admissible_slices(digits):
    """Each shift sigma^k(w) as a fresh slice, compared with w over the
    slice's length (equality counts as <=)."""
    return all(digits[k:] <= digits[:len(digits) - k]
               for k in range(1, len(digits)))


def test_self_admissible_matches_the_slice_scan():
    """Seeded random words of length <= 12 over {0, 1, 2}; both verdicts
    occur."""
    rng = random.Random(2009)
    verdicts = set()
    for _ in range(20000):
        word = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 12)))
        verdict = self_admissible(word)
        assert verdict == oracle_self_admissible_slices(word), word
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_parse_digit_string_forms():
    assert parse_digit_string("10(10)") == ((1, 0), (1, 0))
    assert parse_digit_string("(201001)") == ((), (2, 0, 1, 0, 0, 1))
    assert parse_digit_string("111") == ((1, 1, 1), ())
    assert parse_digit_string("[10]3") == ((10, 3), ())


def test_parse_digit_string_rejects_garbage():
    for text in ("1(2", "[1", "1[x]", "[]", "\u00b2", ""):
        with pytest.raises(UsageError):
            parse_digit_string(text)


def test_parse_digits_grammar():
    """Single decimal digits and bracketed numbers, with commas and spaces
    between them; any Unicode decimal digit reads as its value."""
    assert parse_digits("2, 0 1") == (2, 0, 1)
    assert parse_digits("[10] 3") == (10, 3)
    assert parse_digits("\u0663") == (3,)
    for text in ("[1 0]", "1]", "[1", "1[x]", "[]", "\u00b2"):
        with pytest.raises(UsageError, match="malformed digit string"):
            parse_digits(text)


def test_format_round_trip():
    assert format_digits((1, 0, 1)) == "101"
    assert format_periodic((1, 0), (1, 0)) == "10(10)"
    assert parse_digit_string(format_periodic((2,), (0, 1))) == ((2,), (0, 1))


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=12))
def test_parse_format_inverse(digits):
    assert parse_digit_string(format_digits(digits))[0] == tuple(digits)
