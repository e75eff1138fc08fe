"""The table-driven RS coder pinned to its scalar originals.

``ReedSolomon._syndromes`` evaluates the received word at every root in
one vectorized log/antilog pass, and the Chien search evaluates the
error locator at every byte position the same way.  These properties
keep the scalar Horner loops over ``gf_mul`` as executable references
and demand exactly equal field elements.  ``ReedSolomon.encode`` runs a
division LFSR over a feedback table; it is pinned to polynomial long
division (``poly_divmod``) of the shifted message by the generator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.galois import gf_mul, gf_pow, poly_divmod
from repro.coding.reed_solomon import ReedSolomon, _generator_poly


def _reference_encode(rs: ReedSolomon, message: bytes) -> bytes:
    """Systematic encoding by long division, kept verbatim as the oracle."""
    msg = np.frombuffer(message, dtype=np.uint8).astype(np.int64)
    shifted = np.concatenate([msg, np.zeros(rs.num_parity, dtype=np.int64)])
    __, remainder = poly_divmod(shifted, _generator_poly(rs.num_parity))
    parity = np.zeros(rs.num_parity, dtype=np.int64)
    parity[rs.num_parity - len(remainder) :] = remainder
    return bytes(np.concatenate([msg, parity]).astype(np.uint8))


def _reference_syndromes(rs: ReedSolomon, word: np.ndarray) -> list[int]:
    """The pre-vectorization Horner loop, kept verbatim as the oracle."""
    out = []
    for j in range(rs.num_parity):
        x = gf_pow(2, j)
        acc = 0
        for byte in word:
            acc = gf_mul(acc, x) ^ int(byte)
        out.append(acc)
    return out


def _reference_chien(rs: ReedSolomon, locator: list[int]) -> list[int]:
    """Every byte position whose locator inverse is a root, scalar Horner."""
    positions = []
    for pos in range(rs.n):
        x_inv = gf_pow(2, (255 - (rs.n - 1 - pos)) % 255)
        acc = 0
        for coeff in reversed(locator):
            acc = gf_mul(acc, x_inv) ^ coeff
        if acc == 0:
            positions.append(pos)
    return positions


@st.composite
def codes_and_words(draw, max_n=255):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    word = draw(st.binary(min_size=n, max_size=n))
    return ReedSolomon(n, k), np.frombuffer(word, dtype=np.uint8).astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(codes_and_words())
def test_syndromes_match_horner_on_random_words(code_and_word):
    rs, word = code_and_word
    syndromes = rs._syndromes(word)
    assert syndromes == _reference_syndromes(rs, word)
    assert all(type(s) is int for s in syndromes)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 254),
    position=st.integers(0, 254),
    value=st.integers(1, 255),
)
def test_syndromes_match_horner_on_single_nonzero_byte_at_full_length(k, position, value):
    rs = ReedSolomon(255, k)
    word = np.zeros(255, dtype=np.int64)
    word[position] = value
    assert rs._syndromes(word) == _reference_syndromes(rs, word)


@pytest.mark.parametrize("n,k", [(2, 1), (32, 24), (255, 223), (255, 1)])
def test_all_zero_word_has_zero_syndromes(n, k):
    rs = ReedSolomon(n, k)
    word = np.zeros(n, dtype=np.int64)
    assert rs._syndromes(word) == _reference_syndromes(rs, word) == [0] * (n - k)


@settings(max_examples=30, deadline=None)
@given(msg=st.binary(min_size=223, max_size=223))
def test_codewords_of_full_length_code_have_zero_syndromes(msg):
    rs = ReedSolomon(255, 223)
    word = np.frombuffer(rs.encode(msg), dtype=np.uint8).astype(np.int64)
    assert rs._syndromes(word) == _reference_syndromes(rs, word) == [0] * 32


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 255),
    locator=st.lists(st.integers(0, 255), min_size=2, max_size=9),
)
def test_chien_search_matches_horner(n, locator):
    rs = ReedSolomon(n, max(1, n - 16))
    locator = locator[:-1] + [locator[-1] or 1]  # a nonzero leading term
    expected = _reference_chien(rs, locator)
    found = rs._chien_search(locator)
    if len(expected) == len(locator) - 1:
        assert found == expected
    else:
        assert found is None


@st.composite
def codes_and_messages(draw):
    n = draw(st.sampled_from([2, 15, 60, 120, 255]))
    k = draw(st.sampled_from(sorted({1, max(1, n // 2), n - 1})))
    message = draw(st.binary(min_size=k, max_size=k))
    return ReedSolomon(n, k), message


@settings(max_examples=80, deadline=None)
@given(codes_and_messages())
def test_encode_matches_long_division(code_and_message):
    rs, message = code_and_message
    assert rs.encode(message) == _reference_encode(rs, message)


@pytest.mark.parametrize("n,k", [(2, 1), (255, 1), (255, 223), (60, 40)])
def test_encode_all_zero_message_matches_long_division(n, k):
    rs = ReedSolomon(n, k)
    assert rs.encode(bytes(k)) == _reference_encode(rs, bytes(k)) == bytes(n)
