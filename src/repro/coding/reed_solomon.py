"""Systematic Reed-Solomon codes over GF(256).

RainBar embeds RS(n, k) parity in every frame: the code corrects up to
``(n - k) // 2`` byte errors and detects any combination of up to
``n - k`` errors (Section III-B).  The decoder implements the classical
chain — syndromes, Berlekamp-Massey, Chien search, Forney — plus erasure
support (a known-bad position costs one parity byte instead of two),
which the frame-synchronization layer uses for rows that straddle a
rolling-shutter boundary.

Encoding runs the division LFSR over a per-parity-count feedback table
built with the descending-order polynomial helpers of
:mod:`repro.coding.galois`; the decoder keeps its internal polynomials in
**ascending** order (index i = coefficient of x^i), the natural form for
the key equation.  The decoder is table-driven: syndromes and the Chien
search evaluate a polynomial at many field points in one vectorized
log/antilog pass, and Berlekamp-Massey and Forney multiply Python ints
through list copies of the field tables.

Messages longer than ``k`` are chunked transparently by
:class:`BlockCode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .galois import GF256, gf_mul, poly_mul

__all__ = [
    "ReedSolomon",
    "RSDecodeError",
    "BlockCode",
    "CodewordStats",
    "RSDecodeStats",
]


class RSDecodeError(ValueError):
    """Raised when a received word has more errors than the code corrects."""


@dataclass(frozen=True)
class CodewordStats:
    """Correction accounting for one decoded RS codeword.

    ``errors`` counts corrected positions that were *not* declared as
    erasures; ``erasures`` counts the erasure positions supplied to the
    decoder (each costs one parity symbol whether or not it actually
    carried an error).  A codeword whose syndromes were all zero records
    ``errors == erasures == 0``: no correction budget was spent even if
    erasure hints were offered.  ``failed`` marks a codeword the decoder
    gave up on (its other fields then describe the failed attempt).
    """

    errors: int
    erasures: int
    parity: int
    failed: bool = False

    @property
    def corrected(self) -> int:
        """Symbol positions the decoder rewrote (errors + erasures)."""
        return self.errors + self.erasures

    @property
    def budget_used(self) -> int:
        """Parity budget consumed: ``2e + s`` of the ``2e + s <= n - k`` bound."""
        return 2 * self.errors + self.erasures

    @property
    def margin(self) -> float:
        """Remaining correction headroom in [0, 1]; 0.0 for failed codewords."""
        if self.failed or self.parity <= 0:
            return 0.0
        return max(0.0, 1.0 - self.budget_used / self.parity)


@dataclass
class RSDecodeStats:
    """Mutable side-channel accumulating :class:`CodewordStats` per decode.

    Pass one to :meth:`ReedSolomon.decode` (or the :class:`BlockCode`
    wrappers) to observe corrected-symbol and erasure counts without
    changing the decode result — the default ``stats=None`` path is
    byte-identical to not asking.  One object may span several calls
    (e.g. every chunk of a :class:`BlockCode` payload).
    """

    codewords: list[CodewordStats] = field(default_factory=list)

    def add(self, stats: CodewordStats) -> None:
        self.codewords.append(stats)

    @property
    def corrected_symbols(self) -> int:
        """Non-erasure symbol errors corrected across all codewords."""
        return sum(cw.errors for cw in self.codewords if not cw.failed)

    @property
    def erasures(self) -> int:
        """Erasure positions consumed across all successfully decoded codewords."""
        return sum(cw.erasures for cw in self.codewords if not cw.failed)

    @property
    def failed_codewords(self) -> int:
        return sum(1 for cw in self.codewords if cw.failed)

    @property
    def clean_codewords(self) -> int:
        """Codewords that decoded with zero corrections."""
        return sum(1 for cw in self.codewords if not cw.failed and cw.corrected == 0)


#: Python-int copies of the field tables.  A list lookup costs a fraction
#: of a 0-d NumPy ``gf_mul`` call, and the decoder's key-equation loops
#: multiply scalars one at a time.  ``_EXP`` is doubled, so a sum of two
#: logs indexes it without a modulo.
_EXP: list[int] = GF256.exp.tolist()
_LOG: list[int] = GF256.log.tolist()


def _mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _inverse(a: int) -> int:
    """Multiplicative inverse of a nonzero field element."""
    return _EXP[255 - _LOG[a]]


@lru_cache(maxsize=16)
def _feedback_rows(num_parity: int) -> tuple[int, ...]:
    """Row ``f`` of the ``(256, num_parity)`` uint8 LFSR feedback table, as ints.

    Row ``f`` holds ``f * g_i`` for the generator's coefficients after
    its (unit) leading one, packed big-endian into one Python int so the
    encoder XORs a whole row at once.
    """
    table = np.asarray(
        gf_mul(np.arange(256)[:, np.newaxis], _generator_poly(num_parity)[1:]), dtype=np.uint8
    )
    return tuple(int.from_bytes(row.tobytes(), "big") for row in table)


def _generator_poly(num_parity: int) -> np.ndarray:
    """g(x) = prod_{i=0}^{num_parity-1} (x - alpha^i), descending order."""
    gen = np.array([1], dtype=np.int64)
    for i in range(num_parity):
        gen = poly_mul(gen, np.array([1, _EXP[i]], dtype=np.int64))
    return gen


def _eval_at_powers(
    coeffs: np.ndarray, degrees: np.ndarray, point_logs: np.ndarray
) -> np.ndarray:
    """Evaluate sum_i c_i x^(d_i) at every point x = alpha^p, vectorized.

    Each term is ``exp[(log c_i + p * d_i) mod 255]`` and the terms of a
    point XOR together; zero coefficients contribute nothing and are
    dropped before the table lookups.
    """
    nonzero = coeffs != 0
    if not nonzero.any():
        return np.zeros(len(point_logs), dtype=np.int64)
    logs = GF256.log[coeffs[nonzero]]
    exponents = (logs + np.multiply.outer(point_logs, degrees[nonzero])) % 255
    return np.bitwise_xor.reduce(GF256.exp[exponents], axis=1)


# --- ascending-order helpers local to the decoder ------------------------


def _asc_eval(poly: list[int], x: int) -> int:
    """Evaluate an ascending-order polynomial at *x* (Horner from the top)."""
    acc = 0
    for coeff in reversed(poly):
        acc = _mul(acc, x) ^ coeff
    return acc


def _asc_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] ^= _mul(a, b)
    return out


def _asc_scale(p: list[int], s: int) -> list[int]:
    return [_mul(c, s) for c in p]


def _asc_add(p: list[int], q: list[int]) -> list[int]:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] ^= c
    for i, c in enumerate(q):
        out[i] ^= c
    return out


def _asc_trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _asc_derivative(p: list[int]) -> list[int]:
    """Formal derivative over GF(2^m): only odd-power terms survive."""
    out = [p[i] if i % 2 == 1 else 0 for i in range(1, len(p))]
    return out or [0]


class ReedSolomon:
    """An RS(n, k) code over GF(256) with consecutive roots alpha^0..alpha^(n-k-1).

    Parameters
    ----------
    n:
        Codeword length in bytes, at most 255.
    k:
        Message length in bytes, ``0 < k < n``.
    """

    def __init__(self, n: int, k: int):
        if not 0 < k < n <= 255:
            raise ValueError(f"invalid RS parameters n={n}, k={k} (need 0<k<n<=255)")
        self.n = n
        self.k = k
        self.num_parity = n - k
        # Byte position p has locator X = alpha^(n-1-p): the power of its
        # term in C(x), and the log of its inverse for the Chien search.
        self._degrees = np.arange(n - 1, -1, -1, dtype=np.int64)
        self._inverse_logs = (255 - self._degrees) % 255
        self._syndrome_logs = np.arange(self.num_parity, dtype=np.int64)

    @property
    def max_errors(self) -> int:
        """Errors correctable without erasure information."""
        return self.num_parity // 2

    def encode(self, message: bytes | bytearray | np.ndarray) -> bytes:
        """Append ``n - k`` parity bytes to a ``k``-byte message.

        The parity is the remainder of ``M(x) x^(n-k)`` divided by the
        generator, computed by the division LFSR: the register (the
        running remainder, one byte per parity symbol, as a Python int)
        shifts in each message byte and XORs the feedback table's row
        for ``message byte ^ register head``.
        """
        msg = bytes(message)
        if len(msg) != self.k:
            raise ValueError(f"message must be exactly {self.k} bytes, got {len(msg)}")
        feedback = _feedback_rows(self.num_parity)
        head = 8 * (self.num_parity - 1)
        mask = (1 << (8 * self.num_parity)) - 1
        register = 0
        for byte in msg:
            register = ((register << 8) & mask) ^ feedback[byte ^ (register >> head)]
        return msg + register.to_bytes(self.num_parity, "big")

    # The codeword polynomial is C(x) = sum_i c_i x^{n-1-i}; byte position
    # p therefore has locator X = alpha^{n-1-p}.

    def _syndromes(self, word: np.ndarray) -> list[int]:
        """S_j = C(alpha^j) for j = 0..n-k-1 (all zero iff valid codeword)."""
        return _eval_at_powers(word, self._degrees, self._syndrome_logs).tolist()

    def check(self, received: bytes | bytearray | np.ndarray) -> bool:
        """True when *received* is a valid codeword (all syndromes zero)."""
        word = np.frombuffer(bytes(received), dtype=np.uint8).astype(np.int64)
        if len(word) != self.n:
            return False
        return not any(self._syndromes(word))

    def decode(
        self,
        received: bytes | bytearray | np.ndarray,
        erasures: list[int] | None = None,
        *,
        stats: RSDecodeStats | None = None,
    ) -> bytes:
        """Return the corrected ``k``-byte message.

        *erasures* lists byte positions (0-based from the start of the
        codeword) known to be unreliable.  The code corrects ``e`` errors
        plus ``s`` erasures whenever ``2 e + s <= n - k``.

        *stats*, when given, receives one :class:`CodewordStats` per call
        (including failed attempts) without altering the decode result.

        Raises :exc:`RSDecodeError` when correction fails.
        """
        word = np.frombuffer(bytes(received), dtype=np.uint8).astype(np.int64)
        if len(word) != self.n:
            raise ValueError(f"codeword must be exactly {self.n} bytes, got {len(word)}")
        erasures = sorted(set(erasures or []))
        if any(not 0 <= e < self.n for e in erasures):
            raise ValueError("erasure positions out of range")
        if len(erasures) > self.num_parity:
            if stats is not None:
                stats.add(
                    CodewordStats(
                        errors=0,
                        erasures=len(erasures),
                        parity=self.num_parity,
                        failed=True,
                    )
                )
            raise RSDecodeError("more erasures than parity symbols")

        syndromes = self._syndromes(word)
        if not any(syndromes):
            if stats is not None:
                stats.add(CodewordStats(errors=0, erasures=0, parity=self.num_parity))
            return bytes(word[: self.k].astype(np.uint8))

        try:
            # Erasure locator Gamma(x) = prod (1 - X_e x), ascending order.
            gamma = [1]
            for pos in erasures:
                gamma = _asc_mul(gamma, [1, _EXP[self.n - 1 - pos]])

            locator = self._berlekamp_massey(syndromes, gamma, len(erasures))
            positions = self._chien_search(locator)
            if positions is None:
                raise RSDecodeError("error locator degree does not match its roots")

            corrected = self._forney(word, syndromes, locator, positions)
            if any(self._syndromes(corrected)):
                raise RSDecodeError("correction failed (residual syndromes)")
        except RSDecodeError:
            if stats is not None:
                stats.add(
                    CodewordStats(
                        errors=0,
                        erasures=len(erasures),
                        parity=self.num_parity,
                        failed=True,
                    )
                )
            raise
        if stats is not None:
            erased = set(erasures)
            errors = sum(1 for p in positions if p not in erased)
            stats.add(
                CodewordStats(
                    errors=errors, erasures=len(erasures), parity=self.num_parity
                )
            )
        return bytes(corrected[: self.k].astype(np.uint8))

    def _berlekamp_massey(
        self, syndromes: list[int], gamma: list[int], num_erasures: int
    ) -> list[int]:
        """Berlekamp-Massey seeded with the erasure locator *gamma*.

        Returns the combined errata locator Lambda(x), ascending order.
        """
        locator = list(gamma)
        prev = list(gamma)
        for step in range(self.num_parity - num_erasures):
            k = num_erasures + step
            # Discrepancy delta = sum_i Lambda_i S_{k-i}.
            delta = 0
            for i, coeff in enumerate(locator):
                if k - i < 0:
                    break
                delta ^= _mul(coeff, syndromes[k - i])
            prev = [0] + prev  # prev *= x
            if delta != 0:
                if len(prev) > len(locator):
                    # Degree grows: keep a rescaled copy of the old locator
                    # as the new auxiliary polynomial (Massey's B update).
                    new_prev = _asc_scale(locator, _inverse(delta))
                    locator = _asc_add(locator, _asc_scale(prev, delta))
                    prev = new_prev
                else:
                    locator = _asc_add(locator, _asc_scale(prev, delta))
        return _asc_trim(locator)

    def _chien_search(self, locator: list[int]) -> list[int] | None:
        """Byte positions whose locators are roots of Lambda; None on mismatch."""
        degree = len(_asc_trim(locator)) - 1
        if degree == 0:
            return None
        values = _eval_at_powers(
            np.asarray(locator, dtype=np.int64),
            np.arange(len(locator), dtype=np.int64),
            self._inverse_logs,
        )
        positions = np.flatnonzero(values == 0).tolist()
        if len(positions) != degree:
            return None
        return positions

    def _forney(
        self,
        word: np.ndarray,
        syndromes: list[int],
        locator: list[int],
        positions: list[int],
    ) -> np.ndarray:
        """Correct *word* in place (on a copy) at *positions*.

        With roots starting at alpha^0, the magnitude at position p with
        locator X is ``Y = X * Omega(X^{-1}) / Lambda'(X^{-1})``.
        """
        # Omega(x) = S(x) Lambda(x) mod x^{2t}, ascending order.
        omega = _asc_mul(syndromes, locator)[: self.num_parity]
        deriv = _asc_derivative(locator)

        corrected = word.copy()
        for pos in positions:
            x = _EXP[self.n - 1 - pos]
            x_inv = _inverse(x)
            denom = _asc_eval(deriv, x_inv)
            if denom == 0:
                raise RSDecodeError("Forney denominator zero")
            numer = _mul(x, _asc_eval(omega, x_inv))
            corrected[pos] ^= _mul(numer, _inverse(denom))
        return corrected


@lru_cache(maxsize=64)
def _code(n: int, k: int) -> ReedSolomon:
    """The shared RS(n, k) instance: the generator polynomial is built once."""
    return ReedSolomon(n, k)


@dataclass(frozen=True)
class BlockCode:
    """Chunked RS coding for arbitrary-length payloads.

    Splits a payload into ``k``-byte chunks (zero-padded at the tail),
    encodes each with RS(n, k), and concatenates.  ``decode`` accepts the
    original payload length so padding is stripped.
    """

    n: int
    k: int

    @property
    def rate(self) -> float:
        """Code rate k/n — the fraction of transmitted bytes that is data."""
        return self.k / self.n

    def encoded_length(self, payload_length: int) -> int:
        """Bytes on the wire for a payload of *payload_length* bytes."""
        chunks = max(1, -(-payload_length // self.k))
        return chunks * self.n

    def encode(self, payload: bytes) -> bytes:
        """Encode *payload* into a sequence of RS codewords."""
        rs = _code(self.n, self.k)
        chunks = max(1, -(-len(payload) // self.k))
        padded = payload.ljust(chunks * self.k, b"\x00")
        return b"".join(
            rs.encode(padded[i * self.k : (i + 1) * self.k]) for i in range(chunks)
        )

    def decode(
        self,
        coded: bytes,
        payload_length: int,
        erasures: list[int] | None = None,
        *,
        stats: RSDecodeStats | None = None,
    ) -> bytes:
        """Decode back to exactly *payload_length* bytes.

        *erasures* indexes into the coded byte stream; indices are routed
        to their chunk.  *stats* accumulates one :class:`CodewordStats`
        per chunk.  Raises :exc:`RSDecodeError` if any chunk fails.
        """
        if len(coded) % self.n:
            raise ValueError("coded length is not a multiple of n")
        rs = _code(self.n, self.k)
        per_chunk: dict[int, list[int]] = {}
        for idx in erasures or []:
            per_chunk.setdefault(idx // self.n, []).append(idx % self.n)
        out = bytearray()
        for chunk_idx in range(len(coded) // self.n):
            chunk = coded[chunk_idx * self.n : (chunk_idx + 1) * self.n]
            out.extend(rs.decode(chunk, per_chunk.get(chunk_idx), stats=stats))
        return bytes(out[:payload_length])

    def decode_lenient(
        self,
        coded: bytes,
        payload_length: int,
        erasures: list[int] | None = None,
        *,
        stats: RSDecodeStats | None = None,
    ) -> tuple[bytes, list[int]]:
        """Best-effort decode: failed chunks pass through uncorrected.

        Returns ``(payload, failed_chunk_indices)``.  A failed chunk
        contributes its systematic bytes verbatim (parity stripped), so a
        higher coding layer can treat those byte ranges as erasures —
        the layering RDCode's tri-level scheme relies on.  *stats*
        records failed chunks as ``failed=True`` codewords.
        """
        if len(coded) % self.n:
            raise ValueError("coded length is not a multiple of n")
        rs = _code(self.n, self.k)
        per_chunk: dict[int, list[int]] = {}
        for idx in erasures or []:
            per_chunk.setdefault(idx // self.n, []).append(idx % self.n)
        out = bytearray()
        failed = []
        for chunk_idx in range(len(coded) // self.n):
            chunk = coded[chunk_idx * self.n : (chunk_idx + 1) * self.n]
            try:
                out.extend(rs.decode(chunk, per_chunk.get(chunk_idx), stats=stats))
            except RSDecodeError:
                failed.append(chunk_idx)
                out.extend(chunk[: self.k])
        return bytes(out[:payload_length]), failed
