"""GF(256) arithmetic and Reed-Solomon coding over the QR polynomial.

Field: GF(2^8) with primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d),
generator element 2. Codewords are byte lists, most significant coefficient
first, parity appended. The generator polynomial has consecutive roots
alpha^0 .. alpha^(nsym-1).
"""

from __future__ import annotations

import functools

import numpy as np


class CorrectionError(Exception):
    """Raised when a codeword's errors exceed the correction capacity."""


_PRIM = 0x11D

# EXP is doubled so products of two log values never need a modulo.
EXP = [0] * 512
LOG = [0] * 256

_x = 1
for _i in range(255):
    EXP[_i] = _x
    LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIM
for _i in range(255, 512):
    EXP[_i] = EXP[_i - 255]
del _x, _i

# numpy copies for table gathers. Zero has no logarithm: _LOG_NP maps it to
# _LOG_ZERO, and any sum that includes it lands in _EXP_NP's zero tail, so
# a product with a zero factor needs no special case.
_LOG_ZERO = 512
_EXP_NP = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint8)
_EXP_NP[:512] = EXP
_LOG_NP = np.array(LOG, dtype=np.intp)
_LOG_NP[0] = _LOG_ZERO


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(256)")
    return EXP[255 - LOG[a]]


def _generator_poly(nsym: int) -> list[int]:
    g = [1]
    for i in range(nsym):
        # multiply g by (x - alpha^i); subtraction == addition in GF(2^8)
        nxt = [0] * (len(g) + 1)
        for j, c in enumerate(g):
            nxt[j] ^= c
            nxt[j + 1] ^= gf_mul(c, EXP[i])
        g = nxt
    return g


@functools.cache
def _unit_parity_logs(k: int, nsym: int) -> np.ndarray:
    """LOG of the parity of each unit data word, as a (k, nsym) table.

    Data byte j (of k, most significant first) is the coefficient of
    x^(k-1-j), so its unit word's parity is x^(nsym+k-1-j) mod g(x). The
    remainders of x^nsym, x^(nsym+1), ... come one from the next by a shift
    and one reduction by the monic g.
    """
    gen = _generator_poly(nsym)
    rem = gen[1:]  # x^nsym mod g, since g is monic of degree nsym
    rows = []
    for _ in range(k):
        rows.append(rem)
        top = rem[0]
        rem = rem[1:] + [0]
        if top:
            rem = [r ^ gf_mul(top, g) for r, g in zip(rem, gen[1:])]
    return _LOG_NP[np.array(rows[::-1], dtype=np.uint8).reshape(k, nsym)]


def rs_encode(data: bytes, nsym: int) -> list[int]:
    """Return the nsym parity bytes for data.

    Parity is linear over GF(256): it is the XOR of each data byte times
    its unit word's parity, one table gather and one reduction.
    """
    d = np.frombuffer(bytes(data), dtype=np.uint8)
    terms = _EXP_NP[_unit_parity_logs(d.size, nsym) + _LOG_NP[d][:, None]]
    return np.bitwise_xor.reduce(terms, axis=0).tolist()


@functools.cache
def _syndrome_exponents(lengths: tuple[int, ...],
                        nsym: int) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, starts) for blocks of `lengths` codewords back to back.

    Exponents is (nsym, sum(lengths)): coefficient j of a block of n (most
    significant first) meets alpha^(i * (n-1-j)) in S_i. Starts holds each
    block's first column. Built once per layout.
    """
    degrees = np.concatenate([np.arange(n - 1, -1, -1) for n in lengths])
    starts = np.cumsum((0,) + lengths[:-1])
    return np.arange(nsym)[:, None] * degrees % 255, starts


def syndromes(words: np.ndarray, lengths: tuple[int, ...],
              nsym: int) -> np.ndarray:
    """S_i = block(alpha^i) for i < nsym of every block in `words`, uint8
    codewords of blocks of `lengths` back to back: a (blocks, nsym) array
    from one table gather and one segmented reduction."""
    exponents, starts = _syndrome_exponents(lengths, nsym)
    terms = _EXP_NP[exponents + _LOG_NP[words]]
    return np.bitwise_xor.reduceat(terms, starts, axis=1).T


def _syndromes(codeword: list[int], nsym: int) -> list[int]:
    """The syndromes of one codeword, as a list."""
    c = np.frombuffer(bytes(codeword), dtype=np.uint8)
    return syndromes(c, (c.size,), nsym)[0].tolist()


def _berlekamp_massey(synd: list[int]) -> list[int]:
    """Error locator lambda(x), least significant coefficient first."""
    c = [1]
    b = [1]
    length = 0
    m = 1
    bb = 1
    for n in range(len(synd)):
        d = synd[n]
        for i in range(1, length + 1):
            d ^= gf_mul(c[i], synd[n - i])
        if d == 0:
            m += 1
            continue
        coef = gf_mul(d, gf_inv(bb))
        t = list(c)
        c += [0] * (len(b) + m - len(c))  # no-op when c is long enough
        for i, bi in enumerate(b):
            c[i + m] ^= gf_mul(coef, bi)
        if 2 * length <= n:
            length = n + 1 - length
            b, bb, m = t, d, 1
        else:
            m += 1
    return c[: length + 1]


def _eval_lsb_first(poly: list[int], x: int) -> int:
    y = 0
    for c in reversed(poly):
        y = gf_mul(y, x) ^ c
    return y


def rs_correct(codeword: list[int], nsym: int) -> list[int]:
    """Correct up to nsym // 2 byte errors in place of a clean return.

    Raises CorrectionError when the error pattern is uncorrectable or the
    corrected word still fails the syndrome check.
    """
    synd = _syndromes(codeword, nsym)
    if max(synd) == 0:
        return list(codeword)

    lam = _berlekamp_massey(synd)
    nerr = len(lam) - 1
    if nerr == 0 or 2 * nerr > nsym:
        raise CorrectionError(f"{nerr} errors exceed capacity {nsym // 2}")

    n = len(codeword)
    # Chien search: error at degree d iff lambda(alpha^-d) == 0.
    positions = []  # byte indexes into codeword
    for d in range(n):
        x = EXP[(255 - d) % 255]
        if _eval_lsb_first(lam, x) == 0:
            positions.append(n - 1 - d)
    if len(positions) != nerr:
        raise CorrectionError("error locator roots do not match error count")

    # Magnitudes: solve sum_k e_k * (alpha^{d_k})^i = S_i, a small Vandermonde
    # system over GF(256), instead of the Forney formula.
    degs = [n - 1 - p for p in positions]
    a = [[EXP[(degs[k] * i) % 255] for k in range(nerr)] + [synd[i]]
         for i in range(nerr)]
    mags = _solve(a, nerr)

    fixed = list(codeword)
    for p, e in zip(positions, mags):
        fixed[p] ^= e
    if max(_syndromes(fixed, nsym)) != 0:
        raise CorrectionError("correction failed syndrome re-check")
    return fixed


def _solve(a: list[list[int]], n: int) -> list[int]:
    """Gaussian elimination over GF(256) on an n x (n+1) augmented matrix."""
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise CorrectionError("singular error-location system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = gf_inv(a[col][col])
        a[col] = [gf_mul(v, inv) for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v ^ gf_mul(f, w) for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]
