"""Multi-modular solve of a linear system over a cyclotomic field Q(zeta_m).

The rationals are Q(zeta_1): Phi_1 = z - 1, and a rational is a
coordinate tuple of one entry. For a prime p = 1 (mod m) the cyclotomic
polynomial Phi_m has phi(m) distinct roots r_k in F_p, so reduction
modulo p sends Z[zeta_m] onto phi(m) copies of F_p, one for each
substitution zeta_m -> r_k (for m = 1, every prime and the one root 1).
A system over Q(zeta_m) thus becomes phi(m) scalar systems over F_p on
plain ints. Their solutions are interpolated back to power-basis
coordinates mod p, combined over several primes by the Chinese remainder
theorem, and lifted to rationals by rational reconstruction (Wang 1981:
numerator and denominator bounded by sqrt(M / 2) for a modulus M).

Only a system whose scalar images all have full column rank yields a
candidate. Its solution over Q(zeta_m) is then unique, so it equals the
one exact elimination finds; the candidate is returned only after an
exact integer check M x = b. A scalar image that is inconsistent at full
column rank proves the system inconsistent: a nonzero maximal minor of
[M | b] modulo a prime is nonzero over the field. Everything else
(rank deficiency, no verified reconstruction within MAX_PRIMES primes)
is reported as UNDECIDED for the caller's exact elimination.

The same integer check, as check_solution, is the self-check that
linalg.solve runs on the solutions of exact elimination, over any monic
modulus.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .fields import clear_denominators, cyclotomic

UNDECIDED = object()
MAX_PRIMES = 16
PRIME_LIMIT = 1 << 62

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below 3.3e24 with these witnesses."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _totient(n: int) -> int:
    for q in _prime_factors(n):
        n = n // q * (q - 1)
    return n


@lru_cache(maxsize=64)
def cyclotomic_index(minpoly: tuple) -> int | None:
    """The m >= 3 with minpoly = Phi_m, or None for any other modulus
    (a degree-1 field is Q(zeta_1) whatever its modulus)."""
    n = len(minpoly) - 1
    if n < 2 or minpoly[0] != 1:
        return None
    # phi(m) >= sqrt(m / 2), so phi(m) = n forces m <= 2 n^2
    for m in range(3, 2 * n * n + 1):
        if _totient(m) == n and cyclotomic(m) == minpoly:
            return m
    return None


def _inverse_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of an invertible square matrix over F_p by Gauss-Jordan."""
    n = len(mat)
    aug = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        row = aug[c] = [v * inv % p for v in aug[c]]
        for i in range(n):
            f = aug[i][c]
            if i != c and f:
                aug[i] = [(u - f * v) % p for u, v in zip(aug[i], row)]
    return [row[n:] for row in aug]


@lru_cache(maxsize=256)
def _prime_data(m: int, i: int):
    """The i-th largest prime p = 1 (mod m) below PRIME_LIMIT, with the
    powers r_k^j (j < phi(m)) of the roots r_k = r^k (k < m, gcd(k, m) = 1)
    of Phi_m mod p and the inverse of that Vandermonde matrix, which
    interpolates values back to power-basis coordinates. For m = 1 that is
    the one root r^0 = 1."""
    start = PRIME_LIMIT - 1 if i == 0 else _prime_data(m, i - 1)[0] - 1
    p = start - (start - 1) % m
    while not _is_prime(p):
        p -= m
    n = _totient(m)
    factors = _prime_factors(m)
    g = 2
    while True:
        r = pow(g, (p - 1) // m, p)
        if all(pow(r, m // q, p) != 1 for q in factors):
            break
        g += 1
    pows = []
    for k in range(m):
        if gcd(k, m) == 1:
            rk = pow(r, k, p)
            row = [1]
            for _ in range(n - 1):
                row.append(row[-1] * rk % p)
            pows.append(row)
    return p, pows, _inverse_mod(pows, p)


_DEFICIENT = object()
_INCONSISTENT = object()


def _solve_mod(a: list[list[int]], ncols: int, p: int):
    """Solve the augmented system [A | b] over F_p, A with ncols columns.

    Rows enter an echelon basis one at a time until A's columns are all
    pivots; the rows left over are then only checked against the solution.
    Returns the unique solution, _DEFICIENT when A lacks full column rank
    or _INCONSISTENT when it has it but b is outside its column space.
    """
    basis: list[list[int] | None] = [None] * ncols
    found = 0
    consistent = True
    rows = iter(a)
    for row in rows:
        for c in range(ncols):
            f = row[c]
            if f:
                prow = basis[c]
                if prow is None:
                    inv = pow(f, -1, p)
                    basis[c] = [0] * c + [v * inv % p for v in row[c:]]
                    found += 1
                    break
                row[c:] = [(u - f * v) % p for u, v in zip(row[c:], prow[c:])]
        else:
            consistent = consistent and not row[ncols]
        if found == ncols:
            break
    if found < ncols:
        return _DEFICIENT
    x = [0] * ncols
    for c in range(ncols - 1, -1, -1):
        prow = basis[c]
        x[c] = (prow[ncols] - sum(prow[j] * x[j]
                                  for j in range(c + 1, ncols))) % p
    for row in rows:
        if consistent and sum(u * v for u, v in zip(row, x)) % p != row[ncols]:
            consistent = False
    return x if consistent else _INCONSISTENT


def _reconstruct(u: int, modulus: int, bound: int) -> Fraction | None:
    """The r/s = u mod modulus with |r|, s <= bound, if there is one."""
    r0, r1 = modulus, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _scaled(entries) -> tuple[int, list[list[tuple[int, int]]]]:
    """(den, entries times den): coordinate tuples of one length scaled by
    the lcm den of their denominators, each as sparse (power, integer
    coefficient) pairs."""
    m = len(entries[0]) if entries else 0
    den, ints = clear_denominators(c for entry in entries for c in entry)
    return den, [[(j, c) for j, c in enumerate(ints[k:k + m]) if c]
                 for k in range(0, len(ints), m)]


def _integer_rows(rows) -> list[list[list[tuple[int, int]]]]:
    """Each row scaled by the lcm of its denominators (see _scaled)."""
    return [_scaled(row)[1] for row in rows]


def _verify(int_rows, sol: list[list[Fraction]], phi: list) -> bool:
    """Exact check M x = b in integer coordinates, x over one denominator.

    phi is the monic modulus, little-endian; its coefficients may be
    rationals, which only costs Fraction arithmetic in the reduction.
    """
    n = len(phi) - 1
    den, xs = _scaled(sol)
    for row in int_rows:
        acc = [0] * (2 * n - 1)
        for entry, x in zip(row, xs):
            for j, c in entry:
                for t, v in x:
                    acc[j + t] += c * v
        for k in range(2 * n - 2, n - 1, -1):
            c = acc[k]
            if c:
                for t in range(n):
                    acc[k - n + t] -= c * phi[t]
        want = [0] * n
        for j, c in row[-1]:
            want[j] = c * den
        if acc[:n] != want:
            return False
    return True


def check_solution(rows, sol, minpoly) -> bool:
    """The exact check M x = b for augmented rows [M | b] of coordinate
    tuples over Q[z]/(minpoly) and a solution of coordinate tuples."""
    phi = [c.numerator if c.denominator == 1 else c for c in minpoly]
    return _verify(_integer_rows(rows), sol, phi)


def solve_cyclotomic(rows, ncols: int, m: int):
    """Solve an augmented system over Q(zeta_m) modulo primes p = 1 (mod m),
    m = 1 for Q.

    rows are the augmented rows [M | b] of coordinate tuples in the power
    basis of Q[z]/(Phi_m). Returns the solution as coordinate tuples, None
    when the system is inconsistent, or UNDECIDED.
    """
    int_rows = _integer_rows(rows)
    phi = [int(c) for c in cyclotomic(m)]
    n = len(phi) - 1
    modulus = 1
    residues = [[0] * n for _ in range(ncols)]
    for i in range(MAX_PRIMES):
        p, pows, vinv = _prime_data(m, i)
        images = []
        for rp in pows:
            a = [[sum(c * rp[j] for j, c in entry) % p for entry in row]
                 for row in int_rows]
            x = _solve_mod(a, ncols, p)
            if x is _DEFICIENT:
                return UNDECIDED
            if x is _INCONSISTENT:
                return None
            images.append(x)
        # interpolate to coordinates mod p, then lift the residues by CRT
        lift = pow(modulus, -1, p)
        for col, res in enumerate(residues):
            vals = [img[col] for img in images]
            for j in range(n):
                cj = sum(v * w for v, w in zip(vinv[j], vals)) % p
                res[j] += modulus * ((cj - res[j]) * lift % p)
        modulus *= p
        bound = isqrt(modulus // 2)
        sol = []
        for res in residues:
            coords = [_reconstruct(u, modulus, bound) for u in res]
            if None in coords:
                break
            sol.append(coords)
        else:
            if _verify(int_rows, sol, phi):
                return [tuple(coords) for coords in sol]
    return UNDECIDED
