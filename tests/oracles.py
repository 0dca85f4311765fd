"""Second routes the tests check kscolor against, written from the
definitions and sharing no code with the package."""

from itertools import permutations, product


def dot(u, v):
    """The integer dot product of two 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def signed_permutations():
    """All 48 signed permutation matrices: row i holds signs[i] in column perm[i]."""
    return [
        tuple(tuple(sign if j == col else 0 for j in range(3)) for col, sign in zip(perm, signs))
        for perm in permutations(range(3))
        for signs in product((1, -1), repeat=3)
    ]


def radical(n):
    """The product of the distinct primes dividing n >= 1, by trial division
    to the square root; radical(1) == 1."""
    if n < 1:
        raise ValueError("radical requires a positive integer")
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            out *= p
            while n % p == 0:
                n //= p
        p += 1
    return out * n if n > 1 else out


def primes_past(limit):
    """The primes in increasing order up to the first one above limit, each
    number tested by trial division by the primes before it."""
    primes, q = [], 2
    while not primes or primes[-1] <= limit:
        for p in primes:
            if p * p > q:
                primes.append(q)
                break
            if q % p == 0:
                break
        else:
            primes.append(q)
        q += 1
    return primes
