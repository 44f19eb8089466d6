import math
from itertools import islice

from mazurtate.primes import is_prime, prime_factors, primes


def test_primes_agree_with_the_definition():
    naive = [n for n in range(200) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(200) if is_prime(n)] == naive
    assert list(islice(primes(), len(naive))) == naive


def test_prime_factors_multiply_back():
    for n in range(1, 500):
        factors = prime_factors(n)
        assert all(is_prime(p) and e >= 1 for p, e in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        assert math.prod(p**e for p, e in factors) == n
