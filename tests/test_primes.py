import math
from itertools import islice

from mazurtate.primes import divisors, euler_phi, is_prime, prime_factors, primes


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


def test_divisors_and_euler_phi_match_brute_force():
    for n in range(1, 3001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    for n in range(1, 500):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
