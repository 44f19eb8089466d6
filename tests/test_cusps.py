import hashlib
import json
import math
import random
from fractions import Fraction

from mazurtate.cusps import CuspClassTable, boundary_space_matrix
from mazurtate.linalg import rref_mod_p
from mazurtate.modsym import INFINITY, as_cusp, build_space
from mazurtate.primes import euler_phi

from .conftest import act
from .test_modsym import random_gamma0

# sha256 over N = 1..300, 389, 681 of json [N, boundary_space_matrix(build_space(N), 7) rows, representatives],
# recorded when each class was still found by a pairwise scan of the representatives
BOUNDARY_MATRIX_DIGEST = "dc5faecdbef74a60007960ae4138380d88ccfb79416c4366c209e79f6cbe070c"


def pairwise_equivalent(N, c1, c2):
    """Reference criterion for reduced cusps u/v (v >= 0): s1 v2 = s2 v1 mod gcd(v1 v2, N), s u = 1 mod v."""
    u1, v1 = c1
    u2, v2 = c2
    s1 = pow(u1, -1, v1) if v1 else 1
    s2 = pow(u2, -1, v2) if v2 else 1
    return (s1 * v2 - s2 * v1) % math.gcd(v1 * v2, N) == 0


def test_class_counts():
    assert len(CuspClassTable(26)) == 4
    assert len(CuspClassTable(11)) == 2
    assert len(CuspClassTable(1)) == 1


def test_class_count_formula_random_levels():
    rng = random.Random(0)
    for _ in range(30):
        N = rng.randint(1, 100)
        expected = sum(euler_phi(math.gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)
        assert len(CuspClassTable(N)) == expected


def test_each_representative_is_its_own_class():
    for N in list(range(1, 301)) + [681]:
        table = CuspClassTable(N)
        assert [table.classify(rep) for rep in table.representatives] == list(range(len(table))), N


def test_classify_agrees_with_the_pairwise_criterion():
    for N in range(1, 201):
        table = CuspClassTable(N)
        reps = table.representatives
        assert not any(pairwise_equivalent(N, r1, r2) for i, r1 in enumerate(reps) for r2 in reps[:i]), N
        cusps = [(1, 0)] + [(a, c) for c in range(1, 2 * N + 1) for a in range(c) if math.gcd(a, c) == 1]
        assert all(pairwise_equivalent(N, x, reps[table.classify(x)]) for x in cusps), N


def test_boundary_matrix_digest():
    h = hashlib.sha256()
    for N in list(range(1, 301)) + [389, 681]:
        B, table = boundary_space_matrix(build_space(N), 7)
        h.update(json.dumps([N, B, [list(r) for r in table.representatives]]).encode())
    assert h.hexdigest() == BOUNDARY_MATRIX_DIGEST


def test_n26_representatives_match_expected_cusps():
    table = CuspClassTable(26)
    ids = {
        table.classify(INFINITY),
        table.classify(0),
        table.classify(Fraction(1, 2)),
        table.classify(Fraction(1, 13)),
    }
    assert len(ids) == 4  # the four stated cusps hit all four classes


def test_classification_constant_on_orbits():
    rng = random.Random(5)
    for N in (11, 26, 50, 174):
        table = CuspClassTable(N)
        for _ in range(100):
            cusp = as_cusp((rng.randint(-40, 40), rng.randint(0, 40)))
            gamma = random_gamma0(N, rng)
            assert table.classify(act(gamma, cusp)) == table.classify(cusp)


def test_infinity_equivalent_to_one_over_level():
    table = CuspClassTable(26)
    assert table.classify(INFINITY) == table.classify(Fraction(1, 26))
    assert table.classify(0) == table.classify(5)  # integers are in the class of 0


def test_boundary_matrix_ranks_and_constants():
    sp = build_space(11)
    B, table = boundary_space_matrix(sp, 5)
    assert len(rref_mod_p(B, 5)[1]) == len(table) - 1 == 1
    sp = build_space(26)
    B, table = boundary_space_matrix(sp, 7)
    assert len(rref_mod_p(B, 7)[1]) <= 3
    # the all-ones vector lies in the kernel of the transpose
    for row in B:
        assert sum(row) % 7 == 0


def test_boundary_rows_satisfy_manin_relations():
    # a random psi induces generator values B.psi that obey the S/T relations
    rng = random.Random(6)
    for N, p in ((26, 7), (50, 5)):
        sp = build_space(N)
        B, table = boundary_space_matrix(sp, p)
        psi = [rng.randrange(p) for _ in range(len(table))]
        vals = [sum(B[i][k] * psi[k] for k in range(len(psi))) % p for i in range(len(sp.p1))]
        for i in range(len(sp.p1)):
            assert (vals[i] + vals[sp.sigma[i]]) % p == 0
            assert (vals[i] + vals[sp.tau[i]] + vals[sp.tau[sp.tau[i]]]) % p == 0
