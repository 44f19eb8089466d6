import pytest
from fractions import Fraction

from mazurtate.curves import EllipticCurve
from mazurtate.hecke import eigensymbol
from mazurtate.modsym import ModularSymbol, _involution, as_cusp, build_space
from mazurtate.padics import unit_root

CURVE_DATA = {
    "11a": dict(a1=0, a2=-1, a3=1, a4=-10, a6=-20, conductor=11, lratio=Fraction(1, 5)),
    "26b1": dict(a1=1, a2=-1, a3=1, a4=-3, a6=3, conductor=26, lratio=Fraction(1, 7)),
    "50b1": dict(a1=1, a2=1, a3=1, a4=-3, a6=1, conductor=50, lratio=Fraction(1, 5)),
    "174b1": dict(a1=-5, a2=-18, a3=-18, a4=0, a6=0, conductor=174, lratio=Fraction(1)),
}


DEFAULT_GUARD_DIGITS = 20


def working_precision(n_max, mu_floor=0):
    """n_max + |mu_floor| + 20 digits: an ample p-adic precision for the tests' stabilized elements."""
    return n_max + abs(mu_floor) + DEFAULT_GUARD_DIGITS


def unit_root_inverse(a_p, p, precision):
    """alpha^-1 mod p^precision for the unit root alpha: the lift a stabilized element is built from."""
    return pow(unit_root(a_p, p, precision), -1, p**precision)


def make_curve(label):
    return EllipticCurve(label=label, **CURVE_DATA[label])


def curve_record(curve) -> dict:
    """The curve as the JSON record EllipticCurve.from_dict reads: its fields, the empty ones left out."""
    d = {key: getattr(curve, key) for key in ("a1", "a2", "a3", "a4", "a6", "conductor")}
    if curve.label:
        d["label"] = curve.label
    if curve.lratio is not None:
        d["lratio"] = str(curve.lratio)
    if curve.lratio_source:
        d["lratio_source"] = curve.lratio_source
    return d


@pytest.fixture(scope="session")
def curves():
    return {label: make_curve(label) for label in CURVE_DATA}


@pytest.fixture(scope="session")
def spaces():
    """Plus quotients, where the eigensymbols live."""
    return {N: build_space(N) for N in (11, 26, 50, 174)}


@pytest.fixture(scope="session")
def full_spaces():
    """Full quotients, which also carry symbols that are not J-invariant."""
    return {N: build_space(N, plus=False) for N in (11, 26)}


@pytest.fixture(scope="session")
def eigensymbols(curves, spaces):
    return {
        label: eigensymbol(spaces[curve.conductor], curve)
        for label, curve in curves.items()
    }


def zero_symbol(space):
    return ModularSymbol(space, [0] * space.dimension)


def divisor_value(sym, r, s):
    """phi({r} - {s}) = phi({inf} - {s}) - phi({inf} - {r})."""
    return sym.value_infinity_minus(s) - sym.value_infinity_minus(r)


def act(mat, r):
    """The cusp g.r of a matrix g = (a, b, c, d), as a reduced pair."""
    a, b, c, d = mat
    u, v = as_cusp(r)
    return as_cusp((a * u + b * v, c * u + d * v))


def relation_actions(p1):
    """(sigma, tau): the index actions on P^1 of the order-2 and order-3 relation matrices."""
    return [p1.index(d, -c) for c, d in p1], [p1.index(d, -c - d) for c, d in p1]


def involution_matrix(space):
    """Sparse rows of the sign involution J on basis coordinates, one per basis generator."""
    J = _involution(space.p1)
    return [space.coordinate_row([J[b]]) for b in space.basis]


def involution(sym):
    """phi o J on basis coordinates, through the rows of J (involution_matrix)."""
    rows = involution_matrix(sym.space)
    return ModularSymbol(sym.space, [sum(x * sym.coords[k] for k, x in row.items()) for row in rows])


def sign_parts(sym):
    """(phi^+, phi^-) = ((phi + phi o J) / 2, (phi - phi o J) / 2)."""
    j = involution(sym).coords
    return (ModularSymbol(sym.space, [Fraction(a + b, 2) for a, b in zip(sym.coords, j)]),
            ModularSymbol(sym.space, [Fraction(a - b, 2) for a, b in zip(sym.coords, j)]))


class Scaled:
    """phi | [[m,0],[0,1]] at cusps: its value at r is phi({inf} - {m r})."""

    def __init__(self, sym, m):
        self.sym, self.m = sym, m

    def value_infinity_minus(self, r):
        a, c = as_cusp(r)
        return self.sym.value_infinity_minus((self.m * a, c))

    def is_plus(self):
        # diag(m, 1) commutes with J = diag(-1, 1)
        return self.sym.is_plus()
