"""Dichotomy classification of the Iwasawa invariants of Mazur-Tate elements.

At a good ordinary prime the level-n invariants either stabilize to the
invariants of the p-adic L-function (case A: every element integral) or the
lambda-invariant is maximal, p^n - 1, at every level with constant negative
mu given by ord_p of the normalized L-value (case B).  Verdicts here are
evidence-based at finite level; when neither pattern is certified within the
computed range the report says so instead of extrapolating.  classify
returns the report as the JSON-ready dict `analyze` renders.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import takewhile
from pathlib import Path

from .boundary import boundary_congruence
from .cache import load_symbol
from .curves import EllipticCurve
from .elements import (MAX_WALKED_LEVEL, MazurTateTower, check_levels, level_rows, normalization_shift,
                       theta0_interpolation_factor, walk_levels)
from .errors import BoundExceeded, InputError, NotGoodOrdinary
from .padics import unit_root, valuation
from .primes import int_valuation, primes

MULTIPLICITY_ONE_NOTE = (
    "A boundary congruence at squarefree level is the mod-p multiplicity-one "
    "pattern for the Eisenstein eigenvalue system; a refutation for a curve "
    "with rational p-torsion indicates that multiplicity one fails."
)


def _require_good_ordinary(curve: EllipticCurve, p: int):
    if p == 2 or curve.conductor % p == 0:
        raise NotGoodOrdinary(f"p = {p} is not a good odd prime for conductor {curve.conductor}")
    if curve.a_ell(p) % p == 0:
        raise NotGoodOrdinary(f"a_{p} = {curve.a_ell(p)} is divisible by p; not ordinary")


def classify(curve: EllipticCurve, p: int, n_max: int = 2, mode: str = "neron",
             cache_dir: Path | None = None) -> dict:
    """Run the full pipeline and classify into the finite-level dichotomy; returns the `analyze` payload.

    mode is "neron" or "cohomological"; cache_dir falls back to
    $MT_CACHE_DIR, as in cache.resolve_cache_dir.  n_max (elements.check_levels)
    and mode are checked before anything is built.  One unit root, at the
    precision P MazurTateTower.stabilized_precision certifies, serves every
    stabilized element, through its inverse mod p^P.  The verdict is "CaseA",
    "CaseB" or "Inconclusive"; a stabilized row is settled when equal to the one below.
    """
    check_levels(p, n_max)
    if mode not in ("neron", "cohomological"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_good_ordinary(curve, p)
    sym, scalar = load_symbol(curve, mode, cache_dir)

    shift = normalization_shift(scalar, p)
    lratio_val = None
    if mode == "neron":
        lratio_val = int(valuation(curve.lratio, p)) if curve.lratio else 0

    tower = MazurTateTower(sym, p, n_max)
    per_level = level_rows(tower, shift)
    diagnostics = []

    theta0_verified = tower.theta0_identity(curve)
    if not theta0_verified:
        diagnostics.append("theta_0 interpolation identity failed")

    a_p = curve.a_ell(p)
    precision = tower.stabilized_precision(a_p)
    inverse = pow(unit_root(a_p, p, precision), -1, p**precision)
    stabilized = []
    for n in range(n_max + 1):
        inv = tower.stabilized(inverse, n).iwasawa_invariants()
        settled = bool(stabilized) and (inv.mu, inv.lam) == (stabilized[-1]["mu"], stabilized[-1]["lambda"])
        stabilized.append({"n": n, "mu": inv.mu, "lambda": inv.lam, "settled": settled})
    norm_verified = all(tower.norm_relation(n).passed for n in range(1, n_max + 1))

    boundary = boundary_congruence(sym, p)
    eisenstein = boundary["solvable"] or _has_rational_p_torsion_signature(curve, p)
    commentary = MULTIPLICITY_ONE_NOTE if eisenstein else ""

    # theta_0 = (a_p - 2) phi({inf}-{0}) sigma_1 at a good p forces this valuation
    factor = theta0_interpolation_factor(curve, p)
    if mode == "neron" and factor != 0:
        expected_mu0 = lratio_val + int(valuation(factor, p))
        if per_level[0]["mu"] != expected_mu0:
            diagnostics.append(
                f"mu(theta_0) = {per_level[0]['mu']} differs from "
                f"ord_p(lratio (a_p - 2)) = {expected_mu0}"
            )

    verdict = _verdict(per_level, stabilized, mode, diagnostics)
    return {"label": curve.label, "p": p, "n_max": n_max, "mode": mode, "verdict": verdict,
            "lratio_valuation": lratio_val, "normalization_shift": shift,
            "norm_relation_verified": norm_verified, "theta0_identity_verified": theta0_verified,
            "per_level": per_level, "stabilized": stabilized, "diagnostics": diagnostics,
            "commentary": commentary, "boundary": boundary}


def _has_rational_p_torsion_signature(curve: EllipticCurve, p: int) -> bool:
    """Eisenstein congruence signature a_ell = ell + 1 mod p at good ell <= 50."""
    return all(
        (curve.a_ell(ell) - ell - 1) % p == 0
        for ell in takewhile(lambda ell: ell <= 50, primes())
        if curve.conductor % ell
    )


def _verdict(rows: list, stabilized: list, mode: str, diagnostics: list) -> str:
    """The verdict on level_rows and the stabilized rows of one tower; a reason for no verdict goes to diagnostics."""
    if mode == "neron" and rows[0]["mu"] < 0:
        # case-B pattern: constant negative mu, maximal lambda at every level
        if all(r["mu"] == rows[0]["mu"] and r["is_maximal"] for r in rows):
            return "CaseB"
        diagnostics.append("mu(theta_0) < 0 but the constant-mu/maximal-lambda pattern broke")
        return "Inconclusive"
    if not all(r["integral"] for r in rows):
        diagnostics.append("non-integral level found without a negative mu at level 0; no verdict")
        return "Inconclusive"
    if mode == "cohomological":
        diagnostics.append("cohomological mode: integrality is automatic, case B is undetectable")
    if len(rows) < 3:
        diagnostics.append("need n_max >= 2 to certify stabilization")
        return "Inconclusive"
    top, prev = stabilized[-1], stabilized[-2]
    if (top["mu"], top["lambda"]) != (prev["mu"], prev["lambda"]):
        diagnostics.append("stabilized invariants have not settled at the top levels")
        return "Inconclusive"
    for stab, plain in ((top, rows[-1]), (prev, rows[-2])):
        if (stab["mu"], stab["lambda"]) != (plain["mu_coh"], plain["lambda"]):
            diagnostics.append(
                f"level-{plain['n']} invariants differ from the stabilized ones; not yet in the stable range"
            )
            return "Inconclusive"
    return "CaseA"


# alphas: the unit residues mod p^t satisfying the congruence
MaximalityReport = namedtuple("MaximalityReport", "holds t ord_p_phi0 alphas conclusions_verified")


def maximality_criterion(sym, p: int, n_max: int, t: int = 1) -> MaximalityReport:
    """Search for a unit alpha with phi({inf}-{a/p^{n+1}}) = alpha phi({inf}-{a/p^n}) mod p^t.

    Every unit a mod p^{n+1} is tried at every level n <= n_max, on the values
    of one walk_levels; t is refused below 1 or with p^t above MAX_WALKED_LEVEL
    before any evaluation, and so is n_max as in MazurTateTower.  The units
    solving one pair form a coset (`_solving_units`), so the candidates stay
    one coset, intersected pair by pair and listed once at the end.
    When a witness exists and t > ord_p(phi({inf}-{0})), the level-n elements
    must have mu = ord_p(phi({inf}-{0})) and maximal lambda; that conclusion
    is re-verified on the walk's theta_n.
    """
    if t < 1:
        raise InputError(f"t must be at least 1, got {t}")
    if p ** min(t, MAX_WALKED_LEVEL.bit_length()) > MAX_WALKED_LEVEL:
        raise BoundExceeded(f"p^t = {p}^{t} exceeds the walked-level bound {MAX_WALKED_LEVEL}")
    u0, j = 0, 0  # the candidate alphas: the units u = u0 mod p^j
    modulus = p**t
    thetas = []
    for n, (below, top, theta, _) in enumerate(walk_levels(sym, p, n_max)):
        if n == 0:
            if below[0] == 0:
                raise ValueError("criterion needs phi({inf}-{0}) nonzero")
            m = int(valuation(below[0], p))
        q = p**n
        for a in range(1, p * q):
            if not a % p:
                continue
            upper, lower = top[a], below[a % q]
            if lower.denominator % p == 0 or upper.denominator % p == 0:
                raise ValueError("criterion needs a p-integral symbol")
            coset = _solving_units(lower.numerator * pow(lower.denominator, -1, modulus),
                                   upper.numerator * pow(upper.denominator, -1, modulus), p, t)
            if coset is not None and coset[1] > j:  # keep the finer coset in (u0, j)
                coset, (u0, j) = (u0, j), coset
            if coset is None or u0 % p ** coset[1] != coset[0]:
                return MaximalityReport(False, t, m, (), None)
        thetas.append(theta)
    alphas = tuple(u for u in range(u0, p**t, p**j) if u % p)
    if t <= m:
        return MaximalityReport(False, t, m, alphas, None)
    invariants = [theta.iwasawa_invariants() for theta in thetas]
    verified = all(inv.mu == m and inv.lam == p**n - 1 for n, inv in enumerate(invariants))
    return MaximalityReport(True, t, m, alphas, verified)


def _solving_units(x: int, y: int, p: int, t: int):
    """(v, i) such that the units u with y = u x mod p^t are those with u = v mod p^i; None if no unit is one.

    With x, y reduced mod p^t and k = min(ord_p x, t), y = u x mod p^t needs
    p^k | y, and then reads u (x / p^k) = y / p^k mod p^(t-k), where x / p^k
    is a unit when k < t.
    """
    x, y = x % p**t, y % p**t
    k = min(int_valuation(x, p), t)
    if y % p**k:
        return None
    i = t - k
    v = y // p**k * pow(x // p**k, -1, p**i) % p**i
    return (v, i) if i == 0 or v % p else None
