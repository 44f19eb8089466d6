"""Dichotomy classification of the Iwasawa invariants of Mazur-Tate elements.

At a good ordinary prime the level-n invariants either stabilize to the
invariants of the p-adic L-function (case A: every element integral) or the
lambda-invariant is maximal, p^n - 1, at every level with constant negative
mu given by ord_p of the normalized L-value (case B).  Verdicts here are
evidence-based at finite level; when neither pattern is certified within the
computed range the report says so instead of extrapolating.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

from .boundary import BoundaryCongruenceResult, boundary_congruence
from .cache import load_symbol
from .curves import EllipticCurve
from .elements import MazurTateTower, theta0_interpolation_factor, working_precision
from .errors import BoundExceeded, InputError, NotGoodOrdinary, PrecisionInsufficient
from .hecke import NormalizationData
from .padics import PAdic, unit_root, valuation
from .primes import primes

MAX_PRECISION = 1000  # p-adic digits; a larger --precision is refused
MAXIMALITY_SAMPLE_BOUND = 10000  # maximality_criterion samples a beyond p^{n+1} above this

MULTIPLICITY_ONE_NOTE = (
    "A boundary congruence at squarefree level is the mod-p multiplicity-one "
    "pattern for the Eisenstein eigenvalue system; a refutation for a curve "
    "with rational p-torsion indicates that multiplicity one fails."
)


def check_precision(precision: int | None) -> None:
    """Refuse a requested p-adic precision outside 1..MAX_PRECISION; None means automatic."""
    if precision is None:
        return
    if precision < 1:
        raise InputError(f"precision must be at least 1, got {precision}")
    if precision > MAX_PRECISION:
        raise BoundExceeded(f"precision {precision} exceeds the bound {MAX_PRECISION}")


@dataclass(frozen=True)
class MTRequest:
    curve: EllipticCurve
    p: int
    n_max: int = 2
    mode: str = "neron"  # "neron" | "cohomological"
    precision: int | None = None
    cache_dir: Path | None = None  # falls back to $MT_CACHE_DIR, as in cache.load_space

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if self.mode not in ("neron", "cohomological"):
            raise ValueError(f"unknown mode {self.mode!r}")
        check_precision(self.precision)


@dataclass(frozen=True)
class LevelRow:
    n: int
    mu_coh: int
    mu: int            # in the operative normalization
    lam: int
    is_maximal: bool   # lam == p^n - 1
    integral: bool     # mu >= 0 in the operative normalization

    def to_dict(self) -> dict:
        return {"n": self.n, "mu_coh": self.mu_coh, "mu": self.mu, "lambda": self.lam,
                "is_maximal": self.is_maximal, "integral": self.integral}


def normalization_shift(norm_data: NormalizationData, p: int) -> int:
    """ord_p of the Neron scalar; mu-invariants move by this much (0 in cohomological mode)."""
    return int(valuation(norm_data.scalar, p)) if norm_data.mode == "neron" else 0


def level_rows(tower: MazurTateTower, shift: int) -> list:
    """Per-level invariants of theta_0 .. theta_{n_max}, mu also in the operative normalization."""
    rows = []
    for n, theta in enumerate(tower.thetas):
        inv = theta.iwasawa_invariants()
        mu_op = inv.mu + shift
        rows.append(LevelRow(n, inv.mu, mu_op, inv.lam, inv.lam == tower.p**n - 1, mu_op >= 0))
    return rows


@dataclass(frozen=True)
class StabilizedRow:
    n: int
    mu: int            # cohomological scale
    lam: int
    settled: bool = False  # equal to the previous level's (mu, lambda)


@dataclass
class DichotomyReport:
    label: str | None
    p: int
    n_max: int
    mode: str
    verdict: str                       # "CaseA" | "CaseB" | "Inconclusive"
    per_level: list = field(default_factory=list)
    stabilized: list = field(default_factory=list)
    lratio_valuation: int | None = None
    normalization_shift: int = 0
    norm_relation_verified: bool = False
    theta0_identity_verified: bool = False
    boundary: BoundaryCongruenceResult | None = None
    commentary: str = ""
    diagnostics: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict in ("CaseA", "CaseB") else 2

    def to_dict(self) -> dict:
        d = {
            "label": self.label,
            "p": self.p,
            "n_max": self.n_max,
            "mode": self.mode,
            "verdict": self.verdict,
            "lratio_valuation": self.lratio_valuation,
            "normalization_shift": self.normalization_shift,
            "norm_relation_verified": self.norm_relation_verified,
            "theta0_identity_verified": self.theta0_identity_verified,
            "per_level": [r.to_dict() for r in self.per_level],
            "stabilized": [
                {"n": r.n, "mu": r.mu, "lambda": r.lam, "settled": r.settled} for r in self.stabilized
            ],
            "diagnostics": list(self.diagnostics),
            "commentary": self.commentary,
        }
        if self.boundary is not None:
            d["boundary"] = self.boundary.to_dict()
        return d


def _require_good_ordinary(curve: EllipticCurve, p: int):
    if p == 2 or curve.conductor % p == 0:
        raise NotGoodOrdinary(f"p = {p} is not a good odd prime for conductor {curve.conductor}")
    if curve.a_ell(p) % p == 0:
        raise NotGoodOrdinary(f"a_{p} = {curve.a_ell(p)} is divisible by p; not ordinary")


def classify(request: MTRequest) -> DichotomyReport:
    """Run the full pipeline and classify into the finite-level dichotomy."""
    curve, p, n_max = request.curve, request.p, request.n_max
    _require_good_ordinary(curve, p)
    sym, norm_data = load_symbol(curve, request.mode, request.cache_dir)

    shift = normalization_shift(norm_data, p)
    lratio_val = None
    if request.mode == "neron":
        lratio_val = int(valuation(curve.lratio, p)) if curve.lratio else 0

    report = DichotomyReport(
        label=curve.label,
        p=p,
        n_max=n_max,
        mode=request.mode,
        verdict="Inconclusive",
        lratio_valuation=lratio_val,
        normalization_shift=shift,
    )

    tower = MazurTateTower(sym, p, n_max)
    report.per_level = level_rows(tower, shift)

    report.theta0_identity_verified = tower.theta0_identity(curve)
    if not report.theta0_identity_verified:
        report.diagnostics.append("theta_0 interpolation identity failed")

    precision = request.precision or working_precision(n_max, min(0, shift))
    for _ in range(3):
        try:
            alpha = unit_root(curve.a_ell(p), p, precision)
            stabilized = [tower.stabilized(alpha, n) for n in range(n_max + 1)]
            rows = []
            for n, s in enumerate(stabilized):
                inv = s.iwasawa_invariants()
                settled = bool(rows) and (inv.mu, inv.lam) == (rows[-1].mu, rows[-1].lam)
                rows.append(StabilizedRow(n, inv.mu, inv.lam, settled))
            report.stabilized = rows
            report.norm_relation_verified = all(
                tower.norm_relation(alpha, n).passed for n in range(1, n_max + 1)
            )
            break
        except PrecisionInsufficient:
            precision *= 2
    else:
        raise PrecisionInsufficient(f"stabilized invariants undetermined at precision {precision}")

    report.boundary = boundary_congruence(sym, p)
    if report.boundary.solvable or _has_rational_p_torsion_signature(curve, p):
        report.commentary = MULTIPLICITY_ONE_NOTE

    # theta_0 = (a_p - 2) phi({inf}-{0}) sigma_1 at a good p forces this valuation
    factor = theta0_interpolation_factor(curve, p)
    if request.mode == "neron" and factor != 0:
        expected_mu0 = lratio_val + int(valuation(factor, p))
        if report.per_level[0].mu != expected_mu0:
            report.diagnostics.append(
                f"mu(theta_0) = {report.per_level[0].mu} differs from "
                f"ord_p(lratio (a_p - 2)) = {expected_mu0}"
            )

    _apply_verdict(report, p, n_max, request.mode)
    return report


def _has_rational_p_torsion_signature(curve: EllipticCurve, p: int, ell_limit: int = 50) -> bool:
    """Eisenstein congruence signature a_ell = ell + 1 mod p at good ell."""
    return all(
        (curve.a_ell(ell) - ell - 1) % p == 0
        for ell in takewhile(lambda ell: ell <= ell_limit, primes())
        if curve.conductor % ell
    )


def _apply_verdict(report: DichotomyReport, p: int, n_max: int, mode: str):
    rows = report.per_level
    if mode == "neron" and rows[0].mu < 0:
        # case-B pattern: constant negative mu, maximal lambda at every level
        ok = all(r.mu == rows[0].mu and r.is_maximal for r in rows)
        if ok:
            report.verdict = "CaseB"
        else:
            report.diagnostics.append(
                "mu(theta_0) < 0 but the constant-mu/maximal-lambda pattern broke"
            )
        return
    if not all(r.integral for r in rows):
        report.diagnostics.append(
            "non-integral level found without a negative mu at level 0; no verdict"
        )
        return
    if mode == "cohomological":
        report.diagnostics.append(
            "cohomological mode: integrality is automatic, case B is undetectable"
        )
    if n_max < 2:
        report.diagnostics.append("need n_max >= 2 to certify stabilization")
        return
    top, prev = report.stabilized[-1], report.stabilized[-2]
    if (top.mu, top.lam) != (prev.mu, prev.lam):
        report.diagnostics.append("stabilized invariants have not settled at the top levels")
        return
    for stab, plain in ((top, rows[-1]), (prev, rows[-2])):
        if (stab.mu, stab.lam) != (plain.mu_coh, plain.lam):
            report.diagnostics.append(
                f"level-{plain.n} invariants differ from the stabilized ones; not yet in the stable range"
            )
            return
    report.verdict = "CaseA"


@dataclass(frozen=True)
class MaximalityReport:
    holds: bool
    t: int
    ord_p_phi0: int
    alphas: tuple          # unit residues mod p^t satisfying the congruence
    conclusions_verified: bool | None


def maximality_criterion(sym, p: int, n_max: int, t: int = 1) -> MaximalityReport:
    """Search for a unit alpha with phi({inf}-{a/p^{n+1}}) = alpha phi({inf}-{a/p^n}) mod p^t.

    Exhaustive over a when p^{n+1} <= MAXIMALITY_SAMPLE_BOUND, random sampling beyond.
    When a witness exists and t > ord_p(phi({inf}-{0})), the level-n elements
    must have mu = ord_p(phi({inf}-{0})) and maximal lambda; that conclusion
    is re-verified on computed invariants.
    """
    rng = random.Random(0)
    phi0 = sym.value_infinity_minus(0)
    if phi0 == 0:
        raise ValueError("criterion needs phi({inf}-{0}) nonzero")
    m = int(valuation(phi0, p))
    modulus = p**t
    candidates = [u for u in range(1, modulus) if u % p]
    for n in range(0, n_max + 1):
        q = p ** (n + 1)
        if q <= MAXIMALITY_SAMPLE_BOUND:
            a_values = [a for a in range(1, q) if a % p]
        else:
            a_values = {rng.randrange(1, q) for _ in range(200)}
            a_values = [a for a in a_values if a % p] or [1]
        for a in a_values:
            lower = sym.value_infinity_minus(Fraction(a, p**n))
            upper = sym.value_infinity_minus(Fraction(a, q))
            if lower.denominator % p == 0 or upper.denominator % p == 0:
                raise ValueError("criterion needs a p-integral symbol")
            x = PAdic.from_rational(lower, p, t).residue
            y = PAdic.from_rational(upper, p, t).residue
            candidates = [u for u in candidates if (y - u * x) % modulus == 0]
            if not candidates:
                return MaximalityReport(False, t, m, (), None)
    if t <= m:
        return MaximalityReport(False, t, m, tuple(candidates), None)
    verified = True
    for n, theta in enumerate(MazurTateTower(sym, p, n_max).thetas):
        inv = theta.iwasawa_invariants()
        if inv.mu != m or inv.lam != p**n - 1:
            verified = False
    return MaximalityReport(True, t, m, tuple(candidates), verified)
