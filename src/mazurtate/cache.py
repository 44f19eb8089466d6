"""On-disk cache of plus eigensymbols, keyed by curve.

Eigensymbol files hold coordinates over the plus basis and are keyed by a
sha256 of the curve's content (a1..a6, N), never by its label; on read the
stored coefficients are compared and the vector is checked against the first
eigen-equations (hecke.fits_first_equations).  The plus quotient, which every
command works in, is built on every run, and no relation quotient is stored:
files named space_N<N>.json from older versions are neither read nor swept.
Everything is JSON with exact integers/rationals as decimal strings, guarded
by a sha256 checksum over the canonical payload; a corrupted, stale or
unparsable file, or one that fails those checks, is a miss and is silently
rebuilt.  load_symbol is the one way the commands get their normalized symbol.
"""
from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

from .errors import InputError
from .hecke import eigensymbol, fits_first_equations, normalize
from .modsym import ManinSymbolSpace, ModularSymbol, build_space, check_level
from .primes import prime_factors

ENV_CACHE_DIR = "MT_CACHE_DIR"

# Eigensymbols are stored over the plus basis; the older "eigensymbol" files,
# over the full basis, are rebuilt on read.
EIGENSYMBOL_KIND = "plus_eigensymbol"

# The names load_eigensymbol writes; verify_cache_dir sweeps no other file.
CACHE_FILE_NAME = re.compile(r"eigsym_N\d+_[0-9a-f]{64}_plus\.json")

# A stored coordinate as load_eigensymbol writes it: an int or a reduced
# fraction, so a read never parses an exponent form such as "1e10000000".
COORD = re.compile(r"-?[0-9]+(/[0-9]+)?")


def default_cache_dir() -> Path | None:
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else None


def resolve_cache_dir(cache_dir: Path | None) -> Path | None:
    """cache_dir, else $MT_CACHE_DIR, else None (no cache).

    Creates the directory, so a path that cannot be one is refused before any build.
    """
    cache_dir = cache_dir or default_cache_dir()
    if cache_dir is None:
        return None
    try:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot use cache directory {cache_dir}: {exc.strerror}") from exc
    return Path(cache_dir)


def _checksum(payload: dict) -> str:
    import hashlib  # here and in load_eigensymbol only, so a run without a cache never loads it

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write(path: Path, payload: dict):
    payload = dict(payload)
    payload["checksum"] = _checksum({k: v for k, v in payload.items() if k != "checksum"})
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read(path: Path) -> dict | None:
    """Payload if present, a JSON object and checksum-clean, else None."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    stated = payload.pop("checksum", None)
    return payload if _checksum(payload) == stated else None


def load_space(N: int) -> ManinSymbolSpace:
    """The full quotient at level N, built: no command calls this, and
    nothing is cached; bench/traced_cli.py names it in its TRACED list."""
    return build_space(N, plus=False)


def load_eigensymbol(space: ManinSymbolSpace, curve, cache_dir: Path | None = None) -> ModularSymbol:
    """Cached plus-eigensymbol when a directory is configured, else computed.

    The space is the plus quotient.  A stored vector is used only if it has
    the space's dimension, every entry is a COORD string (checked before any
    is parsed) and it passes hecke.fits_first_equations;
    those checks are exact but are not a certificate of the eigenline, which
    would need the rank.  Any failure is a miss: the symbol is computed and
    the file rewritten.
    """
    cache_dir = resolve_cache_dir(cache_dir)
    if cache_dir is None:
        return eigensymbol(space, curve)
    import hashlib

    coeffs = [curve.a1, curve.a2, curve.a3, curve.a4, curve.a6]
    key = hashlib.sha256(json.dumps(coeffs + [curve.conductor]).encode()).hexdigest()
    path = cache_dir / f"eigsym_N{space.N}_{key}_plus.json"
    payload = _read(path) or {}
    stored = payload.get("coords")
    if (payload.get("kind") == EIGENSYMBOL_KIND and payload.get("N") == space.N and payload.get("coeffs") == coeffs
            and isinstance(stored, list) and len(stored) == space.dimension
            and all(isinstance(c, str) and COORD.fullmatch(c) for c in stored)):
        try:
            sym = ModularSymbol(space, stored, sign="+")
        except (ValueError, ZeroDivisionError):  # more digits than int() reads, or a zero denominator
            sym = None
        if sym is not None and fits_first_equations(space, curve, sym.coords):
            return sym
    sym = eigensymbol(space, curve)
    _write(path, {"kind": EIGENSYMBOL_KIND, "N": space.N, "coeffs": coeffs, "sign": "+",
                  "coords": [str(c) for c in sym.coords]})
    return sym


def load_symbol(curve, mode: str = "cohomological", cache_dir: Path | None = None):
    """(normalized plus-eigensymbol, Neron scalar or None) of the curve, through the cache (hecke.normalize).

    Before the plus quotient is built, the level is checked against the
    index bound (before it is factored), a_ell is taken at each prime of
    the conductor, which refuses a conductor exponent the model does not
    fit, and the cache directory is resolved.  The plus quotient is built on
    every run: building it costs less than a certified read would.
    """
    check_level(curve.conductor)
    for ell, _ in prime_factors(curve.conductor):
        curve.a_ell(ell)
    cache_dir = resolve_cache_dir(cache_dir)
    space = build_space(curve.conductor)
    return normalize(load_eigensymbol(space, curve, cache_dir), curve, mode)


def verify_cache_dir(cache_dir: Path) -> dict:
    """Integrity sweep of the files named CACHE_FILE_NAME: counts clean and
    corrupted entries, dropping the latter; other files are left alone."""
    clean, corrupted = 0, 0
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return {"clean": 0, "corrupted": 0}
    for path in sorted(p for p in cache_dir.iterdir() if CACHE_FILE_NAME.fullmatch(p.name)):
        if _read(path) is None:
            corrupted += 1
            path.unlink()
        else:
            clean += 1
    return {"clean": clean, "corrupted": corrupted}
