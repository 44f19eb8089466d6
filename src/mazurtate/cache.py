"""On-disk caches: relation quotients keyed by level, eigensymbols by curve.

Eigensymbol files are keyed by a sha256 of the curve's content (a1..a6, N),
never by its label; on read the stored coefficients are compared and the
vector is checked against the first eigen-equations (hecke.fits_first_equations);
a stored space is used only if it is certified as the quotient map
(ManinSymbolSpace.presents_quotient).
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
from fractions import Fraction
from pathlib import Path

from .errors import InputError
from .hecke import eigensymbol, fits_first_equations, normalize
from .modsym import ManinSymbolSpace, ModularSymbol, P1List, build_space

ENV_CACHE_DIR = "MT_CACHE_DIR"

# Spaces are stored as sparse (coordinate, value) pairs; files of any other
# kind, such as the older dense "manin_space" rows, are rebuilt on read.
SPACE_KIND = "manin_space_sparse"

# The names load_space and load_eigensymbol write; verify_cache_dir sweeps no other file.
CACHE_FILE_NAME = re.compile(r"(space_N\d+|eigsym_N\d+_[0-9a-f]{64}_plus)\.json")


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


def space_payload(space: ManinSymbolSpace) -> dict:
    return {
        "kind": SPACE_KIND,
        "N": space.N,
        "basis": list(space.basis),
        "expressions": [[[t, str(c)] for t, c in e] for e in space.expressions],
        "sigma": list(space.sigma),
        "tau": list(space.tau),
    }


def space_from_payload(payload: dict) -> ManinSymbolSpace:
    N = payload["N"]
    p1 = P1List(N)
    # values are stored as str() of the exact format, so "/" marks the only Fractions
    expressions = [tuple((t, Fraction(c) if "/" in c else int(c)) for t, c in e) for e in payload["expressions"]]
    return ManinSymbolSpace(N, p1, list(payload["basis"]), expressions, list(payload["sigma"]), list(payload["tau"]))


def _certified_space(payload: dict) -> ManinSymbolSpace | None:
    """The stored space if it is certified as the quotient map (ManinSymbolSpace.presents_quotient)."""
    space = space_from_payload(payload)
    return space if space.presents_quotient() else None


def _parsed(parse, payload):
    """parse(payload), or None when the payload does not parse."""
    try:
        return parse(payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None


def load_space(N: int, cache_dir: Path | None = None) -> ManinSymbolSpace:
    """Cached space when a directory is configured; rebuild on any mismatch, parse
    failure or failed certificate."""
    cache_dir = resolve_cache_dir(cache_dir)
    if cache_dir is None:
        return build_space(N)
    path = cache_dir / f"space_N{N}.json"
    payload = _read(path)
    if payload is not None and payload.get("N") == N and payload.get("kind") == SPACE_KIND:
        space = _parsed(_certified_space, payload)
        if space is not None:
            return space
    space = build_space(N)
    _write(path, space_payload(space))
    return space


def load_eigensymbol(space: ManinSymbolSpace, curve, cache_dir: Path | None = None) -> ModularSymbol:
    """Cached plus-eigensymbol when a directory is configured, else computed.

    A stored vector is used only if it parses, has the space's dimension and
    passes hecke.fits_first_equations; those checks are exact but are not a
    certificate of the eigenline, which would need the rank.  Any failure
    is a miss: the symbol is computed and the file rewritten.
    """
    cache_dir = resolve_cache_dir(cache_dir)
    if cache_dir is None:
        return eigensymbol(space, curve)
    import hashlib

    coeffs = [curve.a1, curve.a2, curve.a3, curve.a4, curve.a6]
    key = hashlib.sha256(json.dumps(coeffs + [curve.conductor]).encode()).hexdigest()
    path = cache_dir / f"eigsym_N{space.N}_{key}_plus.json"
    payload = _read(path)
    if (payload is not None and payload.get("kind") == "eigensymbol" and payload.get("N") == space.N
            and payload.get("coeffs") == coeffs):
        sym = _parsed(lambda p: ModularSymbol(space, p["coords"], sign="+"), payload)
        if sym is not None and fits_first_equations(space, curve, sym.coords):
            return sym
    sym = eigensymbol(space, curve)
    _write(path, {"kind": "eigensymbol", "N": space.N, "coeffs": coeffs, "sign": "+",
                  "coords": [str(c) for c in sym.coords]})
    return sym


def load_symbol(curve, mode: str = "cohomological", cache_dir: Path | None = None):
    """(normalized plus-eigensymbol, NormalizationData) of the curve, through the cache."""
    space = load_space(curve.conductor, cache_dir)
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
