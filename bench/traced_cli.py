"""Run one ``mazurtate`` CLI job with spans around the package's public functions.

Usage: python bench/traced_cli.py SPAN_FILE ARGV...

Wrappers are installed from outside the package: every namespace that bound
a traced function gets the wrapper, and traced methods are replaced on their
classes.  Each call records a span ``[name, start, end, parent]`` (parent is
the index of the enclosing span, or -1).  Counters are kept beside the spans.
Everything stays in memory and is written to SPAN_FILE as JSON when
``mazurtate.cli.main`` returns; the process then exits with main's code, so
its stdout and exit code are those of the plain CLI job.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import mazurtate.cli
from mazurtate import boundary, cache, curves, cusps, elements, groupring, hecke, linalg, modsym, padics

# The package re-exports the function ``classify`` under the module's name.
classify = importlib.import_module("mazurtate.classify")

# (owner, attribute, span name); owners that are classes get methods patched.
# cache._read is wrapped without a span (see install), so that read time
# stays in the self time of cache.load_space.
TRACED = [
    (modsym.P1List, "__init__", "modsym.P1List"),
    (modsym, "build_space", "modsym.build_space"),
    (modsym.ModularSymbol, "generator_values", "modsym.generator_values"),
    (modsym.ModularSymbol, "value_infinity_minus", "modsym.value_infinity_minus"),
    (hecke, "eigensymbol", "hecke.eigensymbol"),
    (hecke, "hecke_matrix", "hecke.hecke_matrix"),
    (hecke, "normalize", "hecke.normalize"),
    (linalg, "nullspace", "linalg.nullspace"),
    (linalg, "mat_mul", "linalg.mat_mul"),
    (linalg, "rref_mod_p", "linalg.rref_mod_p"),
    (linalg, "solve_mod_p", "linalg.solve_mod_p"),
    (curves.EllipticCurve, "a_ell", "curves.a_ell"),
    (elements, "mazur_tate", "elements.mazur_tate"),
    (elements, "stabilized_mazur_tate", "elements.stabilized_mazur_tate"),
    (elements, "check_norm_relation", "elements.check_norm_relation"),
    (elements, "check_theta0_identity", "elements.check_theta0_identity"),
    (groupring.GroupRingElement, "t_coefficients", "groupring.t_coefficients"),
    (groupring.GroupRingElement, "iwasawa_invariants", "groupring.iwasawa_invariants"),
    (groupring, "_taylor_shift_by_one", "groupring.taylor_shift"),
    (padics, "unit_root", "padics.unit_root"),
    (cusps, "boundary_space_matrix", "cusps.boundary_space_matrix"),
    (boundary, "boundary_congruence", "boundary.boundary_congruence"),
    (cache, "load_space", "cache.load_space"),
    (cache, "load_eigensymbol", "cache.load_eigensymbol"),
    (classify, "classify", "classify.classify"),
    (mazurtate.cli, "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.p1_size = {}
        self.dimension = {}
        self.cusps_seen = set()

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = getattr(self, "observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        return traced

    # Counters taken at the span boundaries.

    def observe_modsym_P1List(self, idx, args, kwargs, result):
        p1 = args[0]
        self.p1_size[p1.N] = len(p1)

    def observe_modsym_build_space(self, idx, args, kwargs, result):
        self.dimension[result.N] = result.dimension

    def observe_cache_load_space(self, idx, args, kwargs, result):
        self.dimension[result.N] = result.dimension
        self._hit_or_miss(idx, args[1:], kwargs, "cache.load_space", "modsym.build_space")

    def observe_cache_load_eigensymbol(self, idx, args, kwargs, result):
        self._hit_or_miss(idx, args[2:], kwargs, "cache.load_eigensymbol", "hecke.eigensymbol")

    def _hit_or_miss(self, idx, rest, kwargs, name, builder):
        """With a cache directory set, a load whose span ran the builder is a miss.

        ``rest`` holds the positional arguments after the key, i.e. the
        optional ``cache_dir``.
        """
        cache_dir = rest[0] if rest else kwargs.get("cache_dir")
        if (cache_dir or cache.default_cache_dir()) is None:
            return
        built = any(s[0] == builder and s[3] == idx for s in self.spans[idx + 1:])
        self.count(name + (".misses" if built else ".hits"))

    def counting_read(self, read):
        @functools.wraps(read)
        def counted(path):
            try:
                self.count("cache.bytes_read", os.path.getsize(path))
            except OSError:
                pass
            return read(path)

        return counted

    def observe_modsym_value_infinity_minus(self, idx, args, kwargs, result):
        # Keyed by the symbol's content: ids of freed symbols are reused.
        sym = args[0]
        self.cusps_seen.add((sym.space.N, sym.sign, sym.coords, modsym.as_cusp(args[1])))

    def observe_groupring_taylor_shift(self, idx, args, kwargs, result):
        m = len(args[0])
        self.count("groupring.taylor_shift.ops", m * (m - 1) // 2)

    def install(self):
        loaded = [m for n, m in sys.modules.items() if n == "mazurtate" or n.startswith("mazurtate.")]
        patches = [(owner, attr, self.wrap(getattr(owner, attr), name)) for owner, attr, name in TRACED]
        patches.append((cache, "_read", self.counting_read(cache._read)))
        for owner, attr, wrapped in patches:
            original = getattr(owner, attr)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path):
        self.counters["modsym.value_infinity_minus.distinct"] = len(self.cusps_seen)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "p1_size": self.p1_size, "dimension": self.dimension}, fh)


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = mazurtate.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
