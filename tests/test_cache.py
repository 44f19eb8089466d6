import json
from fractions import Fraction

import pytest

from mazurtate import cache
from mazurtate.cli import main
from mazurtate.errors import InputError
from mazurtate.hecke import eigensymbol
from mazurtate.modsym import build_space

from .conftest import make_curve, relation_actions
from .test_linalg import dense_rref


def test_corrupted_cache_file_is_rebuilt(tmp_path):
    space, curve, path = _eigensymbol_file(tmp_path)
    payload = json.loads(path.read_text())
    payload["coords"][0] = "999"  # tamper without fixing the checksum
    path.write_text(json.dumps(payload))
    rebuilt = cache.load_eigensymbol(space, curve, tmp_path)
    assert rebuilt.coords == eigensymbol(space, curve).coords
    # the rebuilt file is clean again
    assert cache._read(path) is not None


def test_eigensymbol_roundtrip(tmp_path):
    curve = make_curve("11a")
    space = build_space(11)
    first = cache.load_eigensymbol(space, curve, tmp_path)
    second = cache.load_eigensymbol(space, curve, tmp_path)
    assert first.coords == second.coords
    files = list(tmp_path.glob("eigsym_N11_*_plus.json"))
    assert len(files) == 1


def test_verify_cache_dir_counts_and_drops(tmp_path):
    _eigensymbol_file(tmp_path)
    bad = tmp_path / f"eigsym_N99_{'0' * 64}_plus.json"
    bad.write_text("{not json")
    stats = cache.verify_cache_dir(tmp_path)
    assert stats == {"clean": 1, "corrupted": 1}
    assert not bad.exists()


def test_verify_cache_dir_sweeps_every_kind_of_file(tmp_path):
    # the eigensymbol is the one name a load writes, and the eigensymbol command writes nothing else
    assert main(["eigensymbol", "--curve", "11a", "--cache", str(tmp_path), "--format", "json"]) == 0
    names = [path.name for path in tmp_path.iterdir()]
    assert len(names) == 1 and names[0].startswith("eigsym_N11_")
    assert all(cache.CACHE_FILE_NAME.fullmatch(name) for name in names)
    assert not any(cache.CACHE_FILE_NAME.fullmatch(name) for name in
                   ("space_N11.json", "space_N11_plus.json", "space_N11_minus.json", "space_N11_plus_plus.json",
                    "space_N_plus.json"))
    old = [tmp_path / "space_N11.json", tmp_path / "space_N11_plus.json"]  # quotients from older caches
    for path in old:
        path.write_text("{not json")
    assert cache.verify_cache_dir(tmp_path) == {"clean": 1, "corrupted": 0}
    for path in tmp_path.iterdir():
        path.write_text("{not json")
    assert cache.verify_cache_dir(tmp_path) == {"clean": 0, "corrupted": 1}
    assert sorted(tmp_path.iterdir()) == old


def test_verify_cache_dir_leaves_other_files_alone(tmp_path, capsys):
    _eigensymbol_file(tmp_path)
    record = tmp_path / "mycurve.json"
    record.write_text(json.dumps({"a1": 0, "a2": -1, "a3": 1, "a4": -10, "a6": -20, "conductor": 11}))
    notes = tmp_path / "notes.json"
    notes.write_text("{not json")
    near_misses = [tmp_path / name for name in ("space_N11.json.bak.json", "space_Nx.json", "eigsym_N11_abc_plus.json")]
    for path in near_misses:
        path.write_text("{not json")
    assert cache.verify_cache_dir(tmp_path) == {"clean": 1, "corrupted": 0}
    assert main(["selftest", "--cases", "1", "--cache", str(tmp_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["cache"] == {"clean": 1, "corrupted": 0}
    assert record.exists() and notes.exists() and all(path.exists() for path in near_misses)


def test_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
    cache.load_eigensymbol(build_space(11), make_curve("11a"))
    assert len(list(tmp_path.glob("eigsym_N11_*_plus.json"))) == 1


def test_eigensymbol_cache_is_keyed_by_curve_not_label(tmp_path):
    # 26a1's coefficients under 26b1's label must not be served 26b1's symbol
    assert main(["eigensymbol", "--curve", "26b1", "--cache", str(tmp_path), "--format", "json"]) == 0
    code = main(["eigensymbol", "--coeffs", "1,0,1,-5,-8", "--conductor", "26", "--label", "26b1",
                 "--cache", str(tmp_path), "--format", "json", "--output", str(tmp_path / "out.json")])
    assert code == 0
    assert json.loads((tmp_path / "out.json").read_text())["coords"] == ["-2", "-3", "-3", "3", "0", "6", "2"]
    assert len(list(tmp_path.glob("eigsym_N26_*_plus.json"))) == 2


def test_old_kind_eigensymbol_file_is_a_miss(tmp_path):
    # an eigensymbol stored over the full basis, under the older kind, is
    # rebuilt over the plus basis and rewritten under the current kind
    space, curve, path = _eigensymbol_file(tmp_path)
    payload = cache._read(path)
    full = build_space(11, plus=False)
    values = eigensymbol(space, curve).generator_values()
    payload |= {"kind": "eigensymbol", "coords": [str(values[b]) for b in full.basis]}
    cache._write(path, payload)
    assert len(cache._read(path)["coords"]) == 3
    assert cache.load_eigensymbol(space, curve, tmp_path).coords == eigensymbol(space, curve).coords
    payload = cache._read(path)
    assert payload["kind"] == cache.EIGENSYMBOL_KIND
    assert payload["coords"] == [str(c) for c in eigensymbol(space, curve).coords]


def test_label_does_not_reach_the_file_system(tmp_path):
    cache_dir = tmp_path / "cache"
    code = main(["eigensymbol", "--coeffs", "1,0,1,-5,-8", "--conductor", "26", "--label", "../escape",
                 "--cache", str(cache_dir), "--format", "json", "--output", str(tmp_path / "out.json")])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "out.json"]
    assert all(p.is_file() for p in cache_dir.iterdir())
    assert len(list(cache_dir.glob("eigsym_N26_*_plus.json"))) == 1


def test_stored_coefficients_are_checked_on_read(tmp_path):
    space = build_space(11)
    curve = make_curve("11a")
    cache.load_eigensymbol(space, curve, tmp_path)
    (path,) = tmp_path.glob("eigsym_N11_*_plus.json")
    payload = json.loads(path.read_text())
    payload.pop("checksum")
    payload["coeffs"] = [0, 0, 0, 0, 0]
    payload["coords"] = ["7"] * space.dimension
    cache._write(path, payload)  # checksum-clean, but for another curve
    assert cache.load_eigensymbol(space, curve, tmp_path).coords == eigensymbol(space, curve).coords


def test_directory_at_old_temp_name_does_not_block_writes(tmp_path):
    space, curve, path = _eigensymbol_file(tmp_path)
    path.unlink()
    path.with_suffix(".tmp").mkdir()
    sym = cache.load_eigensymbol(space, curve, tmp_path)
    assert cache._read(path) is not None
    assert sym.coords == eigensymbol(space, curve).coords


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        cache._write(tmp_path / "eigsym_N11.json", {"kind": object()})
    assert list(tmp_path.iterdir()) == []


class CountingList(list):
    """A list that counts the full passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_load_symbol_passes_over_p1_once(monkeypatch):
    # one pass for the eigenline's symbol; its content-one rescaling scales that
    # value table, and normalize must not rebuild a symbol that is already content-one
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
    spaces = []

    def counted_space(N, plus=True):
        space = build_space(N, plus)
        space.expressions = CountingList(space.expressions)
        spaces.append(space)
        return space

    monkeypatch.setattr(cache, "build_space", counted_space)
    sym, _ = cache.load_symbol(make_curve("26b1"))
    sym.generator_values()
    (space,) = spaces
    assert space.expressions.passes == 1


@pytest.mark.parametrize("under_file", [False, True])
def test_cache_path_naming_a_file_is_refused_before_any_build(tmp_path, monkeypatch, under_file):
    regular = tmp_path / "cache"
    regular.write_text("")
    not_a_dir = regular / "sub" if under_file else regular
    monkeypatch.setattr(cache, "build_space", lambda N, plus=True: pytest.fail("space built"))
    monkeypatch.setattr(cache, "eigensymbol", lambda *a: pytest.fail("eigensymbol built"))
    with pytest.raises(InputError, match="cannot use cache directory"):
        cache.load_eigensymbol(build_space(11), make_curve("11a"), not_a_dir)
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(not_a_dir))
    with pytest.raises(InputError, match="cannot use cache directory"):
        cache.load_symbol(make_curve("11a"))
    assert regular.read_text() == ""


def test_missing_cache_directory_is_created(tmp_path):
    cache_dir = tmp_path / "a" / "b"
    assert cache.resolve_cache_dir(cache_dir) == cache_dir and cache_dir.is_dir()
    assert cache.resolve_cache_dir(cache_dir) == cache_dir  # an existing directory is reused


@pytest.mark.parametrize("from_env", [False, True])
def test_cli_cache_naming_a_file_is_an_input_error(tmp_path, capsys, monkeypatch, from_env):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    argv = ["eigensymbol", "--curve", "11a", "--format", "json"]
    if from_env:
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(not_a_dir))
    else:
        argv += ["--cache", str(not_a_dir)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "input_error"
    assert error["message"].startswith(f"cannot use cache directory {not_a_dir}: ")


def _forge(path, key, value):
    """Rewrite one field of a cache file, with a checksum that matches."""
    payload = cache._read(path)
    payload[key] = value
    cache._write(path, payload)


def _eigensymbol_file(tmp_path, label="11a"):
    curve = make_curve(label)
    space = build_space(curve.conductor)
    cache.load_eigensymbol(space, curve, tmp_path)
    (path,) = tmp_path.glob(f"eigsym_N{curve.conductor}_*_plus.json")
    return space, curve, path


@pytest.mark.parametrize("coords", [["x", "0"], ["1/0", "0"], [None, "0"], ["1", "2", "3"], 5,
                                    [[0]], [["0", "x"]], [[0, "1/0"]], 7])
def test_eigensymbol_file_that_does_not_parse_is_a_miss(tmp_path, coords):
    space, curve, path = _eigensymbol_file(tmp_path)
    _forge(path, "coords", coords)
    fresh = eigensymbol(space, curve)
    assert cache.load_eigensymbol(space, curve, tmp_path).coords == fresh.coords
    assert cache._read(path)["coords"] == [str(c) for c in fresh.coords]  # rewritten


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("k", range(3))
def test_eigensymbol_file_off_the_eigenline_is_a_miss(tmp_path, k, delta):
    # checksum-clean but off the line: T_3 v = a_3 v fails (26b1, whose plus quotient has 5 coordinates)
    space, curve, path = _eigensymbol_file(tmp_path, "26b1")
    coords = [int(c) for c in cache._read(path)["coords"]]
    coords[k] += delta
    _forge(path, "coords", [str(c) for c in coords])
    assert cache.load_eigensymbol(space, curve, tmp_path).coords == eigensymbol(space, curve).coords


def test_zero_eigensymbol_file_is_a_miss(tmp_path):
    space, curve, path = _eigensymbol_file(tmp_path)
    _forge(path, "coords", ["0"] * space.dimension)
    assert cache.load_eigensymbol(space, curve, tmp_path).coords == eigensymbol(space, curve).coords


def test_forged_eigensymbol_file_does_not_change_the_analysis(tmp_path, capsys):
    argv = ["analyze", "--curve", "11a", "--p", "5", "--n-max", "2"]
    assert main(argv) == 0
    uncached = capsys.readouterr().out
    assert main(argv + ["--cache", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("eigsym_N11_*_plus.json")
    coords = cache._read(path)["coords"]
    assert coords[1] == "5"
    _forge(path, "coords", coords[:1] + ["4"])
    capsys.readouterr()
    assert main(argv + ["--cache", str(tmp_path)]) == 0
    assert capsys.readouterr().out == uncached


@pytest.mark.parametrize("text", ["[]", "5", '"checksum"'])
def test_cache_file_that_is_not_a_json_object_is_a_miss(tmp_path, text):
    space, curve, path = _eigensymbol_file(tmp_path)
    path.write_text(text)
    fresh = eigensymbol(space, curve)
    assert cache.load_eigensymbol(space, curve, tmp_path).coords == fresh.coords
    assert cache._read(path)["coords"] == [str(c) for c in fresh.coords]  # rewritten
    path.write_text(text)
    assert cache.verify_cache_dir(tmp_path) == {"clean": 0, "corrupted": 1}


def old_space_payload(N, basis):
    """The full quotient at level N re-expressed on the generators `basis`, as
    older versions cached it in space_N<N>.json: checksum-clean, and a
    quotient map by the certificate they checked on read."""
    sp = build_space(N, plus=False)
    dim = sp.dimension
    rows = [[Fraction(0)] * dim for _ in sp.expressions]
    for row, expr in zip(rows, sp.expressions):
        for t, c in expr:
            row[t] = Fraction(c)
    # [M | I] reduces to [I | M^-1], M the rows of the new basis generators
    identity = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    inverse = [r[dim:] for r in dense_rref([rows[b] + e for b, e in zip(basis, identity)])]
    expressions = [[[t, str(x)] for t in range(dim) if (x := sum(row[k] * inverse[k][t] for k in range(dim)))]
                   for row in rows]
    sigma, tau = relation_actions(sp.p1)
    return {"kind": "manin_space_sparse", "N": N, "basis": list(basis), "expressions": expressions,
            "sigma": sigma, "tau": tau}


def assert_space_file_is_ignored(tmp_path, capsys, argv, payload):
    """A space_N<N>.json planted in the cache leaves the report as it is uncached, and the file untouched."""
    assert main(argv) == 0
    uncached = capsys.readouterr().out
    path = tmp_path / f"space_N{payload['N']}.json"
    cache._write(path, payload)
    planted = path.read_text()
    assert main(argv + ["--cache", str(tmp_path)]) == 0
    assert capsys.readouterr().out == uncached
    assert path.read_text() == planted  # not rewritten


def test_forged_space_file_does_not_change_the_analysis(tmp_path, capsys):
    # checksum-clean, well-formed, but not the quotient map
    payload = old_space_payload(11, build_space(11, plus=False).basis)
    expressions = payload["expressions"]
    assert expressions[4] == [[1, "1"], [2, "-1"]]
    payload["expressions"] = expressions[:4] + [[[0, "2"]]] + expressions[5:]
    assert_space_file_is_ignored(tmp_path, capsys, ["eigensymbol", "--curve", "11a"], payload)


def test_re_expressed_space_file_does_not_change_the_eigensymbol(tmp_path, capsys):
    # a quotient map on other generators than the build's, which an older
    # version's certificate accepts: its coordinates would be those of another basis
    argv = ["eigensymbol", "--coeffs", "0,0,1,-1,0", "--conductor", "37", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["coords"] == ["0", "1", "-1", "0", "0"]
    assert build_space(37, plus=False).basis != [1, 3, 4, 6, 15]
    assert_space_file_is_ignored(tmp_path, capsys, argv, old_space_payload(37, [1, 3, 4, 6, 15]))
