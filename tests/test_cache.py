import json
from fractions import Fraction

import pytest

from mazurtate import cache
from mazurtate.cli import main
from mazurtate.errors import InputError
from mazurtate.hecke import eigensymbol
from mazurtate.modsym import build_space

from .conftest import make_curve


def test_space_roundtrip(tmp_path):
    fresh = cache.load_space(11, tmp_path)
    again = cache.load_space(11, tmp_path)
    direct = build_space(11)
    assert again.basis == direct.basis
    assert again.expressions == direct.expressions
    assert (tmp_path / "space_N11.json").exists()
    assert fresh.dimension == again.dimension


def test_corrupted_space_cache_is_rebuilt(tmp_path):
    cache.load_space(11, tmp_path)
    path = tmp_path / "space_N11.json"
    payload = json.loads(path.read_text())
    payload["expressions"][0][0] = "999"  # tamper without fixing the checksum
    path.write_text(json.dumps(payload))
    rebuilt = cache.load_space(11, tmp_path)
    assert rebuilt.expressions == build_space(11).expressions
    # the rebuilt file is clean again
    assert cache._read(path) is not None


def test_eigensymbol_roundtrip(tmp_path):
    curve = make_curve("11a")
    space = cache.load_space(11, tmp_path)
    first = cache.load_eigensymbol(space, curve, tmp_path)
    second = cache.load_eigensymbol(space, curve, tmp_path)
    assert first.coords == second.coords
    files = list(tmp_path.glob("eigsym_N11_*_plus.json"))
    assert len(files) == 1


def test_verify_cache_dir_counts_and_drops(tmp_path):
    cache.load_space(11, tmp_path)
    bad = tmp_path / "space_N99.json"
    bad.write_text("{not json")
    stats = cache.verify_cache_dir(tmp_path)
    assert stats == {"clean": 1, "corrupted": 1}
    assert not bad.exists()


def test_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
    cache.load_space(11)
    assert (tmp_path / "space_N11.json").exists()


def test_eigensymbol_cache_is_keyed_by_curve_not_label(tmp_path):
    # 26a1's coefficients under 26b1's label must not be served 26b1's symbol
    assert main(["eigensymbol", "--curve", "26b1", "--cache", str(tmp_path), "--format", "json"]) == 0
    code = main(["eigensymbol", "--coeffs", "1,0,1,-5,-8", "--conductor", "26", "--label", "26b1",
                 "--cache", str(tmp_path), "--format", "json", "--output", str(tmp_path / "out.json")])
    assert code == 0
    assert json.loads((tmp_path / "out.json").read_text())["coords"] == ["-2", "-3", "-3", "3", "0", "6", "2"]
    assert len(list(tmp_path.glob("eigsym_N26_*_plus.json"))) == 2


def test_label_does_not_reach_the_file_system(tmp_path):
    cache_dir = tmp_path / "cache"
    code = main(["eigensymbol", "--coeffs", "1,0,1,-5,-8", "--conductor", "26", "--label", "../escape",
                 "--cache", str(cache_dir), "--format", "json", "--output", str(tmp_path / "out.json")])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "out.json"]
    assert all(p.is_file() for p in cache_dir.iterdir())
    assert len(list(cache_dir.glob("eigsym_N26_*_plus.json"))) == 1


def test_stored_coefficients_are_checked_on_read(tmp_path):
    space = cache.load_space(11, tmp_path)
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
    (tmp_path / "space_N11.tmp").mkdir()
    space = cache.load_space(11, tmp_path)
    assert cache._read(tmp_path / "space_N11.json") is not None
    assert space.dimension == build_space(11).dimension


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        cache._write(tmp_path / "space_N11.json", {"kind": object()})
    assert list(tmp_path.iterdir()) == []


def test_old_dense_space_file_is_rebuilt(tmp_path):
    space = build_space(11)
    path = tmp_path / "space_N11.json"
    rows = [space.coordinate_row([i]) for i in range(len(space.p1))]
    dense = [[str(row.get(t, Fraction(0))) for t in range(space.dimension)] for row in rows]
    cache._write(path, {"kind": "manin_space", "N": 11, "basis": list(space.basis), "expressions": dense,
                        "sigma": list(space.sigma), "tau": list(space.tau)})
    assert cache.load_space(11, tmp_path).expressions == space.expressions
    payload = cache._read(path)
    assert payload["kind"] == cache.SPACE_KIND
    assert payload == cache.space_payload(space)


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

    def counted_space(N):
        space = build_space(N)
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
    monkeypatch.setattr(cache, "build_space", lambda N: pytest.fail("space built"))
    monkeypatch.setattr(cache, "eigensymbol", lambda *a: pytest.fail("eigensymbol built"))
    with pytest.raises(InputError, match="cannot use cache directory"):
        cache.load_space(11, not_a_dir)
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


@pytest.mark.parametrize("entry", [[[0]], [["0", "x"]], [[0, "1/0"]], 7])
def test_space_file_that_does_not_parse_is_a_miss(tmp_path, entry):
    cache.load_space(11, tmp_path)
    path = tmp_path / "space_N11.json"
    expressions = cache._read(path)["expressions"]
    _forge(path, "expressions", [entry] + expressions[1:])
    fresh = build_space(11)
    assert cache.load_space(11, tmp_path).expressions == fresh.expressions
    assert cache._read(path) == cache.space_payload(fresh)  # rewritten


def _eigensymbol_file(tmp_path):
    space = cache.load_space(11, tmp_path)
    curve = make_curve("11a")
    cache.load_eigensymbol(space, curve, tmp_path)
    (path,) = tmp_path.glob("eigsym_N11_*_plus.json")
    return space, curve, path


@pytest.mark.parametrize("coords", [["x", "0", "0"], ["1/0", "0", "0"], [None, "0", "0"], ["1", "2"], 5])
def test_eigensymbol_file_that_does_not_parse_is_a_miss(tmp_path, coords):
    space, curve, path = _eigensymbol_file(tmp_path)
    _forge(path, "coords", coords)
    fresh = eigensymbol(space, curve)
    assert cache.load_eigensymbol(space, curve, tmp_path).coords == fresh.coords
    assert cache._read(path)["coords"] == [str(c) for c in fresh.coords]  # rewritten


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("k", range(3))
def test_eigensymbol_file_off_the_eigenline_is_a_miss(tmp_path, k, delta):
    # checksum-clean but off the line: J v = v or T_2 v = a_2 v fails
    space, curve, path = _eigensymbol_file(tmp_path)
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
    assert coords[2] == "-10"
    _forge(path, "coords", coords[:2] + ["-9"])
    capsys.readouterr()
    assert main(argv + ["--cache", str(tmp_path)]) == 0
    assert capsys.readouterr().out == uncached


@pytest.mark.parametrize("text", ["[]", "5", '"checksum"'])
def test_cache_file_that_is_not_a_json_object_is_a_miss(tmp_path, text):
    path = tmp_path / "space_N11.json"
    path.write_text(text)
    fresh = build_space(11)
    assert cache.load_space(11, tmp_path).expressions == fresh.expressions
    assert cache._read(path) == cache.space_payload(fresh)  # rewritten
    path.write_text(text)
    assert cache.verify_cache_dir(tmp_path) == {"clean": 0, "corrupted": 1}


def test_forged_space_file_does_not_change_the_analysis(tmp_path, capsys):
    # checksum-clean, well-formed, but not the quotient map: the certificate refuses it
    argv = ["analyze", "--curve", "11a", "--p", "5", "--n-max", "2"]
    assert main(argv) == 0
    uncached = capsys.readouterr().out
    cache.load_space(11, tmp_path)
    path = tmp_path / "space_N11.json"
    expressions = cache._read(path)["expressions"]
    assert expressions[5] == [[1, "1"]]
    _forge(path, "expressions", expressions[:5] + [[[0, "2"]]] + expressions[6:])
    assert main(argv + ["--cache", str(tmp_path)]) == 0
    assert capsys.readouterr().out == uncached
    assert cache._read(path) == cache.space_payload(build_space(11))  # rewritten
