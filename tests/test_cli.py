"""CLI: parsing, JSON round trips, exit codes."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tauideal import cli
from tauideal.cli import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    load_ideal,
    load_ring,
    main,
)
from tauideal.errors import TauIdealError
from tauideal.ideals import MonomialIdeal
from tauideal.lattice import ToricRing, orthant_ring
from tauideal.polyhedra import exponent


@pytest.fixture()
def files(tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(
        {"d": 2, "cone_generators": [[1, 0], [0, 1]], "shape_hint": "orthant"}
    ))
    ideal = tmp_path / "cusp.json"
    ideal.write_text(json.dumps({"generators": [[2, 0], [0, 3]]}))
    return tmp_path, str(ring), str(ideal)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_tau_all_methods_agree(files, capsys):
    _, ring, ideal = files
    code, out = run(capsys, [
        "tau", "--ring", ring, "--ideal", ideal, "--t", "1",
        "--method", "all", "--out", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    for method in ("polyhedral", "socle", "root"):
        assert payload["generators"][method] == [[0, 1], [1, 0]]


def test_tau_all_builds_one_polyhedron_for_the_polyhedral_and_socle_routes(
    files, capsys, monkeypatch
):
    import sys

    _, ring, ideal = files
    argv = ["tau", "--ring", ring, "--ideal", ideal, "--t", "5/6", "--out", "json"]
    alone = {}
    for method in ("polyhedral", "socle", "root"):
        code, out = run(capsys, [*argv, "--method", method])
        assert code == 0
        alone.update(json.loads(out)["generators"])
    builds = []
    for name in ("tau", "frobenius"):
        module = sys.modules[f"tauideal.{name}"]
        real = module.newton_polyhedron
        monkeypatch.setattr(
            module, "newton_polyhedron",
            lambda *args, real=real: builds.append(None) or real(*args),
        )
    code, out = run(capsys, [*argv, "--method", "all"])
    assert code == 0 and len(builds) == 1
    payload = json.loads(out)
    assert payload["generators"] == alone
    assert payload["agreement"] is True and payload["inconclusive"] == []


def _ring_and_ideal(tmp_path, cone_generators, generators):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"cone_generators": cone_generators}))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"generators": generators}))
    return ["--ring", str(ring), "--ideal", str(ideal)]


def test_tau_all_methods_include_root_on_veronese(tmp_path, capsys):
    # Veronese(2,2): Gorenstein, so every q = 2^e is admissible for the root
    io = _ring_and_ideal(tmp_path, [[2, -1], [0, 1]], [[1, 0], [1, 1], [1, 2]])
    code, out = run(capsys, ["tau", *io, "--t", "3/2", "--method", "all", "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True and not payload["inconclusive"]
    assert sorted(payload["generators"]) == ["polyhedral", "root", "socle"]


def test_root_method_where_p_divides_the_gorenstein_index(tmp_path, capsys):
    # Veronese(3,2) has Gorenstein index 2: no q = 2^e has (q-1)*w integral
    io = _ring_and_ideal(
        tmp_path, [[2, -1, -1], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 1, 0], [1, 0, 1]]
    )
    assert main(["tau", *io, "--method", "root"]) == 3
    code, out = run(capsys, ["tau", *io, "--method", "all", "--out", "json"])
    assert code == 0
    assert sorted(json.loads(out)["generators"]) == ["polyhedral", "socle"]
    code, out = run(capsys, [
        "tau", *io, "--method", "all", "--prime", "3", "--qmax", "27", "--out", "json",
    ])
    assert code == 0
    assert sorted(json.loads(out)["generators"]) == ["polyhedral", "root", "socle"]


def test_tau_t_zero_is_unit(files, capsys):
    _, ring, ideal = files
    code, out = run(capsys, [
        "tau", "--ring", ring, "--ideal", ideal, "--t", "0", "--out", "json",
    ])
    assert code == 0
    assert json.loads(out)["generators"]["polyhedral"] == [[0, 0]]


def test_tau_threshold_exactness(files, capsys):
    _, ring, ideal = files
    code, out = run(capsys, [
        "tau", "--ring", ring, "--ideal", ideal, "--t", "1/3", "--out", "json",
    ])
    assert json.loads(out)["generators"]["polyhedral"] == [[0, 0]]
    code, out = run(capsys, [
        "tau", "--ring", ring, "--ideal", ideal, "--t", "5/6", "--out", "json",
    ])
    assert json.loads(out)["generators"]["polyhedral"] == [[0, 1], [1, 0]]


def test_newton_report(files, capsys):
    _, ring, ideal = files
    code, out = run(capsys, [
        "newton", "--ring", ring, "--ideal", ideal, "--t", "5/6",
        "--out", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert [[3, 2], "5"] in payload["inequalities"]
    assert ["5/3", "0"] in payload["vertices"]


def test_check_campaign_report_schema(capsys):
    code, out = run(capsys, [
        "check", "regular_powers", "--out", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["campaign"] == "regular_powers"
    assert payload["instances"] == payload["passes"] == 40
    assert payload["failures"] == []
    assert isinstance(payload["wall_ms"], int)


def test_check_determinism(capsys):
    _, out1 = run(capsys, ["check", "subadditivity", "--seed", "9",
                           "--count", "10", "--out", "json"])
    _, out2 = run(capsys, ["check", "subadditivity", "--seed", "9",
                           "--count", "10", "--out", "json"])
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("wall_ms"), p2.pop("wall_ms")
    assert p1 == p2


def test_crosscheck_corpus(files, capsys):
    tmp_path, ring, _ = files
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(json.dumps({"generators": [[2, 0], [0, 3]]}))
    (corpus / "b.json").write_text(json.dumps({"generators": [[1, 0], [0, 1]]}))
    code, out = run(capsys, [
        "crosscheck", "--ring", ring, "--corpus", str(corpus),
        "--t", "1/2,1,3/2", "--out", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] == payload["passes"] == 6


def test_veronese_command(capsys):
    code, out = run(capsys, [
        "veronese", "--d", "3", "--r", "2", "--l", "2", "--out", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form_exponent"] == 1
    assert payload["agreement"] is True


def test_input_error_exit_code(files, capsys):
    _, ring, _ = files
    code = main(["tau", "--ring", ring, "--ideal", "/does/not/exist.json"])
    assert code == 3


def test_composite_prime_is_an_input_error(files, capsys):
    _, ring, ideal = files
    code, _ = run(capsys, [
        "tau", "--ring", ring, "--ideal", ideal, "--t", "1",
        "--method", "socle", "--prime", "4",
    ])
    assert code == 3


def test_bad_ring_rank_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 3, "cone_generators": [[1, 0], [0, 1]]}))
    ideal = tmp_path / "i.json"
    ideal.write_text(json.dumps({"generators": [[1, 0]]}))
    assert main(["tau", "--ring", str(bad), "--ideal", str(ideal)]) == 3


@pytest.mark.parametrize("rank", ["two", None])
def test_unparsable_ring_rank_rejected(tmp_path, rank):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": rank, "cone_generators": [[1, 0], [0, 1]]}))
    ideal = tmp_path / "i.json"
    ideal.write_text(json.dumps({"generators": [[1, 0]]}))
    assert main(["tau", "--ring", str(bad), "--ideal", str(ideal)]) == 3


def test_non_q_gorenstein_ring_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"cone_generators": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 2]]}
    ))
    ideal = tmp_path / "i.json"
    ideal.write_text(json.dumps({"generators": [[0, 0, 1]]}))
    assert main(["tau", "--ring", str(bad), "--ideal", str(ideal)]) == 3


@pytest.mark.parametrize("generators, message", [
    ([[1, 0], [2, 0]], "error: the generators [(1, 0)] do not span"),
    ([[1, 0], [-1, 0], [0, 1]], "error: the generators' cone contains the line through (-1, 0)"),
])
def test_a_degenerate_cone_is_an_input_error(tmp_path, capsys, generators, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cone_generators": generators}))
    ideal = tmp_path / "i.json"
    ideal.write_text(json.dumps({"generators": [[1, 0]]}))
    assert main(["tau", "--ring", str(bad), "--ideal", str(ideal)]) == 3
    assert capsys.readouterr().err.strip() == message


def test_ring_json_round_trip(files):
    _, ring_path, _ = files
    data = json.loads(open(ring_path).read())
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("generators, hint", [
    ([[1, 0], [1, 2]], "orthant"),  # a Veronese cone declared as the orthant
    ([[1, 0], [0, 1]], "simplicial"),  # no such hint
])
def test_bad_shape_hint_rejected(tmp_path, generators, hint):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cone_generators": generators, "shape_hint": hint}))
    ideal = tmp_path / "i.json"
    ideal.write_text(json.dumps({"generators": [[1, 0]]}))
    assert main(["tau", "--ring", str(bad), "--ideal", str(ideal)]) == 3


@pytest.mark.parametrize("ring_data, ideal_gens", [
    # int() would read these as rank 2 and the generator (1, 0)
    ({"d": 2.5, "cone_generators": [[1, 0], [0, 1]]}, [[1, 0]]),
    ({"cone_generators": [[1, 0], [0, 1]]}, [[1.7, 0]]),
    ({"cone_generators": [[1.0, 0], [0, 1]]}, [[1, 0]]),
    # bools are ints to Python but not integers in JSON
    ({"d": True, "cone_generators": [[1]]}, [[1]]),
    ({"cone_generators": [[True, False], [False, True]]}, [[1, 0]]),
    ({"cone_generators": [[1, 0], [0, 1]]}, [[True, False]]),
    # numeric strings are not numbers
    ({"d": "2", "cone_generators": [[1, 0], [0, 1]]}, [[1, 0]]),
    ({"cone_generators": [["1", "0"], [0, 1]]}, [[1, 0]]),
    ({"cone_generators": [[1, 0], [0, 1]]}, [["1", "0"]]),
    # rows that are not sequences of numbers
    ({"cone_generators": [[1, 0], 5]}, [[1, 0]]),
    ({"cone_generators": [[1, 0], [0, 1]]}, [5]),
    ({"cone_generators": [[1, 0], "12"]}, [[1, 0]]),
    ({"cone_generators": [[1, 0], [0, 1]]}, ["12"]),
    ({"cone_generators": [[1, 0], None]}, [[1, 0]]),
    ({"cone_generators": [[1, 0], [0, 1]]}, [None]),
    ({"cone_generators": [[1, 0], {"x": 0, "y": 1}]}, [[1, 0]]),
    ({"cone_generators": [[1, 0], [0, 1]]}, [{"x": 1, "y": 0}]),
], ids=[
    "float-rank", "float-ideal", "float-cone",
    "bool-rank", "bool-cone", "bool-ideal",
    "string-rank", "string-cone", "string-ideal",
    "int-row-cone", "int-row-ideal", "string-row-cone", "string-row-ideal",
    "null-row-cone", "null-row-ideal", "dict-row-cone", "dict-row-ideal",
])
def test_non_integer_json_numbers_rejected(tmp_path, ring_data, ideal_gens):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(ring_data))
    ideal = tmp_path / "i.json"
    ideal.write_text(json.dumps({"generators": ideal_gens}))
    assert main(["tau", "--ring", str(ring), "--ideal", str(ideal)]) == 3


def test_an_exponent_in_exponent_notation_is_an_input_error(files, capsys):
    _, ring, ideal = files
    # read as a Fraction, this would build 10**999999999 first
    assert main(["tau", "--ring", ring, "--ideal", ideal, "--t", "1e999999999"]) == 3


def test_input_errors_from_python_are_package_errors(tmp_path):
    # the same checks the CLI maps to exit 3 must raise TauIdealError when
    # the loaders are called as library functions
    with pytest.raises(TauIdealError):
        exponent("x/y")
    with pytest.raises(TauIdealError):
        exponent("1/0")
    with pytest.raises(TauIdealError):
        load_ring(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(TauIdealError):
        load_ring(str(bad))
    bad.write_text(json.dumps({"d": 3, "cone_generators": [[1, 0], [0, 1]]}))
    with pytest.raises(TauIdealError):
        load_ring(str(bad))
    bad.write_text(json.dumps({"generators": [[1.5, 0]]}))
    with pytest.raises(TauIdealError):
        load_ideal(str(bad), orthant_ring(2))


@pytest.mark.parametrize("text", [
    b'{"cone_generators": [[1, 0], [0, 1]]}\xff',  # not UTF-8
    b'{"cone_generators": [[1' + b"0" * 5000 + b', 0], [0, 1]]}',  # over 4,300 digits
    b"[" * 100_000,  # nested deeper than the decoder recurses
], ids=["not-utf8", "long-int", "deep"])
def test_an_unreadable_ring_or_ideal_file_is_an_input_error(files, text):
    _, ring, ideal = files
    bad = files[0] / "bad.json"
    bad.write_bytes(text)
    assert main(["tau", "--ring", str(bad), "--ideal", ideal]) == EXIT_INPUT_ERROR
    assert main(["tau", "--ring", ring, "--ideal", str(bad)]) == EXIT_INPUT_ERROR


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["d", "cone_generators", "generators", "shape_hint"])
        | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_small_rows = st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3), max_size=4)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(
    st.binary(max_size=64),
    _json_values.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries({"cone_generators": _small_rows, "generators": _small_rows})
    .map(lambda v: json.dumps(v).encode()),
))
def test_any_file_gives_a_ring_an_ideal_or_a_package_error(tmp_path, text):
    path = tmp_path / "fuzz.json"
    path.write_bytes(text)
    for load, kind in ((load_ring, ToricRing),
                       (lambda p: load_ideal(p, orthant_ring(2)), MonomialIdeal)):
        try:
            assert isinstance(load(str(path)), kind)
        except TauIdealError:
            pass


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_rejects_an_empty_campaign(capsys, count):
    # a campaign of no instances would report "all pass" on nothing
    code, out = run(capsys, ["check", "briancon_skoda", "--count", count])
    assert code == 3
    assert out == ""


def test_check_refuses_a_count_for_a_fixed_campaign(capsys):
    # veronese has 15 fixed instances: --count 1 used to run them all, exit 0
    assert main(["check", "veronese", "--count", "1"]) == EXIT_INPUT_ERROR == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "takes no count" in captured.err


def test_two_main_calls_build_one_parser(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        code, out = run(capsys, ["veronese", "--d", "2", "--r", "2", "--l", "1"])
        assert code == 0 and "agreement: true" in out
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("bad", [["--qmax", "abc"], ["--method", "bogus"], ["--t"]])
def test_usage_errors_exit_as_input_errors(files, capsys, bad):
    # argparse's own usage exit is 2, which means "inconclusive" here
    _, ring, ideal = files
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--ring", ring, "--ideal", ideal, *bad])
    assert exc.value.code == EXIT_INPUT_ERROR == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["tau", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_a_crash_is_an_internal_error_not_a_counterexample(files, capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_tau", crash)
    _, ring, ideal = files
    code = main(["tau", "--ring", ring, "--ideal", ideal])
    assert code == EXIT_INTERNAL_ERROR == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
