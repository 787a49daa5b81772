"""End-to-end command-line behavior: exit codes, report determinism,
trace levels, and the model file round trip."""

import json
from fractions import Fraction as F

import pytest

from motivix import cmlat
from motivix.cli import build_parser, main
from motivix.cmlat import build_model, model_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_model(tmp_path, name, model):
    path = tmp_path / name
    path.write_text(json.dumps(model_to_dict(model)), encoding="utf-8")
    return str(path)


@pytest.fixture
def g3_model(tmp_path):
    m = build_model(1, 3, glue=[(F(1, 5), F(1, 5), F(1, 5))])
    return write_model(tmp_path, "g3.json", m)


def test_decide_exit_zero_and_modes(capsys, g3_model):
    code, rep = run(capsys, "decide", g3_model, "--mode", "exhaustive")
    assert code == 0
    assert rep["results"]["status"] == "INDECOMPOSABLE"
    assert rep["version"]
    assert rep["inputs"][0]["sha256"]
    code2, rep2 = run(capsys, "decide", g3_model, "--mode", "prooftrace")
    assert code2 == 0
    assert rep2["results"]["status"] == "INDECOMPOSABLE"


def test_decide_trace_levels(capsys, g3_model, tmp_path):
    code, rep = run(capsys, "decide", g3_model, "--trace", "none")
    assert code == 0 and "steps" not in rep["results"]
    code, rep = run(capsys, "decide", g3_model, "--mode", "exhaustive",
                    "--trace", "steps")
    assert all("query" not in s for s in rep["results"]["steps"])
    # witness refutation checks embed their queried endomorphisms
    g2 = write_model(tmp_path, "g2.json",
                     build_model(1, 2, glue=[(F(1, 5), F(1, 5))]))
    code, rep = run(capsys, "decide", g2, "--mode", "exhaustive",
                    "--trace", "full")
    assert code == 2
    assert any("query" in s for s in rep["results"]["steps"])
    code, rep = run(capsys, "decide", g2, "--mode", "exhaustive",
                    "--trace", "steps")
    assert all("query" not in s for s in rep["results"]["steps"])


def test_decide_exit_two_on_survivor(capsys, tmp_path):
    m = build_model(1, 2, glue=[(F(1, 5), F(1, 5))])
    path = write_model(tmp_path, "g2.json", m)
    code, rep = run(capsys, "decide", path, "--mode", "exhaustive")
    assert code == 2
    assert rep["results"]["status"] == "SURVIVING_CANDIDATE"
    assert rep["results"]["witness"]["w_lambda"] == [[1, 1], [2, 2]]
    code, rep = run(capsys, "decide", path, "--mode", "prooftrace")
    assert code == 2
    assert rep["results"]["status"] == "UNDECIDED"


def test_decide_exit_three_on_hypothesis_failure(capsys, tmp_path):
    m = build_model(1, 2, glue=[(F(1, 3), F(1, 3))])  # exponent 3 < 4
    path = write_model(tmp_path, "bad.json", m)
    code, rep = run(capsys, "decide", path)
    assert code == 3
    assert rep["error"]["kind"] == "HypothesisError"
    assert rep["error"]["message"]


def test_exit_one_on_bad_inputs(capsys, tmp_path, monkeypatch):
    code, rep = run(capsys, "decide", str(tmp_path / "missing.json"))
    assert code == 1 and rep["error"]["kind"] == "FileNotFoundError"
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    code, rep = run(capsys, "decide", str(broken))
    assert code == 1 and rep["error"]["kind"] == "InvalidInput"
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"d": 1}), encoding="utf-8")
    code, rep = run(capsys, "decide", str(junk))
    assert code == 1 and rep["error"]["kind"] == "InvalidInput"
    # a d above exact.MAX_D is refused before any squarefree check
    huge = tmp_path / "huge_d.json"
    huge.write_text(json.dumps({"d": 10**18 + 9, "g": 1, "mode": "lattice"}),
                    encoding="utf-8")
    code, rep = run(capsys, "decide", str(huge))
    assert code == 1 and rep["error"]["kind"] == "InvalidInput"
    assert "MAX_D" in rep["error"]["message"]
    # so is a g above cmlat.MAX_G, before any lattice is built
    def unreachable(*args):
        raise AssertionError("a model above MAX_G was built")

    monkeypatch.setattr(cmlat, "_order_rows", unreachable)
    huge_g = tmp_path / "huge_g.json"
    huge_g.write_text(json.dumps({"d": 1, "g": 1000000, "mode": "lattice"}),
                      encoding="utf-8")
    code, rep = run(capsys, "decide", str(huge_g), "--mode", "prooftrace")
    assert code == 1 and rep["error"]["kind"] == "InvalidInput"
    assert "MAX_G" in rep["error"]["message"]


def test_exit_one_on_bad_json_numbers(capsys, tmp_path, g3_model):
    # a zero denominator or a bool where an integer belongs is an
    # InvalidInput report with exit 1, not a traceback
    zero = [[0, 1], [0, 1]]
    endo_path = tmp_path / "endo.json"
    for bad in ([1, 0], [[1, 1], [1, 0]], [True, 1]):
        rows = [[bad if i == j == 0 else zero for j in range(3)] for i in range(3)]
        endo_path.write_text(json.dumps(rows), encoding="utf-8")
        code, rep = run(capsys, "av", "integrality", g3_model, "--endo", str(endo_path))
        assert code == 1 and rep["error"]["kind"] == "InvalidInput"
    model_path = tmp_path / "bool_d.json"
    model_path.write_text(json.dumps({"d": True, "g": 1, "mode": "lattice"}),
                          encoding="utf-8")
    code, rep = run(capsys, "decide", str(model_path))
    assert code == 1 and rep["error"]["kind"] == "InvalidInput"


def test_report_determinism(capsys, g3_model, tmp_path):
    code1 = main(["decide", g3_model, "--mode", "exhaustive"])
    out1 = capsys.readouterr().out
    code2 = main(["decide", g3_model, "--mode", "exhaustive"])
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)
    target = tmp_path / "report.json"
    main(["--json", str(target), "decide", g3_model, "--mode", "exhaustive"])
    out3 = capsys.readouterr().out
    assert target.read_text(encoding="utf-8") == out3 + "\n" or \
        target.read_text(encoding="utf-8").rstrip("\n") == out3.rstrip("\n")


def test_decide_timing(capsys, g3_model):
    main(["decide", g3_model])
    plain = capsys.readouterr().out
    main(["decide", g3_model])
    assert capsys.readouterr().out == plain
    code, timed = run(capsys, "--timing", "decide", g3_model)
    assert code == 0
    seconds = timed["results"].pop("timing_seconds")
    assert isinstance(seconds, float) and seconds >= 0
    # apart from the echoed flag, timing adds nothing else to the report
    untimed = json.loads(plain)
    assert "timing_seconds" not in untimed["results"]
    assert timed["command"] == ["--timing"] + untimed["command"]
    timed["command"] = untimed["command"]
    assert timed == untimed


def test_parser_is_built_once(capsys, g3_model, tmp_path):
    assert build_parser() is build_parser()
    argv = ["decide", g3_model, "--mode", "exhaustive"]
    first = (main(argv), capsys.readouterr().out)
    assert (main(argv), capsys.readouterr().out) == first
    # a usage error and a timed call that writes a file leave the shared
    # parser as it was
    plain = (main(["decide", g3_model]), capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        main(["decide", g3_model, "--mode", "guess"])
    assert exc.value.code == 2
    capsys.readouterr()
    target = tmp_path / "timed.json"
    code, timed = run(capsys, "--timing", "--json", str(target), "decide", g3_model)
    assert code == 0 and "timing_seconds" in timed["results"]
    target.unlink()
    files = sorted(tmp_path.iterdir())
    code, again = run(capsys, "decide", g3_model)
    assert "timing_seconds" not in again["results"]
    assert sorted(tmp_path.iterdir()) == files
    assert (code, json.dumps(again, indent=1, sort_keys=True) + "\n") == plain


def test_conv_table(capsys, tmp_path):
    m = build_model(1, 2, glue=[(F(1, 5), F(1, 5))])
    path = write_model(tmp_path, "g2.json", m)
    code, rep = run(capsys, "conv-table", path)
    assert code == 0
    res = rep["results"]
    assert res["probe_count"] == 2
    ident = res["table"][0]
    assert ident["probe"] == "identity"
    # the identity probe meets exactly the diagonal cells of each grid
    for kind in ("theta", "a1", "a2"):
        cells = [(i, j) for i, j, _ in ident["nonzero"][kind]]
        assert cells == [(1, 1), (2, 2)]


def test_motive_commands(capsys):
    code, rep = run(capsys, "motive", "product", "--g", "10")
    assert code == 0 and rep["results"]["m2_tr"] == 200
    code, rep = run(capsys, "motive", "curve", "--g", "3")
    assert rep["results"]["dims"] == [1, 6, 1]
    code, rep = run(capsys, "motive", "surface", "--b2", "6", "--rho", "4")
    assert rep["results"]["dim_m2_tr"] == 2
    code, rep = run(capsys, "motive", "hypersurface", "--n", "4", "--d", "3")
    assert rep["results"]["middle_dim"] == 23
    assert rep["results"]["prim_middle_dim"] == 22
    assert rep["results"]["off_middle_weights"] == [0, 2, 6, 8]
    code, rep = run(capsys, "motive", "blowup", "--points", "1")
    assert rep["results"]["rows"]["m0"] == [0, 0, 1, 0, 1, 0, 1]
    code, rep = run(capsys, "motive", "blowup", "--points", "2",
                    "--curves", "1", "--surfaces", "6,4,0", "--ledger")
    assert code == 0
    assert rep["results"]["ledger"]["dim_m4_tr"] == 22


def test_fermat_commands(capsys, tmp_path):
    code, rep = run(capsys, "fermat", "pullback", "--phi", "2")
    assert code == 0
    assert rep["results"]["class"] == "V300"
    assert "cbrt4" in rep["results"]["coefficient"]
    out_model = tmp_path / "c6.json"
    code, rep = run(capsys, "fermat", "instance", "--skip-degrees",
                    "--decide", "--emit-model", str(out_model))
    assert code == 0
    assert rep["results"]["verdict"]["status"] == "INDECOMPOSABLE"
    assert rep["results"]["form_ranks"] == {"g1": 6, "g2": 3, "total": 10}
    # the emitted model round-trips through the decide command
    code, rep = run(capsys, "decide", str(out_model), "--mode", "prooftrace")
    assert code == 0
    assert rep["results"]["status"] == "INDECOMPOSABLE"
    assert rep["results"]["g"] == 10


def test_av_commands(capsys, tmp_path, g3_model):
    code, rep = run(capsys, "av", "exponents", g3_model)
    assert code == 0
    entries = {tuple(e["subset"]): e["exponent"] for e in rep["results"]["exponents"]}
    assert entries[(1,)] == 5 and entries[(1, 2)] == 5
    code, rep = run(capsys, "av", "exponents", g3_model, "--subset", "1,3")
    assert rep["results"]["exponents"] == [{"subset": [1, 3], "exponent": 5}]

    ident = [[[[1, 1], [0, 1]] if i == j else [[0, 1], [0, 1]] for j in range(3)]
             for i in range(3)]
    endo_path = tmp_path / "ident.json"
    endo_path.write_text(json.dumps(ident), encoding="utf-8")
    code, rep = run(capsys, "av", "integrality", g3_model, "--endo", str(endo_path))
    assert code == 0 and rep["results"]["integral"] is True

    fifth = [[[[1, 5], [0, 1]] if i == j == 0 else [[0, 1], [0, 1]] for j in range(3)]
             for i in range(3)]
    endo_path.write_text(json.dumps(fifth), encoding="utf-8")
    code, rep = run(capsys, "av", "integrality", g3_model, "--endo", str(endo_path))
    assert code == 0 and rep["results"]["integral"] is False


def test_usage_errors(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()
