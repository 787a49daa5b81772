"""End-to-end command-line behavior: exit codes, report determinism,
trace levels, and the model file round trip."""

import hashlib
import json
import random
import time
from fractions import Fraction as F

import pytest

from motivix import cli
from motivix.cli import CONV_TABLE_MAX_G, build_parser, main
from motivix.cmlat import AXIOMATIC, build_model, model_to_dict
from motivix.exact import ZLattice
from motivix.motcalc import MAX_HYPERSURFACE_DIM


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


def test_axiomatic_exit_codes_follow_the_exponent_check(capsys, tmp_path):
    # g = 1 is vacuous in both modes; at g >= 2 an AXIOMATIC model must
    # declare union exponents >= 4, else the gate refuses it as the
    # subsets lemma does
    cases = (
        (build_model(1, 1, mode=AXIOMATIC, exponents=(1,)), 0),
        (build_model(1, 3, mode=AXIOMATIC, exponents=(5, 5, 5), assume_proper_ge4=True), 0),
        (build_model(1, 3, mode=AXIOMATIC, exponents=(5, 5, 5)), 3),
    )
    for k, (m, want) in enumerate(cases):
        code, rep = run(capsys, "decide", write_model(tmp_path, "ax%d.json" % k, m))
        assert code == want, rep
        if want:
            assert rep["error"]["kind"] == "HypothesisError"
            assert "does not certify exponents >= 4 for unions" in rep["error"]["message"]
        else:
            assert rep["results"]["status"] == "INDECOMPOSABLE"


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

    monkeypatch.setattr(ZLattice, "from_rows", unreachable)
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


def test_exit_one_on_json_past_the_reader_limits(capsys, tmp_path, g3_model):
    # nesting past the recursion limit and an integer past the digit
    # limit are each one InvalidInput report naming the file, with exit 1
    # and nothing on stderr, for a model file and for an --endo file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000, encoding="utf-8")
    long_int = tmp_path / "long_int.json"
    long_int.write_text("1" * 5000, encoding="utf-8")
    for bad in (str(deep), str(long_int)):
        for argv in (["decide", bad], ["av", "integrality", g3_model, "--endo", bad]):
            code = main(argv)
            out, err = capsys.readouterr()
            rep = json.loads(out)
            assert (code, err) == (1, "")
            assert sorted(rep) == ["command", "error", "version"]
            assert rep["error"]["kind"] == "InvalidInput"
            assert bad in rep["error"]["message"]


def test_exit_one_on_a_glue_denominator_too_long_to_print(capsys, tmp_path):
    # two 3,001-digit denominators, each within the JSON reader's digit
    # limit, have an lcm of about 6,000 digits: the refusal quotes its
    # bit length, not its decimal digits
    path = tmp_path / "long_den.json"
    glue = [[[1, 10 ** 3000 + 1], [1, 10 ** 3000 + 3]]]
    path.write_text(json.dumps({"d": 1, "g": 2, "mode": "lattice", "glue": glue}),
                    encoding="utf-8")
    code = main(["decide", str(path)])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert (code, err) == (1, "")
    assert sorted(rep) == ["command", "error", "version"]
    assert rep["error"] == {
        "kind": "InvalidInput",
        "message": "glue coordinates have a common denominator of 19932 bits, "
                   "above 1000000",
    }


def test_exit_one_on_an_unknown_model_key(capsys, tmp_path):
    # a misspelt flag is refused by name, not read as absent: this g = 2
    # model decides with exit 2 without it
    g2 = model_to_dict(build_model(1, 2, glue=[(F(1, 5), F(1, 5))]))
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(dict(g2, maximal_ordr=True)), encoding="utf-8")
    code, rep = run(capsys, "decide", str(path))
    assert code == 1 and rep["error"]["kind"] == "InvalidInput"
    assert "'maximal_ordr'" in rep["error"]["message"]
    path.write_text(json.dumps(g2), encoding="utf-8")
    assert run(capsys, "decide", str(path))[0] == 2


def test_report_hashes_the_bytes_it_decided(capsys, g3_model, monkeypatch):
    # the model file is read once: rewritten during the decision, the
    # report still names the bytes that were parsed
    with open(g3_model, "rb") as fh:
        decided = hashlib.sha256(fh.read()).hexdigest()
    real = cli.decide

    def rewriting(model, mode):
        with open(g3_model, "w", encoding="utf-8") as fh:
            fh.write("{}")
        return real(model, mode)

    monkeypatch.setattr(cli, "decide", rewriting)
    code, rep = run(capsys, "decide", g3_model)
    assert code == 0
    assert rep["inputs"] == [{"file": g3_model, "sha256": decided}]


def test_json_errors_count_newlines_as_one_character(capsys, tmp_path, monkeypatch):
    # the text parsed is the universal-newlines reading of the bytes, so
    # a CRLF or a lone CR is one character in the error position
    monkeypatch.chdir(tmp_path)
    for name, data, where in (
        ("crlf.json", b'{"d": 1,\r\n "g": 2,\r "mode": }',
         "Expecting value: line 3 column 10 (char 27)"),
        ("cr.json", b'{"d": 1,\r\n "mode": "\r"}',
         "Invalid control character at: line 2 column 11 (char 19)"),
    ):
        (tmp_path / name).write_bytes(data)
        code, rep = run(capsys, "decide", name)
        assert code == 1
        assert rep["error"]["message"] == "%s is not valid JSON: %s" % (name, where)


CLASS_NUMBER_ONE = (1, 2, 3, 7, 11, 19, 43, 67, 163)


def seeded_decide_models(seed):
    """Lattice models for g = 2..8, four per g: one glue vector with equal
    coordinates, rational or in Q(sqrt(-d)), sometimes with a second
    one, and one with coordinates drawn apart."""
    rng = random.Random(seed)
    models = []
    for g in range(2, 9):
        for k in range(4):
            d = rng.choice(CLASS_NUMBER_ONE)
            n = rng.choice((5, 7, 11, 13))
            if k == 3:
                glue = [[[rng.randrange(n), n] for _ in range(g)]]
            else:
                coord = [rng.randrange(1, n), n]
                if k == 2:
                    coord = [coord, [rng.randrange(n), n]]
                glue = [[coord] * g]
                if rng.random() < 0.5:
                    glue.append([[1, rng.choice((5, 7, 11))]] * g)
            model = {"d": d, "g": g, "glue": glue, "mode": "lattice"}
            if d % 4 == 3 and rng.random() < 0.5:
                model["maximal_order"] = True
            models.append(model)
    return models


def test_decide_reports_pinned(capsys, tmp_path, monkeypatch):
    # the exit codes and full-trace reports of both modes on 28 seeded
    # models, survivors, witnesses and hypothesis failures included
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    codes = []
    for i, model in enumerate(seeded_decide_models(20261021)):
        path = "m%02d.json" % i
        with open(path, "w") as fh:
            json.dump(model, fh)
        for mode in ("exhaustive", "prooftrace"):
            code = main(["decide", path, "--mode", mode, "--trace", "full"])
            codes.append(code)
            h.update(b"%d\n" % code)
            h.update(capsys.readouterr().out.encode())
    assert [codes.count(c) for c in (0, 2, 3)] == [36, 8, 12]
    assert h.hexdigest() == (
        "8a4bb5d5b252b3b09c68edd75fd2f385448ef0d06104d69238fea1d6c64f5f61"
    )


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
    code, refused = run(capsys, "decide", g3_model, "--mode", "guess")
    assert code == 1 and refused["error"]["kind"] == "InvalidInput"
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


def test_large_d_commands_are_fast(capsys, tmp_path):
    """d = 999,999,937 (prime, below MAX_D) costs one trial division to
    sqrt(d) per model, not one per value built from it."""
    d = 999999937

    def model(g):
        return write_model(tmp_path, "g%d.json" % g, build_model(d, g, glue=[(F(1, 5),) * g]))

    t0 = time.perf_counter()
    code, rep = run(capsys, "conv-table", model(4))
    assert time.perf_counter() - t0 < 5
    assert code == 0 and rep["results"]["probe_count"] == 7

    g = 64
    ident = [[[[int(i == j), 1], [0, 1]] for j in range(g)] for i in range(g)]
    endo_path = tmp_path / "ident64.json"
    endo_path.write_text(json.dumps(ident), encoding="utf-8")
    t0 = time.perf_counter()
    code, rep = run(capsys, "av", "integrality", model(g), "--endo", str(endo_path))
    assert time.perf_counter() - t0 < 5
    assert code == 0 and rep["results"]["integral"] is True


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
    # a negative point count is refused with or without the ledger
    for extra in ((), ("--ledger",)):
        code, rep = run(capsys, "motive", "blowup", "--points", "-2", *extra)
        assert code == 1 and rep["error"]["kind"] == "InvalidInput"
        assert "point count" in rep["error"]["message"]


def test_bounded_commands_answer_fast(capsys, tmp_path):
    # for each bounded subcommand, the largest accepted value is served and
    # the first value above it is refused, both within the budget
    def conv_table(g):
        m = build_model(1, g, glue=[(F(1, 5),) * g])
        return "conv-table", write_model(tmp_path, "g%d.json" % g, m)

    def hypersurface(n):
        return "motive", "hypersurface", "--n", str(n), "--d", "3"

    for argv_of, bound in ((conv_table, CONV_TABLE_MAX_G),
                           (hypersurface, MAX_HYPERSURFACE_DIM)):
        for value, want in ((bound, 0), (bound + 1, 1)):
            argv = argv_of(value)
            t0 = time.perf_counter()
            code, rep = run(capsys, *argv)
            assert time.perf_counter() - t0 < 5, argv
            assert code == want, argv
            if want:
                assert rep["error"]["kind"] == "InvalidInput"
    # a blow-up takes its points as a count, so any count is cheap
    t0 = time.perf_counter()
    code, rep = run(capsys, "motive", "blowup", "--points", "1000000000")
    assert time.perf_counter() - t0 < 1
    assert code == 0 and rep["results"]["rows"]["m0"] == [0, 0, 10 ** 9, 0, 10 ** 9, 0, 10 ** 9]


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


def test_fermat_degrees_draw_no_prime(capsys):
    """Every degree is exact and fermat keeps no prime stream, so `fermat
    degrees` and `fermat instance` draw no prime, and print the reports
    pinned here by their SHA-256 (the same bytes as when phi2's u was
    counted mod p)."""
    from motivix import fermat

    assert not any(hasattr(fermat, name) for name in ("_oracle_primes", "random"))
    pinned = {
        "degrees": "81f417a6563e96a938a2da0447fffcf73e27dddc2b1dcb3aeaa755b60571d17c",
        "instance": "4950f8d775f0a4865ce24a0efc72f20846e608341450b8c8680c7c07015d77b8",
    }
    for what, digest in pinned.items():
        assert main(["fermat", what]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out
    assert json.loads(out)["results"]["computed_degrees"] == [6] * 6 + [12] * 3 + [4]


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
    # a command line the parser refuses is bad input: exit 1 and an
    # error report on stdout, nothing on stderr; --help still exits 0
    for argv in ([], ["no-such-command"], ["decide"], ["motive", "curve", "--g", "abc"]):
        code = main(argv)
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert code == 1 and err == "", argv
        assert report["command"] == argv and report["error"]["kind"] == "InvalidInput"
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
