"""A seeded corpus of hostile input files, run through the command line.

Every model file goes through `decide` in both modes and `av exponents`,
and every endomorphism file through `av integrality` on a valid model;
a few command lines the parser refuses go through `main` as they are.
Each run must exit 0, 1, 2 or 3, print exactly one JSON report (an error
report on exit 1 or 3), write nothing to stderr and answer within
BUDGET_S.

The model files are three small valid models with one slot replaced by a
hostile value (huge integers, floats, booleans, strings, null, wrong
shapes, deep nesting), with keys added, misspelled, dropped or
duplicated, plus text that is no JSON at all, two files of several MB (a
long glue list, a long glue vector) and dense glue at g = 20, whose
lattice basis grew past the budget under column-by-column elimination.
The endomorphism files are a valid matrix for each of those models with
one slot replaced the same way, plus null, ragged and wrong-size
matrices, zero and negative denominators, entries of 4,000 digits
everywhere and a 64 x 64 matrix for a g = 3 model. A valid g = 64 model
goes through exhaustive search, which serves every g a model may have.
"""

import contextlib
import io
import json
import random
import time

from motivix.cli import main

# one command may take this long, on any input of the corpus
BUDGET_S = 1.0

MODEL = object()  # where the model file goes in a command
COMMANDS = (
    ("decide", MODEL, "--mode", "exhaustive"),
    ("decide", MODEL, "--mode", "prooftrace"),
    ("av", "exponents", MODEL),
)

# JSON texts that stand in for one value; NaN and Infinity are the
# extensions Python's reader accepts
HUGE_INTS = ("9223372036854775808", "-" + "9" * 40, "1" + "0" * 4000,
             "-" + "7" * 4299, "1" + "0" * 5000)
FLOATS = ("0.5", "2.0", "-0.0", "1e308", "1e999", "NaN", "Infinity", "-Infinity")
BOOLS = ("true", "false")
STRINGS = ('"2"', '""', '"lattice"', '"\\u0000"', '"' + "x" * 5000 + '"')
SMALL_INTS = ("0", "-1", "1", "3", "64", "65")
SHAPES = ("null", "[]", "{}", "[2]", "[[1, 5]]", '{"d": 1}', "[[[[]]]]")
NESTINGS = (200, 990, 5000)
KINDS = (HUGE_INTS, FLOATS, BOOLS, STRINGS)


class Raw:
    """A JSON text to be written as it stands."""

    def __init__(self, text):
        self.text = text


def dump(value):
    """JSON text of value. A dict is a list of (key, value) pairs, so it
    may repeat a key; Raw values are written as they stand."""
    if isinstance(value, Raw):
        return value.text
    if isinstance(value, Pairs):
        return "{" + ", ".join(json.dumps(k) + ": " + dump(v) for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


class Pairs(list):
    """A JSON object as its (key, value) pairs, in order."""


def bases():
    """Three valid models: a g = 2 lattice model with a surviving
    candidate, a g = 3 lattice model over the maximal order with
    sqrt(-7) glue, and a g = 3 axiomatic model."""
    return [
        Pairs([("d", 1), ("g", 2), ("glue", [[[1, 5], [1, 5]]]), ("mode", "lattice")]),
        Pairs([("d", 7), ("g", 3),
               ("glue", [[[[1, 5], [2, 5]]] * 3, [[1, 7]] * 3]),
               ("mode", "lattice"), ("maximal_order", True)]),
        Pairs([("d", 1), ("g", 3), ("mode", "axiomatic"), ("exponents", [5, 5, 5]),
               ("assume_proper_exponents_ge4", True)]),
    ]


def slots(value, path=()):
    """(path, leaf) for every value below the top, depth first."""
    items = value if isinstance(value, Pairs) else enumerate(value)
    for key, child in items:
        yield path + (key,), child
        if isinstance(child, list):
            yield from slots(child, path + (key,))


def replace(value, path, new):
    """A copy of value with the slot at path replaced by new."""
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(value, Pairs):
        return Pairs((k, replace(v, rest, new) if k == key else v) for k, v in value)
    return [replace(v, rest, new) if i == key else v for i, v in enumerate(value)]


def hostile_files(seed):
    """(name, text) of each file of the corpus."""
    rng = random.Random(seed)
    out = []
    for b, base in enumerate(bases()):
        for path, leaf in slots(base):
            name = "b%d-%s" % (b, "-".join(map(str, path)))
            if isinstance(leaf, int) and not isinstance(leaf, bool):
                # every numeric slot gets one value of each kind
                picks = [rng.choice(kind) for kind in KINDS]
                picks.append(rng.choice(SMALL_INTS))
            else:
                picks = rng.sample(SHAPES + SMALL_INTS + STRINGS + BOOLS, 3)
            picks.append(rng.choice(SHAPES))
            for i, text in enumerate(picks):
                out.append(("%s-%d" % (name, i), dump(replace(base, path, Raw(text)))))
        path = rng.choice([p for p, _ in slots(base)])
        for depth in NESTINGS:
            nest = Raw("[" * depth + "]" * depth)
            out.append(("b%d-nest%d" % (b, depth), dump(replace(base, path, nest))))
        keys = [k for k, _ in base]
        for key in keys:
            out.append(("b%d-drop-%s" % (b, key), dump(Pairs(p for p in base if p[0] != key))))
            # the last of two values wins, as in Python's reader
            dup = Pairs(list(base) + [(key, base[keys.index(key)][1])])
            out.append(("b%d-dup-%s" % (b, key), dump(dup)))
            dup = Pairs(list(base) + [(key, Raw(rng.choice(SHAPES)))])
            out.append(("b%d-dup-bad-%s" % (b, key), dump(dup)))
            typo = key[:-1] + chr(ord(key[-1]) ^ 1)
            out.append(("b%d-typo-%s" % (b, key), dump(Pairs(
                (typo if k == key else k, v) for k, v in base))))
        for extra in ("extra", "G", "Mode", "", "é"):
            out.append(("b%d-extra-%d" % (b, len(out)),
                        dump(Pairs(list(base) + [(extra, 1)]))))
    for i, text in enumerate(SHAPES + HUGE_INTS + FLOATS + STRINGS + BOOLS + (
            "", "   ", "{", '{"d": 1,}', "[1, 2", '{"d": 1} {"d": 1}', "﻿{}",
            "\x00", "{'d': 1}")):
        out.append(("top-%d" % i, text))
    # several MB: a glue list of 200,000 vectors, and one vector as long
    vec = dump([[1, 5], [1, 5]])
    out.append(("big-glue", '{"d": 1, "g": 2, "mode": "lattice", "glue": [%s]}'
                % ", ".join([vec] * 200000)))
    out.append(("long-vector", '{"d": 1, "g": 2, "mode": "lattice", "glue": [[%s]]}'
                % ", ".join(["[1, 5]"] * 400000)))
    # dense glue at g = 20 over a denominator near the bound; its lattice
    # basis has 40 columns and 56 generators
    p = 999983
    glue = [[[rng.randrange(p), p] for _ in range(20)] for _ in range(16)]
    out.append(("dense-glue", dump(Pairs([("d", 1), ("g", 20), ("mode", "lattice"),
                                          ("glue", glue)]))))
    return out


def run(command, path):
    """(exit code, stdout, stderr, seconds) of one command on path."""
    argv = [path if arg is MODEL else arg for arg in command]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def check_run(what, command, path=None):
    """The escapes of one run: what is wrong with its exit code, report,
    stderr or time, each prefixed by what."""
    code, out, err, seconds = run(command, path)
    try:
        report = json.loads(out)
    except ValueError:
        return [what + "stdout is not one JSON report: %r" % out[:200]]
    escapes = []
    if code not in (0, 1, 2, 3):
        escapes.append(what + "exit %r" % (code,))
    if (code in (1, 3)) != ("error" in report):
        escapes.append(what + "exit %d with report keys %s" % (code, sorted(report)))
    if err:
        escapes.append(what + "stderr %r" % err[:200])
    if seconds > BUDGET_S:
        escapes.append(what + "%.2f s" % seconds)
    return escapes


def test_hostile_model_files(tmp_path):
    files = hostile_files(20261021)
    assert 300 <= len(files) <= 500
    escapes = []
    for name, text in files:
        path = tmp_path / (name + ".json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for command in COMMANDS:
            what = "%s %s: " % (name, " ".join(a for a in command if a is not MODEL))
            escapes += check_run(what, command, str(path))
    assert not escapes, "\n".join(escapes)


def test_corpus_is_seeded():
    assert hostile_files(1) == hostile_files(1)
    assert hostile_files(1) != hostile_files(2)
    assert endo_files(1) == endo_files(1)
    assert endo_files(1) != endo_files(2)


def endo_bases():
    """(model, endomorphism) pairs: each base model with a matrix it
    takes, in the [num, den] shorthand and in the full
    [[an, ad], [bn, bd]] form."""
    g2, g3, ax = bases()
    return [
        (g2, [[[1, 1], [0, 1]], [[0, 1], [3, 2]]]),
        (g3, [[[[1, 2], [1, 2]], [[0, 1], [0, 1]], [[0, 1], [0, 1]]],
              [[[0, 1], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [0, 1]]],
              [[[0, 1], [0, 1]], [[0, 1], [0, 1]], [[2, 1], [-1, 3]]]]),
        (ax, [[[5, 1], [0, 1], [0, 1]], [[0, 1], [5, 1], [0, 1]],
              [[0, 1], [0, 1], [10, 1]]]),
    ]


# integers every numeric slot of a matrix gets: zero and negative, as
# denominators too, and 4,000 digits
ENDO_INTS = ("0", "-1", "-5", "1" + "0" * 3999, "-" + "7" * 4000)


def endo_files(seed):
    """(name, model text, endomorphism text) of each case of the corpus."""
    rng = random.Random(seed)
    out = []
    for b, (model, endo) in enumerate(endo_bases()):
        model_text = dump(model)
        g = len(endo)

        def case(name, value):
            out.append(("e%d-%s" % (b, name), model_text, dump(value)))

        for path, leaf in slots(endo):
            name = "-".join(map(str, path))
            if isinstance(leaf, int):
                picks = [rng.choice(ENDO_INTS), rng.choice(FLOATS + BOOLS + STRINGS)]
            else:
                picks = rng.sample(SHAPES + SMALL_INTS + STRINGS + BOOLS, 2)
            for i, text in enumerate(picks):
                case("%s-%d" % (name, i), replace(endo, path, Raw(text)))
        for i, text in enumerate(SHAPES + FLOATS[:2] + BOOLS + STRINGS[:2]):
            case("top-%d" % i, Raw(text))
        for depth in NESTINGS:
            path = rng.choice([p for p, _ in slots(endo)])
            case("nest%d" % depth, replace(endo, path, Raw("[" * depth + "]" * depth)))
        case("ragged", [row[:i + 1] for i, row in enumerate(endo)])
        case("short-row", endo[:-1] + [endo[-1][:-1]])
        case("extra-row", endo + [endo[0]])
        case("too-small", [row[:-1] for row in endo[:-1]])
        case("64x64", [[[int(i == j), 1] for j in range(64)] for i in range(64)])
        # every entry a full coordinate of four distinct 4,000-digit parts
        case("digits", [[[[rng.randrange(10 ** 3999, 10 ** 4000) for _ in range(2)]
                          for _ in range(2)] for _ in range(g)] for _ in range(g)])
        for den in ("0", "-3"):
            case("den%s" % den, [[Raw("[1, %s]" % den)] * g] * g)
    return out


def test_hostile_endomorphism_files(tmp_path):
    files = endo_files(20261022)
    assert 150 <= len(files) <= 400
    escapes = []
    for name, model_text, endo_text in files:
        model_path, endo_path = tmp_path / (name + "-model.json"), tmp_path / (name + ".json")
        model_path.write_text(model_text, encoding="utf-8")
        endo_path.write_text(endo_text, encoding="utf-8")
        command = ("av", "integrality", str(model_path), "--endo", str(endo_path))
        escapes += check_run(name + " av integrality: ", command)
    assert not escapes, "\n".join(escapes)


def test_exhaustive_serves_g64(tmp_path):
    path = tmp_path / "g64.json"
    path.write_text(dump(Pairs([("d", 1), ("g", 64), ("mode", "lattice"),
                                ("glue", [[[1, 5]] * 64])])), encoding="utf-8")
    command = ("decide", str(path), "--mode", "exhaustive")
    assert not check_run("g64 decide exhaustive: ", command)
    code, out, _, _ = run(command, None)
    assert code == 0 and json.loads(out)["results"]["status"] == "INDECOMPOSABLE"


def test_hostile_argv():
    # usage errors are bad input, exit 1, like a bad file
    for argv in (("motive", "curve", "--g", "abc"), ("decide",),
                 ("motive", "curve", "--g", "9" * 5000)):
        assert not check_run(" ".join(argv)[:40] + ": ", argv)
        assert run(argv, None)[0] == 1
