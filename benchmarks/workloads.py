"""The two benchmark workloads: seeded inputs, ops and output checks.

Every workload is a closed loop with one caller: an op runs to the end
before the next one starts. A pass is the workload's fixed list of ops
for one seed; the harness in run.py repeats passes for the run time and
compares the outputs of every pass with the first.

Inputs come from the seed only. The program sees them as model JSON
files, read through the same entry points a user calls:
`motivix.cli.main` where a CLI command exists, the library function
otherwise. Functions are looked up on their module at call time, so the
wrappers that tracing.py installs see every call.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re

# Lattice models come from the family the acceptance tests use.
CLASS_NUMBER_ONE = (1, 2, 3, 7, 11, 19, 43, 67, 163)
GLUE_PRIMES = (5, 7, 11, 13)
# The class-number-one d in four size tiers. Every QuadInt re-validates
# d by trial division, so a larger d makes an op slower (d = 163 about 25%
# over d = 1). decide_small_g draws each g-cluster's d evenly from the
# tiers, so the work of a pass hardly moves with the seed.
D_TIERS = ((1, 2), (3, 7), (11, 19), (43, 67, 163))

# decide_small_g: the g mix is fixed and independent of the seed: one
# g = 2 op (about 0.03 s), eight g = 3 ops (about 0.3 s) and four g = 4
# ops (about 1.3 s). With at least three passes the median op is a g = 3
# op and the tail op, about the 11th slowest, a g = 4 op, whatever the
# seed. A pass takes 8 to 12 s, so a 60 s run holds four to six.
DECIDE_MIX = (2,) + (3,) * 8 + (4,) * 4
DECIDE_MIX_SMALL = (2, 3)

FERMAT_FORM_CLASSES = ["V210"] * 6 + ["V300"] * 3 + ["V111"]
FERMAT_FORM_RANKS = {"g1": 6, "g2": 3, "total": 10}
# Criterion 5 demands (6, 24, 4); the README derives 12 for phi2 by hand
# and the benchmark pins the derived value.
FERMAT_DEGREES = (6, 12, 4)

_IDENTITY_KILLS = re.compile(
    r"identity probe refuted (\d+) of (\d+) diagonal assignments"
)
_PAIR_KILLS = re.compile(r"transposition probes refuted (\d+) further")


class WrongOutput(Exception):
    """An op returned an answer that fails its check."""


def lattice_model(rng, g, d, second):
    """One model of the acceptance family: glue (k/n, ..., k/n) with n
    prime, a second generator (1/n', ..., 1/n') if `second`, and the
    maximal order sometimes when d = 3 mod 4."""
    n = rng.choice(GLUE_PRIMES)
    k = rng.randrange(1, n)
    glue = [[[k, n]] * g]
    if second:
        glue.append([[1, rng.choice(GLUE_PRIMES)]] * g)
    model = {"d": d, "g": g, "glue": glue, "mode": "lattice"}
    if d % 4 == 3 and rng.random() < 0.5:
        model["maximal_order"] = True
    return model


def balanced_models(rng, mix):
    """Models for the g values of `mix`. Within each g, the d tiers and the
    presence of a second generator are spread evenly over the models, and
    the seed picks the rest."""
    slots = {}
    for g in sorted(set(mix)):
        count = mix.count(g)
        tiers = [D_TIERS[i % len(D_TIERS)] for i in range(count)]
        seconds = [i % 2 == 0 for i in range(count)]
        rng.shuffle(seconds)
        slots[g] = iter([(rng.choice(t), s) for t, s in zip(tiers, seconds)])
    return [lattice_model(rng, g, *next(slots[g])) for g in mix]


def write_models(models, directory):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, model in enumerate(models):
        path = os.path.join(directory, "model%02d.json" % i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(model, sort_keys=True) + "\n")
        paths.append(path)
    return paths


class Package:
    """The imported motivix modules the ops call into."""

    def __init__(self, modules):
        self.decomp = modules["motivix.decomp"]
        self.fermat = modules["motivix.fermat"]
        self.cli = modules["motivix.cli"]

    def run_cli(self, argv):
        """Run one CLI command in-process; returns (exit code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()


class Op:
    """One timed call. run() makes the call; check(output) raises
    WrongOutput on a wrong answer and returns (digest, counters): the
    digest is compared across passes, the counters feed the per-layer
    metrics."""

    kind = "op"

    def run(self):
        raise NotImplementedError

    def check(self, output):
        raise NotImplementedError


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect(cond, what):
    if not cond:
        raise WrongOutput(what)


def _cli_result(code, text, want_code, what):
    _expect(code == want_code, "%s: exit %d, want %d" % (what, code, want_code))
    report = json.loads(text)
    _expect("results" in report, "%s: no results: %s" % (what, text[:200]))
    return report["results"]


# ---------------------------------------------------------------------------
# decide_small_g


class DecideOp(Op):
    """decide --mode exhaustive --trace full, then --mode prooftrace."""

    kind = "decide"

    def __init__(self, pkg, path, g):
        self.pkg, self.path, self.g = pkg, path, g

    def run(self):
        ex = self.pkg.run_cli(
            ["decide", self.path, "--mode", "exhaustive", "--trace", "full"]
        )
        pt = self.pkg.run_cli(["decide", self.path, "--mode", "prooftrace"])
        return ex, pt

    def check(self, output):
        (ex_code, ex_text), (pt_code, pt_text) = output
        counters = {"cli.report_bytes": len(ex_text) + len(pt_text)}
        if self.g == 2:
            ex = _cli_result(ex_code, ex_text, 2, "g=2 exhaustive")
            pt = _cli_result(pt_code, pt_text, 2, "g=2 prooftrace")
            _expect(ex["status"] == "SURVIVING_CANDIDATE", "g=2 exhaustive status")
            _expect(ex["witness"] is not None, "g=2 survivor has no witness")
            _expect(pt["status"] == "UNDECIDED", "g=2 prooftrace status")
        else:
            ex = _cli_result(ex_code, ex_text, 0, "exhaustive")
            pt = _cli_result(pt_code, pt_text, 0, "prooftrace")
            _expect(ex["status"] == "INDECOMPOSABLE", "exhaustive status")
            _expect(pt["status"] == "INDECOMPOSABLE", "prooftrace status")
            notes = " ".join(s.get("note", "") for s in ex["steps"])
            ident = _IDENTITY_KILLS.search(notes)
            pairs = _PAIR_KILLS.search(notes)
            _expect(ident and pairs, "exhaustive trace lacks the kill counts")
            counters["decomp.killed_identity"] = int(ident.group(1))
            counters["decomp.diag_assignments"] = int(ident.group(2))
            counters["decomp.killed_transpositions"] = int(pairs.group(1))
        _expect(ex["g"] == self.g and pt["g"] == self.g, "verdict g")
        return _digest(ex_text + pt_text), counters


def decide_small_g(pkg, seed, inputs_dir, small=False):
    rng = random.Random(seed)
    mix = DECIDE_MIX_SMALL if small else DECIDE_MIX
    models = balanced_models(rng, mix)
    paths = write_models(models, inputs_dir)
    return models, [DecideOp(pkg, p, m["g"]) for p, m in zip(paths, models)]


# ---------------------------------------------------------------------------
# fermat_c6


def oracle_primes():
    """The degree oracle's default prime stream: primes p > 300 with
    p = 1 mod 6, ascending."""
    p = 301
    while True:
        if p % 6 == 1 and all(p % q for q in range(2, int(p ** 0.5) + 1)):
            yield p
        p += 2


class CountingPrimes:
    """The default prime stream of one degree call, counting the primes
    the oracle draws from it."""

    def __init__(self):
        self.drawn = 0
        self._it = oracle_primes()

    def __iter__(self):
        return self

    def __next__(self):
        self.drawn += 1
        return next(self._it)


class FermatOp(Op):
    """build_c6_instance(check_degrees=False), the three generator
    degrees, then decide(PROOFTRACE): the work of `fermat instance
    --decide` plus the degree table."""

    kind = "fermat_c6"

    def __init__(self, pkg, seed):
        self.pkg, self.seed = pkg, seed

    def run(self):
        fermat = self.pkg.fermat
        inst = fermat.build_c6_instance(check_degrees=False)
        streams = [CountingPrimes() for _ in range(3)]
        degrees = tuple(
            fermat.degree(phi, primes=primes, seed=self.seed)
            for phi, primes in zip(fermat.c6_generator_morphisms(), streams)
        )
        verdict = self.pkg.decomp.decide(inst.model, self.pkg.decomp.PROOFTRACE)
        return inst.report, degrees, verdict, sum(p.drawn for p in streams)

    def check(self, output):
        report, degrees, verdict, drawn = output
        _expect(report["form_classes"] == FERMAT_FORM_CLASSES, "form classes")
        _expect(report["form_ranks"] == FERMAT_FORM_RANKS, "form ranks")
        _expect(report["dim_m2_tr"] == 200, "dim_m2_tr")
        _expect(degrees == FERMAT_DEGREES, "degrees %r" % (degrees,))
        _expect(verdict.status == self.pkg.decomp.INDECOMPOSABLE, "verdict")
        text = json.dumps(
            [report, degrees, self.pkg.decomp.verdict_to_dict(verdict)],
            sort_keys=True,
        )
        return _digest(text), {"fermat.degree.primes_drawn": drawn}


def fermat_c6(pkg, seed, inputs_dir, small=False):
    # Fixed paper inputs; the seed only drives the degree oracle.
    return [{"degree_seed": seed}], [FermatOp(pkg, seed)]


WORKLOADS = {
    "decide_small_g": decide_small_g,
    "fermat_c6": fermat_c6,
}
