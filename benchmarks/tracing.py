"""Layer spans recorded from outside the package.

The tracer replaces public functions and class methods of the motivix
modules with wrappers that record one span per call: name, start, end,
parent span and op id. It installs each wrapper at every module
attribute that binds the function (`is_integral` is bound in cmlat,
decomp, cli and the package itself), so every caller goes through it.
Spans stay in memory in flat arrays until the run writes them out.

`QuadInt` construction is by far the hottest call; it gets a counter,
not spans.
"""

import array
import time

# span name -> (module, attribute) of the callables that record it
SPANS = {
    "exact.ZLattice.contains": [("exact", "ZLattice.contains")],
    "exact.ZLattice.from_rows": [("exact", "ZLattice.from_rows")],
    "exact.solve_field": [("exact", "solve_field")],
    "cmlat.build_model": [("cmlat", "build_model")],
    "cmlat.is_integral": [("cmlat", "is_integral")],
    "cmlat.EndoQ.build": [
        ("cmlat", "EndoQ.from_rows"),
        ("cmlat", "EndoQ.scale"),
        ("cmlat", "EndoQ.__add__"),
        ("cmlat", "subset_idempotent"),
    ],
    "cmlat.exponent": [("cmlat", "exponent")],
    "decomp.decide": [("decomp", "decide")],
    "decomp.refute": [("decomp", "refute")],
    "decomp.probes_for": [("decomp", "probes_for")],
    "corr.conv": [("corr", "conv")],
    "corr.build_grids": [("corr", "build_grids")],
    "polyring.MultiNf.inverse": [("polyring", "MultiNf.inverse")],
    "polyring.BiPoly.y_reduce": [("polyring", "BiPoly.y_reduce")],
    "polyring.RatFunc.subst": [("polyring", "RatFunc.subst")],
    "polyring.fp_resultant": [("polyring", "fp_resultant")],
    "fermat.pullback": [("fermat", "pullback")],
    "fermat.span_rank": [("fermat", "span_rank")],
    "fermat.degree": [("fermat", "degree")],
    "cli.main": [("cli", "main")],
}

INTEGRALITY = "cmlat.is_integral"
QUADINT_NEW = "exact.QuadInt.new"


def self_times(start, end, parent):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover. Children may come in any
    order and may overlap each other."""
    n = len(start)
    cover = [0.0] * n
    reach = {}
    for i in sorted(range(n), key=lambda k: start[k]):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            cover[p] += hi - lo
        reach[p] = max(reach.get(p, start[p]), min(end[i], end[p]))
    return [end[i] - start[i] - cover[i] for i in range(n)]


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.nested = array.array("b")  # inside a span of the same name
        self.start = array.array("d")
        self.end = array.array("d")
        self.integrality = {}  # span index -> (query hash, result)
        self.quadint_new = [0]
        self.quadint_by_op = {}
        self.op_id = -1
        self._quadint_at_op = 0
        self._stack = []
        self._open = [0] * len(self.names)
        self._restore = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name_id, fn, observe=None):
        name, parent, op, nested = self.name, self.parent, self.op, self.nested
        start, end, stack, open_count = self.start, self.end, self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            nested.append(open_count[name_id] > 0)
            end.append(0.0)
            stack.append(idx)
            open_count[name_id] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_count[name_id] -= 1
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_integrality(self, idx, args, result):
        self.integrality[idx] = (hash(args[1]), bool(result))

    def begin_op(self, op_id):
        self.op_id = op_id
        self._quadint_at_op = self.quadint_new[0]

    def end_op(self):
        self.quadint_by_op[self.op_id] = self.quadint_new[0] - self._quadint_at_op
        self.op_id = -1

    # -- installation -----------------------------------------------------

    def install(self, modules):
        """Wrap every traced callable; `modules` maps 'motivix.x' names to
        the loaded modules."""
        for name_id, span in enumerate(self.names):
            observe = self._observe_integrality if span == INTEGRALITY else None
            for mod, attr in SPANS[span]:
                owner = modules["motivix." + mod]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    self._wrap_method(getattr(owner, cls_name), meth, name_id)
                else:
                    orig = getattr(owner, attr)
                    self._rebind(modules, orig, self._wrap(name_id, orig, observe))
        self._count_quadint(modules["motivix.exact"].QuadInt)

    def _rebind(self, modules, orig, new):
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)
                    self._restore.append((module, attr, orig))

    def _wrap_method(self, cls, meth, name_id):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name_id, raw.__func__))
        else:
            new = self._wrap(name_id, raw)
        setattr(cls, meth, new)
        self._restore.append((cls, meth, raw))

    def _count_quadint(self, cls):
        raw = cls.__dict__["__init__"]
        cell = self.quadint_new

        def __init__(self, a, b, d):
            cell[0] += 1
            raw(self, a, b, d)

        cls.__init__ = __init__
        self._restore.append((cls, "__init__", raw))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- aggregation ------------------------------------------------------

    def layer_totals(self, ops):
        """Per-span-name calls, busy time and self time over the spans of
        the given op ids, plus the integrality result and distinctness
        tallies. Busy time counts only spans not nested in a span of the
        same name, so recursion is not counted twice."""
        ops = set(ops)
        picked = [i for i in range(len(self.start)) if self.op[i] in ops]
        index = {i: k for k, i in enumerate(picked)}
        start = [self.start[i] for i in picked]
        end = [self.end[i] for i in picked]
        parent = [index.get(self.parent[i], -1) for i in picked]
        selfs = self_times(start, end, parent)
        totals = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for k, i in enumerate(picked):
            t = totals[self.names[self.name[i]]]
            t["calls"] += 1
            t["self_s"] += selfs[k]
            if not self.nested[i]:
                t["busy_s"] += end[k] - start[k]
        queries = [
            (self.op[i], self.integrality[i]) for i in picked if i in self.integrality
        ]
        t = totals[INTEGRALITY]
        t["integral"] = sum(1 for _, (_, ok) in queries if ok)
        t["distinct"] = len({(op, h) for op, (h, _) in queries})
        totals[QUADINT_NEW] = {"calls": sum(self.quadint_by_op.get(op, 0) for op in ops)}
        return totals

    def spans(self):
        """All spans as [name, start, end, parent, op] rows."""
        return [
            [self.names[self.name[i]], self.start[i], self.end[i],
             self.parent[i], self.op[i]]
            for i in range(len(self.start))
        ]
