"""Span tracer for one `qaskey` invocation, run as a child process.

    python bench/tracer.py SUMMARY.json verify --suite all

Wraps the public functions of every qaskey layer module (`series`, `laurent`,
`families`, `identities`, `numerics`, `cli`) plus the `LaurentPoly` ring
operators, then calls `qaskey.cli.main(argv)`.  The report goes to stdout
exactly as with `python -m qaskey.cli`; the per-layer summary goes to
SUMMARY.json.  The process exits with the code `main` returned.

Modules import one another's functions by name (`from .series import
qpochhammer`), so a wrapper is bound under every name in every qaskey module
(and every module-level dict, such as `cli.RENDERERS`) that holds the
original object.  `LaurentPoly.__radd__`/`__rmul__` are aliases of
`__add__`/`__mul__`, so they are rebound too.

Each call records one span: name id, start, end, parent span, whether an
enclosing span has the same name, and the wrapper's own time (its
bookkeeping before `start` and after `end`).  Spans are kept in flat arrays
in memory and summarised when `main` returns.  The wrapper time of a span
falls inside its parent's [start, end], so it is taken out of every
enclosing span and reported on its own as `wrapper_s`: a span's net time is
its duration minus the wrapper time of the spans nested in it, and its self
time is its net time minus the net times of its direct children.  Spans
nest strictly because the default `verify` runs on one thread.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("series", "laurent", "families", "identities", "numerics", "cli")

# Functions whose distinct argument tuples are counted (useful work / calls).
DISTINCT = ("identities.dual_projection_sum", "families.cqu_r", "families.qracah_weight")


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # qualified name per name id
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.wrapper = array("d")  # wrapper time outside [start, end]
        self.stack = [-1]
        self.depth: list[int] = []  # open spans per name id
        self.distinct: dict[int, set] = {}
        self.mul_terms = 0
        self.max_den_bits = 0

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self.depth.append(0)
        seen = self.distinct.setdefault(nid, set()) if qualname in DISTINCT else None
        count_terms = qualname == "laurent.mul"
        name_id, parent, outer = self.name_id, self.parent, self.outer
        start, end, wrapper = self.start, self.end, self.wrapper
        stack, depth = self.stack, self.depth

        def traced(*args, **kwargs):
            entered = perf_counter()
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            outer.append(depth[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            wrapper.append(0.0)
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            stack.append(idx)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[nid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                wrapper[idx] = t0 - entered
            if count_terms and result is not NotImplemented:
                coeffs = result._c.values()
                self.mul_terms += len(coeffs)
                for c in coeffs:
                    bits = c.denominator.bit_length()
                    if bits > self.max_den_bits:
                        self.max_den_bits = bits
            wrapper[idx] += perf_counter() - t1
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"qaskey.{layer}") for layer in LAYERS]
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "qaskey" or name.startswith("qaskey.")]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                _rebind(holders, obj, self.wrap(f"{layer}.{attr}", obj))
        poly = modules[LAYERS.index("laurent")].LaurentPoly
        for label, op, alias in (("laurent.mul", "__mul__", "__rmul__"),
                                 ("laurent.add", "__add__", "__radd__")):
            traced = self.wrap(label, vars(poly)[op])
            setattr(poly, op, traced)
            setattr(poly, alias, traced)

    def summary(self) -> dict:
        """Per-function and per-layer statistics of every recorded span."""
        names = self.names
        layer_of = [LAYERS.index(q.split(".", 1)[0]) for q in names]
        check_bit = 1 << len(LAYERS)  # an enclosing span is a check
        suite_bit = check_bit << 1  # the span is, or is inside, cli.run_suite
        is_check = [q.startswith("identities.check_") for q in names]
        n = len(self.name_id)
        # A child's index is above its parent's, so one backward pass sees
        # every child of a span before the span itself.
        net = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n  # net time of the direct children
        nested = [0.0] * n  # wrapper time of every span nested inside
        for i in reversed(range(n)):
            net[i] -= nested[i]
            p = self.parent[i]
            if p >= 0:
                nested[p] += nested[i] + self.wrapper[i]
                child[p] += net[i]
        mask = [0] * n  # layers of the enclosing spans, plus the two flags
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                pn = self.name_id[p]
                mask[i] = mask[p] | (1 << layer_of[pn]) | (check_bit if is_check[pn] else 0)
            if names[self.name_id[i]] == "cli.run_suite":
                mask[i] |= suite_bit
        funcs = {q: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for q in names}
        layers = {layer: {"calls": 0, "incl_s": 0.0, "self_in_run_suite_s": 0.0}
                  for layer in LAYERS}
        checks, max_check_s, check_self_s = 0, 0.0, 0.0
        for i in range(n):
            nid = self.name_id[i]
            self_s = net[i] - child[i]
            f = funcs[names[nid]]
            f["calls"] += 1
            f["self_s"] += self_s
            if self.outer[i]:
                f["incl_s"] += net[i]
            layer = layers[LAYERS[layer_of[nid]]]
            layer["calls"] += 1
            if not mask[i] & (1 << layer_of[nid]):
                layer["incl_s"] += net[i]
            if mask[i] & suite_bit:
                layer["self_in_run_suite_s"] += self_s
            if is_check[nid]:
                check_self_s += self_s
                if not mask[i] & check_bit:
                    checks += 1
                    max_check_s = max(max_check_s, net[i])
        for nid, seen in self.distinct.items():
            f = funcs[names[nid]]
            f["distinct_ratio"] = len(seen) / f["calls"] if f["calls"] else 0.0
        return {
            "spans": n,
            "functions": funcs,
            "layers": layers,
            "checks": checks,
            "max_check_s": max_check_s,
            "check_self_s": check_self_s,
            "mul_out_terms": self.mul_terms,
            "max_den_bits": self.max_den_bits,
            "wrapper_s": sum(self.wrapper),
        }


def _rebind(holders, original, replacement) -> None:
    for module in holders:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif type(value) is dict:
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement


def main(argv: list[str]) -> int:
    summary_path, qaskey_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from qaskey import cli

    code = cli.main(qaskey_argv)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
