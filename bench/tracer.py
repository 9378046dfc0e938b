"""Run the homtwist CLI in this process with every layer's public functions timed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 bench/tracer.py OUT.json paper
    python3 bench/tracer.py OUT.json check manifest.json

The arguments after OUT.json go to ``homtwist.cli.main`` unchanged; the exit
code is the CLI's.  Nothing under ``src/`` is edited: the tracer replaces, in
every ``homtwist.*`` namespace, each alias of a wrapped function (the package
binds functions with ``from .x import f``, so one module attribute is not
enough), the entries of module-level tuples and dicts that hold them (the
criteria table, the manifest verb tables), and the wrapped methods on their
classes.

Every call is aggregated per (parent, name) into a count, a total time and a
self time (the total minus the time of wrapped children).  Criteria, manifest
tasks and manifest parsing are also kept as individual spans.  OUT.json holds
both, plus the hit counts of the ``lru_cache``s in ``uqsl2``.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "exact",
    "algebra",
    "coalgebra",
    "twistor",
    "twisted",
    "modsmash",
    "uqsl2",
    "gallery",
    "manifest",
    "suite",
    "cli",
)

# Public methods that the checkers call in their inner loops.
METHODS = {
    "exact": ("Matrix.apply", "Scan.eq"),
    "algebra": ("HomAlgebra.product",),
}

# Spans recorded one by one; every other name is only aggregated.
SPAN_PREFIXES = ("suite.criterion_", "manifest.task.", "manifest.parse_manifest")

LRU_CACHES = {"monomial_mul": "_monomial_mul", "monomial_coproduct": "_monomial_coproduct", "rules": "_rules"}


class Tracer:
    """Call statistics for wrapped functions, kept in memory until `report`."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # frames: [name, child seconds, span index or None]
        self.edges = {}  # (parent name, name) -> [calls, total seconds, self seconds]
        self.spans = []  # [name, parent span index, start, end]
        self.scan_failed = 0

    def wrap(self, name, fn):
        stack, edges, spans, clock = self.stack, self.edges, self.spans, self.clock
        keep_span = name.startswith(SPAN_PREFIXES)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = None
            if keep_span:
                span = len(spans)
                spans.append([name, _enclosing_span(stack), 0.0, 0.0])
            frame = [name, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                key = (parent[0] if parent else None, name)
                stat = edges.get(key)
                if stat is None:
                    stat = edges[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if span is not None:
                    spans[span][2:] = [start, end]

        return traced

    def wrap_scan_eq(self, fn):
        """Scan.eq also counts the equation instances that fail."""
        timed = self.wrap("exact.Scan.eq", fn)
        tracer = self

        @functools.wraps(fn)
        def eq(scan, equation, basis, lhs, rhs):
            lhs, rhs = list(lhs), list(rhs)
            if lhs != rhs:
                tracer.scan_failed += 1
            return timed(scan, equation, basis, lhs, rhs)

        return eq

    def report(self, uqsl2, wrapped):
        caches = {}
        for label, attr in LRU_CACHES.items():
            cached = getattr(uqsl2, attr, None)
            if cached is not None:
                info = cached.cache_info()
                caches[label] = {"hits": info.hits, "misses": info.misses}
        return {
            "wrapped": wrapped,
            "edges": [
                {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                for (p, n), (c, t, s) in sorted(self.edges.items(), key=lambda kv: str(kv[0]))
            ],
            "spans": [
                {"name": n, "parent": p, "start": a, "end": b} for n, p, a, b in self.spans
            ],
            "scan_failed": self.scan_failed,
            "lru_caches": caches,
        }


def _enclosing_span(stack):
    for frame in reversed(stack):
        if frame[2] is not None:
            return frame[2]
    return None


def _public_functions(module):
    """Functions defined in `module` itself whose names do not start with '_'."""
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


def _swap(value, originals, depth=0):
    """`value` with every original function in it replaced; dicts change in place."""
    if callable(value) and id(value) in originals:
        return originals[id(value)]
    if depth >= 3:
        return value
    if isinstance(value, tuple):
        swapped = tuple(_swap(v, originals, depth + 1) for v in value)
        return swapped if any(a is not b for a, b in zip(swapped, value)) else value
    if isinstance(value, list):
        value[:] = [_swap(v, originals, depth + 1) for v in value]
    elif isinstance(value, dict):
        for k, v in value.items():
            value[k] = _swap(v, originals, depth + 1)
    return value


def install(tracer):
    """Wrap every layer's public functions and the METHODS; returns the wrapped names."""
    modules = {layer: importlib.import_module(f"homtwist.{layer}") for layer in LAYERS}
    originals = {}  # id(original) -> wrapper
    names = []
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            if layer == "suite" and attr.startswith("criterion_"):
                name = "suite.criterion_" + attr.split("_")[1]
            originals[id(fn)] = tracer.wrap(name, fn)
            names.append(name)
        for dotted in METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(module, cls_name)
            fn = getattr(cls, meth)
            wrapped = tracer.wrap_scan_eq(fn) if dotted == "Scan.eq" else tracer.wrap(f"{layer}.{dotted}", fn)
            setattr(cls, meth, wrapped)
            names.append(f"{layer}.{dotted}")
    manifest = modules["manifest"]
    for table in (manifest.CHECK_VERBS, manifest.CONSTRUCT_VERBS):
        for op, fn in table.items():
            table[op] = tracer.wrap(f"manifest.task.{op}", fn)
            names.append(f"manifest.task.{op}")
    for modname, module in list(sys.modules.items()):
        if modname == "homtwist" or modname.startswith("homtwist."):
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                swapped = _swap(value, originals)
                if swapped is not value:
                    namespace[attr] = swapped
    return names


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    wrapped = install(tracer)
    from homtwist import cli, uqsl2

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(uqsl2, wrapped), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
