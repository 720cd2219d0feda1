"""Per-layer spans around calls into ``cuberec``, installed from outside ``src/``.

A ``Tracer`` replaces each traced function by a wrapper under every name its
callers look it up by: module attributes (``div_exact`` is bound in
``laurent``, ``recurrence``, ``sequences`` and the package), class attributes
(``LaurentPoly.__mul__`` and ``__rmul__`` are one function), and the values of
``cli.PROPERTIES``.  ``remove`` puts every original back.

Spans are kept in memory as (name, start, end, parent index, outermost) and
written out when the job ends.  A span's self time is its duration minus the
durations of its direct child spans; ``total_s`` counts only the outermost span
of a name, so a function that calls itself is not counted twice.
"""

from __future__ import annotations

import collections
import gzip
import os
import time

PROPERTIES = ("main-theorem", "oracle", "acyclic", "triineq", "coeffone",
              "degrees", "injectivity", "rhombcount", "simplified", "octahedron")

SPANNED = (
    ("laurent.div_exact", "laurent", "div_exact"),
    ("laurent.mul", "laurent.LaurentPoly", "__mul__"),
    ("laurent.add", "laurent.LaurentPoly", "__add__"),
    ("recurrence.f_symbolic", "recurrence", "f_symbolic"),
    ("recurrence.f_via_substitution", "recurrence", "f_via_substitution"),
    ("recurrence.f_numeric", "recurrence", "f_numeric"),
    ("recurrence.abc_from_edge_vars", "recurrence", "abc_from_edge_vars"),
    ("recurrence.octahedron_check", "recurrence", "octahedron_check"),
    ("lattice.build", "lattice.InitialConditions", "__init__"),
    ("lattice.points_in_J", "lattice.InitialConditions", "points_in_J"),
    ("lattice.rhombi_in_J", "lattice.InitialConditions", "rhombi_in_J"),
    ("lattice.rhombi_touching_J", "lattice.InitialConditions", "rhombi_touching_J"),
    ("groves.enumerate_local_moves", "groves", "enumerate_local_moves"),
    ("groves.monomial_of", "groves", "monomial_of"),
    ("groves.grove_sum", "groves", "grove_sum"),
    ("groves.grove_degrees", "groves", "grove_degrees"),
    ("groves.stats", "groves", "stats"),
    ("groves.is_acyclic", "groves", "is_acyclic"),
    ("groves.to_simplified", "groves", "to_simplified"),
    ("groves.from_simplified", "groves", "from_simplified"),
    ("groves.coeffone_sums", "groves", "coeffone_sums"),
    ("groves.enumerate_bruteforce", "groves", "enumerate_bruteforce"),
    ("sequences.gr_certificate", "sequences", "gr_certificate"),
    ("sequences.gr_terms", "sequences", "gr_terms"),
    ("sequences.gr_symbolic", "sequences", "gr_symbolic"),
    ("cli.main", "cli", "main"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
) + tuple((f"cli.verify.{p}", "cli.PROPERTIES", p) for p in PROPERTIES)

# Called too often for a span each; only the calls are counted.
COUNTED = (
    ("lattice.contains_rhombus", "lattice.InitialConditions", "contains_rhombus"),
    ("groves.Grove", "groves.Grove", "__init__"),
)


def _stats(name):
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.total_s", "s")]


def _each(prefix, names):
    return [m for name in names for m in _stats(f"{prefix}.{name}")]


# The per-layer metrics a traced run reports, with units, in report order.
METRICS = [
    *_stats("laurent.div_exact"), ("laurent.div_exact.term_products", "count"),
    *_stats("laurent.mul"), ("laurent.mul.term_products", "count"),
    *_stats("laurent.add"), ("laurent.add.terms_copied", "count"),
    *_each("recurrence", ("f_symbolic", "f_via_substitution", "f_numeric",
                          "abc_from_edge_vars", "octahedron_check")),
    *_each("lattice", ("build", "points_in_J", "rhombi_in_J", "rhombi_touching_J")),
    ("lattice.contains_rhombus.calls", "count"),
    *_stats("groves.enumerate_local_moves"),
    ("groves.enumerate_local_moves.groves_out", "count"),
    ("groves.Grove.calls", "count"),
    *_each("groves", ("monomial_of", "grove_sum", "grove_degrees", "stats", "is_acyclic",
                      "to_simplified", "from_simplified", "coeffone_sums")),
    *_stats("groves.enumerate_bruteforce"), ("groves.enumerate_bruteforce.too_large", "count"),
    *_each("sequences", ("gr_certificate", "gr_terms", "gr_symbolic")),
    ("cli.verify.context_s", "s"),
    *((f"cli.verify.{p}.self_s", "s") for p in PROPERTIES),
    ("cli.main.self_s", "s"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead", "ratio"),
]


def _resolve(path: str):
    import importlib

    head, *rest = path.split(".")
    obj = importlib.import_module(f"cuberec.{head}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


def _get(container, key):
    return container[key] if isinstance(container, dict) else getattr(container, key)


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def bindings(original) -> list:
    """Every (container, key) under which ``cuberec`` callers find ``original``."""
    import cuberec
    from cuberec import cli, groves, lattice, laurent, recurrence, sequences

    containers = [cuberec, laurent, lattice, recurrence, groves, sequences, cli,
                  laurent.LaurentPoly, lattice.InitialConditions, groves.Grove,
                  cli.PROPERTIES]
    found = []
    for c in containers:
        keys = c.keys() if isinstance(c, dict) else vars(c).keys()
        found.extend((c, k) for k in list(keys) if _get(c, k) is original)
    return found


class Tracer:
    """Spans and counts for one job; ``install`` before the call, ``remove`` after."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list = []
        self._active: collections.Counter = collections.Counter()
        self._patches: list = []

    def _extras(self):
        from cuberec import groves, laurent

        poly = laurent.LaurentPoly

        def size(x):
            return len(x) if isinstance(x, poly) else 1

        return {
            "laurent.div_exact": ("term_products", lambda a, r: len(r) * len(a[1])),
            "laurent.mul": ("term_products",
                            lambda a, r: len(a[0]) * size(a[1]) if isinstance(r, poly) else 0),
            "laurent.add": ("terms_copied",
                            lambda a, r: len(a[0]) if isinstance(r, poly) else 0),
            "groves.enumerate_local_moves": ("groves_out", lambda a, r: len(r)),
        }, {"groves.enumerate_bruteforce": ("too_large", groves.TooLarge)}

    def _span(self, name, fn, extra, raises):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer = not active[name]
            spans.append(None)
            stack.append(idx)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if raises and isinstance(exc, raises[1]):
                    counts[f"{name}.{raises[0]}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[idx] = (name, start, end, parent, outer)
            if extra:
                counts[f"{name}.{extra[0]}"] += extra[1](args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        extras, raises = self._extras()
        for name, owner, attr in SPANNED + COUNTED:
            original = _get(_resolve(owner), attr)
            if (name, owner, attr) in COUNTED:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._span(name, original, extras.get(name), raises.get(name))
            for container, key in bindings(original):
                self._patches.append((container, key, original))
                _set(container, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            _set(container, key, original)

    def aggregate(self) -> dict:
        """Per-name calls, self_s and total_s, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter(self.counts)
        for idx, (name, start, end, _, outer) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[idx]
            if outer:
                out[f"{name}.total_s"] += end - start
        out["cli.verify.context_s"] = out["cli.cmd_verify.total_s"] - sum(
            out[f"cli.verify.{p}.total_s"] for p in PROPERTIES
        )
        return dict(out)

    def write(self, directory: str) -> None:
        """Write the spans as gzip TSV: job, index, name, start, end, parent."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.job_id}.tsv.gz")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for idx, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{self.job_id}\t{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
