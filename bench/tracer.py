"""Spans around the calls into each shacalc layer, recorded from outside.

:meth:`Tracer.install` replaces every binding of each public function of a
layer module: the module's own attribute, the same name in every other
shacalc module that imported it (``sparse_kernel`` is bound in both
``intlinalg`` and ``cohomology``), and module-level tables such as
``suites.SUITES``.  Calls made through those bindings, including the
module's calls to its own functions, open a span.  Spans stay in memory
as ``(name, start, end, parent, case)`` and are written out by
:meth:`Tracer.write`.  :meth:`Tracer.uninstall` puts the originals back,
and a later :meth:`Tracer.install` the same wrappers again.

Class methods are not wrapped: their time counts in the span of the
function that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Functions whose own calls and self time are reported beside the layer
# totals, under the name given here.
FUNCTION_METRICS = {
    "intlinalg.sparse_kernel": "intlinalg.sparse_kernel",
    "intlinalg.hermite_rows": "intlinalg.hermite_rows",
    "intlinalg.lattice_solve": "intlinalg.lattice_solve",
    "intlinalg.smith_normal_form": "intlinalg.smith_normal_form",
    "cohomology.restriction": "cohomology.restriction",
    "cohomology.hyper_restriction": "cohomology.restriction",
}
COMPUTATIONS = ("cohomology.cohomology", "cohomology.hypercohomology")


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _module_content(m) -> tuple:
    return (
        m.underlying.generator_count,
        tuple(m.underlying.relation_rows),
        tuple(a.rows for a in m.action),
    )


def computation_key(group, coefficients, degree) -> tuple:
    """What a (hyper)cohomology computation depends on: the group table and
    generators, the coefficients' presentation and action, the degree."""
    if hasattr(coefficients, "f"):  # a two-term complex
        f = coefficients.f
        content = (_module_content(f.source), _module_content(f.target), f.matrix.rows)
    else:
        content = _module_content(coefficients)
    return (group.table, group.generators, content, degree)


def _bind(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _max_bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


class Tracer:
    def __init__(self, layers: tuple[str, ...]):
        self.layers = layers
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.child_s: list[float] = []  # time covered by child spans
        self.stack: list[int] = []
        self.case: int = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.keys: set = set()
        self._computing = 0  # open cohomology()/hypercohomology() spans
        self._bindings: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        if not self._bindings:
            self._bindings = self._find_bindings()
        for owner, key, _, wrapper in self._bindings:
            _bind(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings:
            _bind(owner, key, original)

    def _find_bindings(self) -> list[tuple]:
        """(owner, key, original, wrapper) for every binding of a public
        function of a layer, in a module or a module-level dict."""
        wrappers = {}
        for layer in self.layers:
            for fname, fn in public_functions(sys.modules[f"shacalc.{layer}"]).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        found = []
        for name, module in list(sys.modules.items()):
            if name != "shacalc" and not name.startswith("shacalc."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    found.append((module, attr, value, wrappers[id(value)]))
                elif isinstance(value, dict):
                    found.extend((value, key, item, wrappers[id(item)])
                                 for key, item in value.items() if id(item) in wrappers)
        return found

    def _wrap(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        spans, child_s, stack = self.spans, self.child_s, self.stack
        after = {
            "intlinalg.sparse_kernel": self._after_kernel,
            "intlinalg.smith_normal_form": self._after_smith,
            "sha.sha": self._after_sha,
            "sha.sha_two_term": self._after_sha,
        }.get(name)
        computation = name in COMPUTATIONS
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            child_s.append(0.0)
            stack.append(idx)
            if computation or after is not None:
                params = list(signature.bind(*args, **kwargs).arguments.values())
            if computation:
                self._computing += 1
                self.keys.add((self.case, computation_key(*params[:3])))
                self.counts["cohomology.computations"] += 1
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent, self.case)
                if computation:
                    self._computing -= 1
                if ok and after is not None:
                    after(params, result)
                if parent >= 0:
                    # the wrapper's own bookkeeping is charged to no layer
                    child_s[parent] += perf_counter() - entered
            return result

        return wrapper

    def _after_kernel(self, args, result) -> None:
        columns, nrows = args[0], args[1]
        self.counts["intlinalg.sparse_kernel.nnz_in"] += sum(len(c) for c in columns)
        self._max("intlinalg.sparse_kernel.max_cols", len(columns))
        self._max("intlinalg.sparse_kernel.max_bits_out", _max_bits(result))
        if self._computing:
            self._max("cohomology.max_dim", nrows)

    def _after_smith(self, args, result) -> None:
        self._max("intlinalg.smith_normal_form.max_dim", max(args[0].nrows, args[0].ncols))

    def _after_sha(self, args, result) -> None:
        self.counts["sha.imposed"] += len(result.imposed)

    def _max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer and per-function totals, as name -> (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for idx, (sid, t0, t1, _, _) in enumerate(self.spans):
            name = self.names[sid]
            own = (t1 - t0) - self.child_s[idx]
            for key in (name.split(".", 1)[0], FUNCTION_METRICS.get(name)):
                if key:
                    calls[key] += 1
                    self_s[key] += own
        out: dict[str, tuple[float, str]] = {}
        for layer in self.layers:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        for key in sorted(set(FUNCTION_METRICS.values())):
            out[f"{key}.calls"] = (calls[key], "count")
            out[f"{key}.self_s"] = (self_s[key], "s")
        out["intlinalg.sparse_kernel.nnz_in"] = (self.counts["intlinalg.sparse_kernel.nnz_in"], "count")
        for key in ("intlinalg.sparse_kernel.max_cols", "intlinalg.sparse_kernel.max_bits_out",
                    "intlinalg.smith_normal_form.max_dim", "cohomology.max_dim"):
            out[key] = (self.maxima[key], "count")
        computations = self.counts["cohomology.computations"]
        out["cohomology.computations"] = (computations, "count")
        out["cohomology.distinct"] = (len(self.keys), "count")
        out["cohomology.useful_ratio"] = (len(self.keys) / computations if computations else 1.0, "ratio")
        out["sha.imposed"] = (self.counts["sha.imposed"], "count")
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines after a header line holding the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent", "case"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
