"""Per-layer tracing of holriem from outside the package.

``Tracer.install()`` wraps every public function and method of the nine
modules (the layers), in every ``holriem*`` module namespace that holds
the object, because ``cli`` and ``catalog`` bind names such as
``levi_civita`` at import.  A call that enters a layer from another layer
(or from the benchmark) records a span (name, start, end, parent, op); a
call inside one layer only counts, except for the named functions whose
own time is a metric.  Spans stay in memory and are written out at the end.

``scalars`` is count-only: ``GaussianRational`` arithmetic and
``__bool__`` run about 200k times per report, so its time stays in the
calling layer's self time.  A layer's self time is the time its spans
cover minus the time their child spans cover.
"""

from __future__ import annotations

import enum
import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("scalars", "linalg", "forms", "liealg", "geometry", "models", "catalog", "dsl", "cli")

SCALAR_COUNTS = {
    "__add__": "add_calls",
    "__radd__": "add_calls",
    "__sub__": "add_calls",
    "__rsub__": "add_calls",
    "__mul__": "mul_calls",
    "__rmul__": "mul_calls",
    "__truediv__": "div_calls",
    "__rtruediv__": "div_calls",
    "__bool__": "zero_tests",
}
# Constructors and CMatrix's operators are public API too.
OPERATORS = {"__init__", "__add__", "__sub__", "__neg__", "__matmul__"}

FRAGMENTS = {
    "verify_entry": "entries_s",
    "verify_prop_unimodular": "prop_unimodular_s",
    "verify_section4": "section4_s",
    "verify_section5_tables": "section5_tables_s",
    "verify_isotropy_dimension_bounds": "isotropy_bounds_s",
    "verify_heis_family": "heis_family_s",
    "verify_flow_identities": "flow_s",
    "verify_shipped_files": "shipped_files_s",
    "verify_mobius": "mobius_s",
}
# Functions whose inclusive time is a metric, by metric.  They get a span
# on every call; a span nested in one of its own group is not added again.
TIMED = {
    "geometry.levi_civita": "geometry.levi_civita_s",
    "geometry.curvature": "geometry.curvature_s",
    "dsl.parse": "dsl.parse_s",
    "dsl.format_combination": "dsl.render_s",
    "dsl.format_scalar": "dsl.render_s",
    "dsl.serialize": "dsl.render_s",
    **{f"catalog.{name}": f"catalog.{metric}" for name, metric in FRAGMENTS.items()},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.layer = "bench"
        self.span = -1
        self.op = -1
        self.entered = dict.fromkeys(LAYERS, 0)
        self.raised = dict.fromkeys(LAYERS, 0)
        self.scalars = dict.fromkeys(sorted(set(SCALAR_COUNTS.values())), 0)
        self.counts = {"linalg.elim_cells": 0, "dsl.parse_bytes": 0, "catalog.checks": 0,
                       "catalog.failed_checks": 0, "cli.nonzero_exits": 0, "cli.output_bytes": 0}
        self.metrics_seen: set = set()
        self.origin = perf_counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"holriem.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrap = self._counter if layer == "scalars" else self._spanner
                    replaced[id(obj)] = wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(obj, layer)
            if layer == "linalg":
                # Every elimination runs through _reduce (rref, kernel, solve,
                # span_basis, inverse, rank); det has its own loop.
                module._reduce = self._counter(module._reduce, layer, "linalg._reduce", self._elim_rows)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "holriem":
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            qualname = f"{layer}.{cls.__name__}.{name}"
            if layer == "scalars":
                if cls.__name__ == "GaussianRational" and name in SCALAR_COUNTS:
                    setattr(cls, name, self._counter(attr, layer, qualname, key=SCALAR_COUNTS[name]))
                elif not name.startswith("_") and inspect.isfunction(attr):
                    setattr(cls, name, self._counter(attr, layer, qualname))
                continue
            if name.startswith("_") and name not in OPERATORS:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self._spanner(attr.__func__, layer, qualname)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._spanner(attr, layer, qualname))

    def _register(self, layer: str, qualname: str) -> int:
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _counter(self, fn, layer, qualname, before=None, key=None):
        fid, calls, scalars = self._register(layer, qualname), self.calls, self.scalars

        def counted(*args, **kwargs):
            calls[fid] += 1
            if key is not None:
                scalars[key] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, fn, layer, qualname):
        fid, calls, tracer = self._register(layer, qualname), self.calls, self
        always = qualname in TIMED
        before = HOOKS_BEFORE.get(qualname)
        after = HOOKS_AFTER.get(qualname)

        def traced(*args, **kwargs):
            calls[fid] += 1
            if before is not None:
                before(tracer, args)
            if tracer.layer == layer and not always:
                result = fn(*args, **kwargs)
            else:
                result = tracer._run_span(fid, layer, fn, args, kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def _run_span(self, fid, layer, fn, args, kwargs):
        crossing = self.layer != layer
        if crossing:
            self.entered[layer] += 1
        parent, outer = self.span, self.layer
        index = len(self.span_start)
        self.span_name.append(fid)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span, self.layer = index, layer
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if crossing:
                self.raised[layer] += 1
            raise
        finally:
            self.span_start[index] = start
            self.span_end[index] = perf_counter()
            self.span, self.layer = parent, outer

    def _elim_rows(self, args) -> None:
        rows = args[0]
        self.counts["linalg.elim_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    # -- results ----------------------------------------------------------------

    def calls_of(self, qualname: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == qualname)

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric of this trace, by name."""
        n = len(self.span_start)
        duration = [self.span_end[k] - self.span_start[k] for k in range(n)]
        covered = [0.0] * n
        for k in range(n):
            if self.span_parent[k] >= 0:
                covered[self.span_parent[k]] += duration[k]
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive = dict.fromkeys(TIMED.values(), 0.0)
        group = [TIMED.get(name) for name in self.names]
        for k in range(n):
            fid, parent = self.span_name[k], self.span_parent[k]
            self_s[self.layer_of[fid]] += duration[k] - covered[k]
            if group[fid] is not None and (parent < 0 or group[self.span_name[parent]] != group[fid]):
                inclusive[group[fid]] += duration[k]
        lc_calls = self.calls_of("geometry.levi_civita")
        out = {f"scalars.{key}": value for key, value in self.scalars.items()}
        out.update(
            {
                "linalg.calls": self.entered["linalg"],
                "linalg.self_s": self_s["linalg"],
                "linalg.elim_cells": self.counts["linalg.elim_cells"],
                "linalg.raised": self.raised["linalg"],
                "forms.apply_calls": self.calls_of("forms.QuadraticForm.apply"),
                "forms.self_s": self_s["forms"],
                "liealg.bracket_calls": self.calls_of("liealg.bracket"),
                "liealg.calls": self.entered["liealg"],
                "liealg.self_s": self_s["liealg"],
                "geometry.levi_civita_calls": lc_calls,
                "geometry.curvature_calls": self.calls_of("geometry.curvature"),
                "geometry.levi_civita_s": inclusive["geometry.levi_civita_s"],
                "geometry.curvature_s": inclusive["geometry.curvature_s"],
                "geometry.distinct_metrics": len(self.metrics_seen),
                "geometry.metric_reuse_ratio": len(self.metrics_seen) / lc_calls if lc_calls else 0.0,
                "geometry.self_s": self_s["geometry"],
                "geometry.raised": self.raised["geometry"],
                "models.induced_ad_calls": self.calls_of("models.induced_ad"),
                "models.calls": self.entered["models"],
                "models.self_s": self_s["models"],
            }
        )
        out.update({f"catalog.{metric}": inclusive[f"catalog.{metric}"] for metric in FRAGMENTS.values()})
        out.update(
            {
                "catalog.checks": self.counts["catalog.checks"],
                "catalog.failed_checks": self.counts["catalog.failed_checks"],
                "dsl.parse_calls": self.calls_of("dsl.parse"),
                "dsl.parse_bytes": self.counts["dsl.parse_bytes"],
                "dsl.parse_s": inclusive["dsl.parse_s"],
                "dsl.render_s": inclusive["dsl.render_s"],
                "dsl.raised": self.raised["dsl"],
                "cli.self_s": self_s["cli"],
                "cli.output_bytes": self.counts["cli.output_bytes"],
                "cli.nonzero_exits": self.counts["cli.nonzero_exits"],
            }
        )
        return out

    def write_spans(self, path) -> int:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,op,layer,name,start_s,end_s\n")
            for k in range(len(self.span_start)):
                fid = self.span_name[k]
                out.write(
                    f"{k},{self.span_parent[k]},{self.span_op[k]},{self.layer_of[fid]},{self.names[fid]},"
                    f"{self.span_start[k] - self.origin:.9f},{self.span_end[k] - self.origin:.9f}\n"
                )
        return len(self.span_start)


def _metric_key(tracer, args) -> None:
    algebra, form = args[0], args[1]
    tracer.metrics_seen.add((algebra.constants, form.gram.entries))


def _parse_bytes(tracer, args) -> None:
    tracer.counts["dsl.parse_bytes"] += len(args[0].encode())


def _report(tracer, report) -> None:
    tracer.counts["catalog.checks"] += len(report.checks)
    tracer.counts["catalog.failed_checks"] += report.fail_count


def _exit_code(tracer, code) -> None:
    tracer.counts["cli.nonzero_exits"] += code != 0


def _det_cells(tracer, args) -> None:
    entries = args[0].entries
    tracer.counts["linalg.elim_cells"] += len(entries) * len(entries[0])


HOOKS_BEFORE = {"geometry.levi_civita": _metric_key, "dsl.parse": _parse_bytes, "linalg.CMatrix.det": _det_cells}
HOOKS_AFTER = {"catalog.verify_all": _report, "cli.cli": _exit_code}
