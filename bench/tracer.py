"""Outside-in span tracing of the ricci_liouville modules.

``Tracer.install`` wraps every public function of every library module
(the names in its ``__all__``, or its public functions when it has none)
and rebinds the wrapper wherever a library module holds the function,
including names re-imported with ``from .x import y``.  Internal calls
that go through a module global therefore produce spans too; private
helpers and closures do not, so their time is self time of the nearest
wrapped caller.  Spans are kept in memory as (function, start, end,
parent, quantity) and aggregated into per-layer metrics at the end.
Library files are never modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("elliptic", "metric", "verify", "revolution", "pmc", "fileio", "cli")


def _size(value) -> int:
    return int(np.size(value))


def _grid_points(spec) -> int:
    return int(spec.nu * spec.nv)


def _text_bytes(data) -> int:
    return len(data) if isinstance(data, bytes) else len(data.encode("utf-8"))


# quantity recorded per span: (parameter name, measure) taken from the
# call's arguments, or ("return", measure) taken from its result
QUANTITIES = {
    "verify.sample_grid": ("g", _grid_points),
    "verify.grid_to_csv": ("m", lambda m: _grid_points(m.spec)),
    "revolution.tessellate": ("return", lambda mesh: len(mesh.faces)),
    "revolution.mesh_to_ply": ("return", len),
    "revolution.mesh_to_obj": ("return", _text_bytes),
    "pmc.pmc_report": ("n", int),
    "fileio.write_atomic": ("data", _text_bytes),
}
for _fn in ("elliptic.jacobi_am", "elliptic.jacobi_sn_cn_dn", "metric.conformal_factor",
            "metric.conformal_factor_derivatives", "metric.gaussian_curvature",
            "metric.theta", "metric.ode_residual"):
    QUANTITIES[_fn] = ("u", _size)  # the evaluation points of the call


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        where, measure = QUANTITIES.get(name, (None, None))
        position = None
        if where not in (None, "return"):
            params = list(inspect.signature(fn).parameters)
            if where in params:
                position = params.index(where)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            qty = 0
            if position is not None:
                if len(args) > position:
                    qty = measure(args[position])
                elif where in kwargs:
                    qty = measure(kwargs[where])
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, qty)
            if where == "return":
                spans[idx] = (fid, start, end, parent, measure(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and rebind them in every library module."""
        package = importlib.import_module("ricci_liouville")
        modules = {m: importlib.import_module(f"ricci_liouville.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            public = getattr(mod, "__all__", None)
            if public is None:
                public = [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue  # re-exported; wrapped where it is defined
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def layers(self) -> dict:
        """Aggregate the recorded spans into the per-layer metrics."""
        names = self.names
        fids = {name: fid for fid, name in enumerate(names)}
        modules = [n.split(".", 1)[0] for n in names]
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        self_s = dict.fromkeys(MODULES, 0.0)
        calls = dict.fromkeys(MODULES, 0)
        qty_in = dict.fromkeys(MODULES, 0)
        count = [0] * len(names)
        qty_fn = [0] * len(names)
        by_fid: list[list[int]] = [[] for _ in names]
        quad_evals = 0
        simpson = fids.get("revolution.adaptive_simpson", -2)
        for idx, (fid, start, end, parent, qty) in enumerate(spans):
            mod = modules[fid]
            self_s[mod] += end - start - child[idx]
            parent_fid = spans[parent][0] if parent >= 0 else -1
            if parent_fid < 0 or modules[parent_fid] != mod:
                calls[mod] += 1  # an entry into the layer from outside it
                qty_in[mod] += qty
            if mod == "metric" and parent_fid == simpson:
                quad_evals += 1
            count[fid] += 1
            qty_fn[fid] += qty
            by_fid[fid].append(idx)

        def n(fn):
            return count[fids[fn]] if fn in fids else 0

        def q(fn):
            return qty_fn[fids[fn]] if fn in fids else 0

        def incl(*fns):
            # inclusive time of the outermost spans among fns
            wanted = {fids[f] for f in fns if f in fids}
            total = 0.0
            for fid in wanted:
                for idx in by_fid[fid]:
                    _, start, end, up, _ = spans[idx]
                    while up >= 0 and spans[up][0] not in wanted:
                        up = spans[up][3]
                    if up < 0:
                        total += end - start
            return total

        def per_call(mod):
            return 1e6 * self_s[mod] / calls[mod] if calls[mod] else 0.0

        return {
            "elliptic.calls": calls["elliptic"],
            "elliptic.args": qty_in["elliptic"],
            "elliptic.self_s": self_s["elliptic"],
            "elliptic.us_per_call": per_call("elliptic"),
            "metric.calls": calls["metric"],
            "metric.points": qty_in["metric"],
            "metric.self_s": self_s["metric"],
            "metric.us_per_call": per_call("metric"),
            "verify.sample_grid_s": incl("verify.sample_grid"),
            "verify.grid_points": q("verify.sample_grid"),
            "verify.residual_s": incl("verify.ricci_residual_grid", "verify.ricci_residual_1d"),
            "verify.order_fit_s": incl("verify.estimate_order", "verify.fit_normalization"),
            "verify.csv_s": incl("verify.grid_to_csv"),
            "verify.csv_rows": q("verify.grid_to_csv"),
            "revolution.embeddable_s": incl("revolution.embeddable_interval",
                                            "revolution.embeddable_interval_numeric"),
            "revolution.profile_s": incl("revolution.profile_from_metric",
                                         "revolution.profile_from_conformal"),
            "revolution.quad_segments": n("revolution.adaptive_simpson"),
            "revolution.quad_evals": quad_evals,
            "revolution.tessellate_s": incl("revolution.tessellate"),
            "revolution.faces": q("revolution.tessellate"),
            "revolution.ply_s": incl("revolution.mesh_to_ply"),
            "revolution.obj_s": incl("revolution.mesh_to_obj"),
            "revolution.export_bytes": q("revolution.mesh_to_ply")
            + q("revolution.mesh_to_obj"),
            "revolution.angle_defect_s": incl("revolution.angle_defect_curvature"),
            "revolution.induced_check_s": incl("revolution.induced_metric_check"),
            "revolution.metric_from_profile_s": incl("revolution.metric_from_profile"),
            "pmc.report_s": incl("pmc.pmc_report"),
            "pmc.samples": q("pmc.pmc_report"),
            "fileio.write_s": incl("fileio.write_atomic", "fileio.write_manifest"),
            "fileio.bytes": q("fileio.write_atomic"),
            "fileio.files": n("fileio.write_atomic"),
            "cli.self_s": self_s["cli"],
            "cli.commands": n("cli.main"),
        }
