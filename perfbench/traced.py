"""Run the projlab command line with a span around every call into a layer.

Usage:

    python3 traced.py TRACE_JSON <projlab arguments...>

The layers are projlab's modules.  After the package is imported, every
public function of `constructions`, `dimension`, `embedding`, `linalg` and
`slicing` is replaced, in every projlab module that holds a reference to
it, by a wrapper that records a span: layer, function, start, end and the
span that caused it.  `experiments` imports names directly and
`dimension` and `slicing` call their own helpers through module globals,
so patching each module's namespace catches every call site.  The
registered experiment functions are the root spans (layer `experiments`),
and `Artifacts.table/plot/points` with `svgplot.loglog_plot` and
`geom.write_points_csv` form the `write` layer.

Spans stay in memory.  When the run ends, TRACE_JSON receives each
layer's self time (span time minus the time of its child spans) and the
exact work counts below; nothing inside projlab changes.  Spans are kept on one stack, so the run must use one thread.

Work counts, taken at the layer boundary:

* embedding.pairs: point pairs examined by the pairwise calls, computed
  from input sizes (and from the hull size where `set_diameter` first
  reduces its input to hull vertices), not counted inside the kernels;
* experiments.maps: maps the experiments draw themselves with
  `sample_e_batch` and take through their per-map loops;
* dimension.covers / dimension.balls: `covering_number` calls and the
  greedy balls they open;
* slicing.dirac_centres: candidate centres scored by `dirac_score`;
* constructions.points: points, atoms or digit words returned by the
  outermost constructions call;
* linalg.rows: unit-ball rows drawn by `ball_rows`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("constructions", "dimension", "embedding", "linalg", "slicing")
COUNTS = ("embedding.pairs", "experiments.maps", "dimension.covers",
          "dimension.balls", "slicing.dirac_centres", "constructions.points",
          "linalg.rows")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _pairs(n):
    return n * (n - 1) // 2


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [layer, function, start, end, parent index]
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.hull_vertices = None

    def wrap(self, layer, name, fn, count=None):
        """fn inside a span; count(parent, args, kwargs, result) afterwards."""
        count = count or getattr(self, "_count_" + name, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [layer, name, 0.0, 0.0, parent]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(parent, args, kwargs, result)
            return result

        return traced

    def _parent_layer(self, parent):
        return self.spans[parent][0] if parent >= 0 else None

    # --- work counts, one method per counted function ---

    def _count_inverse_continuity_modulus(self, parent, args, kwargs, result):
        self.counts["embedding.pairs"] += _pairs(len(_arg(args, kwargs, 0, "points")))

    def _count_set_diameter(self, parent, args, kwargs, result):
        # set by the ConvexHull wrapper when the call took the hull path
        n = self.hull_vertices
        self.hull_vertices = None
        points = _arg(args, kwargs, 0, "points")
        if n is None:
            n = len(points)
        if points.ndim == 2 and points.shape[1] > 1:
            self.counts["embedding.pairs"] += _pairs(n)

    def _count_collision_probability(self, parent, args, kwargs, result):
        self.counts["embedding.pairs"] += result["n_far"] * result["n_maps"]

    def _count_collision_scan(self, parent, args, kwargs, result):
        if result.mode == "exact":
            self.counts["embedding.pairs"] += _pairs(result.n_points)

    def _count_pointwise_holder(self, parent, args, kwargs, result):
        self.counts["embedding.pairs"] += len(_arg(args, kwargs, 0, "points")) - 1

    _count_log_lipschitz_defect = _count_pointwise_holder

    def _count_sample_e_batch(self, parent, args, kwargs, result):
        if self._parent_layer(parent) == "experiments":
            self.counts["experiments.maps"] += result.shape[0]

    def _count_covering_number(self, parent, args, kwargs, result):
        self.counts["dimension.covers"] += 1
        self.counts["dimension.balls"] += result[0] if isinstance(result, tuple) else result

    def _count_dirac_score(self, parent, args, kwargs, result):
        measure = _arg(args, kwargs, 0, "slice_or_measure")
        self.counts["slicing.dirac_centres"] += len(getattr(measure, "measure", measure).points)

    def _count_ball_rows(self, parent, args, kwargs, result):
        self.counts["linalg.rows"] += len(result)

    def _count_constructions(self, parent, args, kwargs, result):
        # constructions calls nest (sphere_net_union -> sphere_net): the
        # count is taken where the caller is outside the layer
        if self._parent_layer(parent) == "constructions":
            return
        if hasattr(result, "n"):  # PointSet, AtomicMeasure
            self.counts["constructions.points"] += result.n
        elif isinstance(result, dict) and "depth" in result:  # verify_digit_lemma
            self.counts["constructions.points"] += 2 ** result["depth"]

    # --- installation ---

    def install(self):
        from projlab import experiments  # imports every projlab module

        replace = {}
        for layer in LAYERS:
            module = sys.modules["projlab." + layer]
            count = self._count_constructions if layer == "constructions" else None
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    replace[fn] = self.wrap(layer, name, fn, count)
        for module, name in (("geom", "write_points_csv"),
                             ("svgplot", "loglog_plot")):
            fn = getattr(sys.modules["projlab." + module], name)
            replace[fn] = self.wrap("write", name, fn)
        for name, module in list(sys.modules.items()):
            if name != "projlab" and not name.startswith("projlab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(module, attr, replace[value])

        embedding = sys.modules["projlab.embedding"]
        hull = embedding.ConvexHull

        def convex_hull(*args, **kwargs):
            result = hull(*args, **kwargs)
            self.hull_vertices = len(result.vertices)
            return result

        embedding.ConvexHull = convex_hull
        for name in ("table", "plot", "points"):
            setattr(experiments.Artifacts, name,
                    self.wrap("write", "Artifacts." + name,
                              getattr(experiments.Artifacts, name)))
        for name, entry in experiments.REGISTRY.items():
            entry["fn"] = self.wrap("experiments", name, entry["fn"])

    # --- results ---

    def report(self):
        """Self time per layer and the work counts."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(("experiments", "write") + LAYERS, 0.0)
        for i, (layer, _, start, end, _) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
        return {"self_s": self_s, "counts": self.counts}


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    from projlab import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w") as handle:
            json.dump(tracer.report(), handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
