"""Per-layer tracing of todkit from outside the package.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper that records a span (name, start, end, parent span,
command id), wherever the package binds that function: module
attributes, names imported into other modules, and ``cli.SUITES``.  Jet
ring operations and ``jets.compose``/``compose2`` are only counted, so
their time lands in the caller's self time.  ``restore`` puts every
original back.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time

SPANNED = ("harmonic", "tod", "curvature", "rods", "cky", "pd", "classify",
           "cli")
JET_OPS = (("__mul__", "jets.mul"), ("__rmul__", "jets.mul"),
           ("__truediv__", "jets.div"), ("__rtruediv__", "jets.div"))
JET_FUNCTIONS = ("compose", "compose2")
SAMPLER = "cli.sample_interior"

# (metric, unit, better).  BENCHMARK.json lists the same metrics.
# name.calls and name.self_s come from spans, except jets.* which are
# counts; name.s is inclusive span time.
PER_LAYER = (
    ("jets.mul.calls", "count", "lower"),
    ("jets.div.calls", "count", "lower"),
    ("jets.compose.calls", "count", "lower"),
    ("jets.compose2.calls", "count", "lower"),
    ("harmonic.toda_residual.calls", "count", "lower"),
    ("harmonic.toda_residual.self_s", "s", "lower"),
    ("harmonic.gauge_value.calls", "count", "lower"),
    ("harmonic.gauge_value.self_s", "s", "lower"),
    ("harmonic.build_v.self_s", "s", "lower"),
    ("harmonic.build_h.self_s", "s", "lower"),
    ("tod.tod_fields.calls", "count", "lower"),
    ("tod.tod_fields.self_s", "s", "lower"),
    ("tod.tod_metric.self_s", "s", "lower"),
    ("tod.fundamental_form.self_s", "s", "lower"),
    ("curvature.curvature_pack.calls", "count", "lower"),
    ("curvature.curvature_pack.self_s", "s", "lower"),
    ("curvature.invariant_norms.self_s", "s", "lower"),
    ("curvature.weyl_split.self_s", "s", "lower"),
    ("curvature.scalar_laplacian.self_s", "s", "lower"),
    ("curvature.cky_residual.self_s", "s", "lower"),
    ("curvature.killing_residual.self_s", "s", "lower"),
    ("rods.conical_check.calls", "count", "lower"),
    ("rods.conical_check.self_s", "s", "lower"),
    ("rods.gl2z_compatibility.self_s", "s", "lower"),
    ("rods.asymptotic_class.self_s", "s", "lower"),
    ("cky.tod_cky_candidate.self_s", "s", "lower"),
    ("cky.cky_decay_check.self_s", "s", "lower"),
    ("cky.flat_metric.self_s", "s", "lower"),
    ("cky.flat_cky.self_s", "s", "lower"),
    ("pd.pd_regularity.calls", "count", "lower"),
    ("pd.pd_regularity.self_s", "s", "lower"),
    ("pd.pd_scan.self_s", "s", "lower"),
    ("pd.pd_scan.attempts", "count", "lower"),
    ("pd.pd_scan.accept_ratio", "ratio", "higher"),
    ("classify.search_admissible.self_s", "s", "lower"),
    ("cli.suite_fields.s", "s", "lower"),
    ("cli.suite_curvature.s", "s", "lower"),
    ("cli.suite_rods.s", "s", "lower"),
    ("cli.suite_cky.s", "s", "lower"),
    ("cli.sample_interior.draws", "count", "lower"),
    ("cli.sample_interior.accept_ratio", "ratio", "higher"),
    ("cli.load_rod_file.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
# accept ratio -> (accepted counter, attempted counter)
RATIOS = {
    "pd.pd_scan.accept_ratio": ("pd.pd_scan.accepted", "pd.pd_scan.attempts"),
    "cli.sample_interior.accept_ratio": ("cli.sample_interior.accepted",
                                         "cli.sample_interior.draws"),
}


def _count_scan(counts, result):
    counts["pd.pd_scan.attempts"] += result.attempts
    counts["pd.pd_scan.accepted"] += result.samples


def _count_sampled(counts, points):
    counts["cli.sample_interior.accepted"] += len(points)


AFTER = {"pd.pd_scan": _count_scan, SAMPLER: _count_sampled}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, command id]
        self.counts = collections.Counter()
        self.command = 0
        self._open = []        # indices of the spans now running
        self._patches = []     # (setter, target, key, original)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1,
                    self.command]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if after is not None:
                after(self.counts, result)
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _draws(self, fn):
        """Count interior_check calls made by the sampler: one per draw."""
        counts, spans, open_ = self.counts, self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and spans[open_[-1]][0] == SAMPLER:
                counts[SAMPLER + ".draws"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target.__setitem__, key, target[key]))
            target[key] = value
        else:
            self._patches.append((functools.partial(setattr, target), key,
                                  target.__dict__[key]))
            setattr(target, key, value)

    def install(self):
        """Wrap the loaded todkit package; call restore() to undo."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "todkit" or name.startswith("todkit.")}
        wrapped = {}
        for short in SPANNED:
            mod = package["todkit." + short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._spanned(f"{short}.{attr}", obj)
        jets = package["todkit.jets"]
        for attr in JET_FUNCTIONS:
            fn = getattr(jets, attr)
            wrapped[fn] = self._counted(f"jets.{attr}", fn)
        try:
            for mod in package.values():
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(mod, attr, wrapped[obj])
            suites = package["todkit.cli"].SUITES
            for key, fn in list(suites.items()):
                if fn in wrapped:
                    self._patch(suites, key, wrapped[fn])
            for attr, key in JET_OPS:
                self._patch(jets.Jet2, attr,
                            self._counted(key, jets.Jet2.__dict__[attr]))
            rod_data = package["todkit.harmonic"].RodData
            self._patch(rod_data, "interior_check",
                        self._draws(rod_data.__dict__["interior_check"]))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            setter, key, original = self._patches.pop()
            setter(key, original)

    # -- results ----------------------------------------------------------

    def table(self):
        """name -> [calls, self seconds, inclusive seconds]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        rows = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = rows[name]
            row[0] += 1
            row[1] += end - start - covered[k]
            row[2] += end - start
        return rows

    def metrics(self, overhead):
        """Every PER_LAYER metric, as {name: value}."""
        rows = self.table()
        out = {}
        for name, _, _ in PER_LAYER:
            head, _, field = name.rpartition(".")
            if name == "trace.overhead":
                value = overhead
            elif name in RATIOS:
                done, tried = (self.counts[k] for k in RATIOS[name])
                value = done / tried if tried else 0.0
            elif field == "calls":
                value = (self.counts[head] if head.startswith("jets.")
                         else rows[head][0])
            elif field == "self_s":
                value = rows[head][1]
            elif field == "s":
                value = rows[head][2]
            else:
                value = self.counts[name]
            out[name] = value
        return out

    def write(self, path, header):
        """Write the header, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
