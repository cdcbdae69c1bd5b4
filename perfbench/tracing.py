"""Span tracer that wraps the library's public functions from outside.

Nothing in ``src/`` changes: ``Tracer.install`` replaces each target
function with a wrapper under every name a caller can look it up by (the
defining module, every ``heights`` module that imported it by name, and
the class for methods).  Each call records one span -- name, start, end
and parent -- in flat arrays that stay in memory until the run ends.
``Tracer.uninstall`` restores the originals.

This module imports only the standard library, so a traced CLI child
process can load it without paying for numpy before its import span.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections.abc import Mapping
from time import perf_counter

# (module, attribute path, span name or namer).  A namer maps the call's
# positional arguments to a span name.  The span name's first component
# is the layer, and the per-layer metrics of BENCHMARK.json are named
# after the spans (see run.span_metric): no span name is a dotted prefix
# of another unless it stands for all of them.
TARGETS = [
    ("heights.heightvalue", "is_prime", "heightvalue.is_prime"),
    ("heights.intersection", "SymmetricForm.pair", "intersection.pair"),
    ("heights.intersection", "IntersectionModel.to_json",
     "intersection.json_roundtrip"),
    ("heights.intersection", "IntersectionModel.from_json",
     "intersection.json_roundtrip"),
    ("heights.toric", "blowup_family_oracle", "toric.oracle"),
    ("heights.toric", "toric_log_discrepancy", "toric.log_discrepancy"),
    ("heights.families", "build_p1_fs", "families.build_p1_fs"),
    ("heights.families", "build_p2_blowup_family",
     "families.build_p2_blowup"),
    ("heights.families", "brieskorn_pham_analyze", "families.bp"),
    ("heights.families", "CongruenceSemigroup.contains",
     "families.semigroup_contains"),
    ("heights.families", "elliptic_faltings_height", "families.faltings"),
    ("heights.families", "curve_periods", "families.faltings"),
    ("heights.geometry", "SphereGeometry.__init__", "geometry.construct"),
    ("heights.geometry", "TorusGeometry.__init__", "geometry.construct"),
    ("heights.geometry", "SphereGeometry.laplacian",
     lambda args: f"geometry.sphere_transform.n{args[0].n_theta}"),
    ("heights.geometry", "SphereGeometry.synth_harmonics",
     "geometry.synth_harmonics"),
    ("heights.geometry", "TorusGeometry.laplacian",
     "geometry.torus_transform"),
    ("heights.geometry", "TorusGeometry.random_potential",
     "geometry.torus_random"),
    ("heights.potentials", "PotentialField.__init__", "potentials.field"),
    ("heights.potentials", "PotentialField.random", "potentials.random"),
    ("heights.energies", "apply_metric_change",
     "energies.apply_metric_change"),
    ("heights.energies", "metric_model_pair", "energies.metric_model_pair"),
    ("heights.quantize", "balanced_iterate", "quantize.balanced_iterate"),
    ("heights.quantize", "balanced_step", "quantize.balanced_step"),
    ("heights.quantize", "fubini_study_of", "quantize.fubini_study"),
    ("heights.quantize", "p1_section_values", "quantize.section_values"),
    ("heights.quantize", "htilde_c_of_gram", "quantize.htilde"),
    ("heights.quantize", "dequantization_scan",
     "quantize.dequantization_scan"),
    ("heights.quantize", "hilbert_samuel_residual",
     "quantize.hilbert_samuel"),
] + [("heights.energies", fn, "energies.functionals")
     for fn in ("k_energy", "am_energy", "ricci_energy", "entropy",
                "aubin_i", "aubin_j")] \
  + [("heights.quantize", fn, "quantize.gram")
     for fn in ("l2_gram", "l2_gram_quadrature", "chow_height",
                "arithmetic_degree")] \
  + [("heights.functionals", fn, "functionals")
     for fn in ("modular_height", "arakelov_energy",
                "relative_modular_height", "ricci_energy_rel",
                "entropy_rel", "aubin_I_rel", "aubin_J_rel",
                "decomposition_check", "na_scalar_curvature",
                "normalized_df", "component_twist_derivative", "na_calabi",
                "arakelov_calabi", "twist_by_base_divisor", "model_beta",
                "rescale_metric_const")]

LAYERS = ("heightvalue", "intersection", "functionals", "toric", "families",
          "geometry", "potentials", "energies", "quantize", "cli")


def _pair_terms(args) -> int:
    """Product of the slot sizes of a SymmetricForm.pair call."""
    terms = 1
    for combo in args[1:]:
        terms *= len(combo) if isinstance(combo, Mapping) else 1
    return terms


# extra counters fed from a call's positional arguments
COUNTERS = {"intersection.pair": ("intersection.pair.terms", _pair_terms)}


class Tracer:
    """In-memory span store plus per-name call counts and inclusive time.

    Inclusive time is kept per span name for outermost calls only, so a
    name that calls itself (directly or through another wrapped name of
    the same name) is not counted twice.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Drop every recorded span and count; patches stay installed."""
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        self._stack: list[int] = []

    # -- recording ------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        self.calls[name] = self.calls.get(name, 0) + 1
        self._depth[name] = self._depth.get(name, 0) + 1
        return sid

    def close(self, sid: int, name: str):
        t1 = perf_counter()
        self.end[sid] = t1
        self._stack.pop()
        depth = self._depth[name] = self._depth[name] - 1
        if depth == 0:
            self.inclusive[name] = (self.inclusive.get(name, 0.0)
                                    + t1 - self.start[sid])

    def add_span(self, name: str, start: float, end: float,
                 parent: int = -1) -> int:
        """Record a finished top-level span measured around other work."""
        sid = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive[name] = self.inclusive.get(name, 0.0) + end - start
        return sid

    def _wrap(self, fn, label):
        tracer = self
        counter = COUNTERS.get(label) if isinstance(label, str) else None

        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args)
            if counter is not None:
                key, count = counter
                tracer.counters[key] = (tracer.counters.get(key, 0)
                                        + count(args))
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid, name)

        return traced

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap every target wherever a heights module can look it up."""
        for modname, path, label in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._set(owner, attr,
                              staticmethod(self._wrap(raw.__func__, label)))
                else:
                    self._set(owner, attr, self._wrap(raw, label))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, label)
            for name, mod in list(sys.modules.items()):
                if name == "heights" or name.startswith("heights."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- export -----------------------------------------------------------

    def dump(self) -> dict:
        """Plain-data copy of the spans, for shipping between processes."""
        return {"names": self.names, "name": list(self.name),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent), "calls": self.calls,
                "counters": self.counters, "inclusive": self.inclusive}

    def merge(self, data: dict, parent: int):
        """Append spans dumped by a child process under span ``parent``.

        perf_counter reads the system-wide monotonic clock on Linux, so
        the child's times are comparable with the parent's.
        """
        offset = len(self.start)
        for i, idx in enumerate(data["name"]):
            p = data["parent"][i]
            self.name.append(self._intern(data["names"][idx]))
            self.parent.append(parent if p < 0 else p + offset)
            self.start.append(data["start"][i])
            self.end.append(data["end"][i])
        for mine, theirs in ((self.calls, data["calls"]),
                             (self.counters, data["counters"]),
                             (self.inclusive, data["inclusive"])):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer, and the summed duration of top-level spans.

        A span's self time is its duration minus the durations of its
        direct children (spans nest strictly in one thread).
        """
        child = [0.0] * len(self.start)
        top = 0.0
        for sid in range(len(self.start)):
            dur = self.end[sid] - self.start[sid]
            p = self.parent[sid]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        layers: dict[str, float] = {}
        for sid in range(len(self.start)):
            layer = self.names[self.name[sid]].split(".", 1)[0]
            layers[layer] = (layers.get(layer, 0.0) + self.end[sid]
                             - self.start[sid] - child[sid])
        return layers, top
