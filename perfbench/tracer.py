"""Spans around the calls into each layer of ``jacobiflow``, recorded from outside.

:class:`Tracer` wraps the public functions listed in :data:`TARGETS`.  A
function is patched in every loaded ``jacobiflow`` module that holds it, not
only where it is defined (``engine`` imports ``flows._integrate``, ``cli``
imports ``flow_plane``, ``maslov_index`` and ``epsilon_family_oracle``);
a method is patched on its class.  Spans stay in memory as parallel lists
(name, start, end, parent, op, raised) until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import sys
from time import perf_counter

#: (layer, module, attribute) of every wrapped function; the span name is
#: the module path below ``jacobiflow`` followed by the attribute.
TARGETS = (
    ("L1", "singular.frame", "NormalFormCoefficients.system"),
    ("L1", "engine", "PiecewiseAnalytic.x"),
    ("L2", "flows", "_integrate"),
    ("L2", "flows", "flow_plane"),
    ("L2", "singular.jump", "epsilon_family_oracle"),
    ("L2", "singular.firstjet", "first_jet_continuation"),
    ("L2", "engine", "singular_jacobi_curve"),
    ("L3", "grassmann", "canonicalize"),
    ("L3", "grassmann", "validate_lagrangian"),
    ("L3", "grassmann", "to_chart"),
    ("L3", "grassmann", "transversality_margin"),
    ("L3", "grassmann", "plane_distance"),
    ("L3", "grassmann", "extend_by_isotropic"),
    ("L3", "grassmann", "intersection_dimension"),
    ("L4", "singular.frame", "build_normal_frame"),
    ("L4", "singular.firstjet", "blowup_series"),
    ("L4", "singular.classify", "classify_frame"),
    ("L4", "engine", "legendre_sequence"),
    ("L5", "maslov", "maslov_index"),
    ("L5", "maslov", "maslov_partial_sums"),
    ("L6", "cli", "parse_scenario"),
    ("L6", "cli", "run"),
    ("L6", "cli", "emit"),
)
LAYERS = ("L1", "L2", "L3", "L4", "L5", "L6")
#: name of the span the benchmark opens around each op
OP = "op"
NO_PARENT = -1


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    the part of its interval they cover is the sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            own[p] -= end[i] - start[i]
    return own


class Tracer:
    """Patches the targets on :meth:`install` and records one span per call."""

    def __init__(self) -> None:
        self.names = [OP] + [f"{mod}.{attr}" for _, mod, attr in TARGETS]
        self.layer = {f"{mod}.{attr}": layer for layer, mod, attr in TARGETS}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.raised: list[bool] = []
        self._stack = [NO_PARENT]
        self._op = NO_PARENT
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: int) -> int:
        sid = len(self.start)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.raised.append(False)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def call_op(self, op_index: int, fn, *args):
        """Run ``fn(*args)`` as op ``op_index`` inside a root span."""
        self._op = op_index
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self._op = NO_PARENT

    def _wrap(self, fn, name: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[sid] = True
                raise
            finally:
                self._close(sid)

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "jacobiflow" or key.startswith("jacobiflow.")]
        for idx, (_, mod, attr) in enumerate(TARGETS, start=1):
            owner = sys.modules[f"jacobiflow.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(cls.__dict__[meth], idx))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, idx)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as ``name,start,end,parent,op,raised`` (gzip csv)."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("name,start,end,parent,op,raised\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]},{int(self.raised[i])}\n")


def summarize(t: Tracer) -> dict:
    """Per-function, per-layer and per-op figures over every recorded span.

    A function's inclusive time ``s`` counts only its outermost spans, so a
    function reached again below itself is not counted twice.
    """
    own = self_times(t.start, t.end, t.parent)
    count = len(t.names)
    calls, errors = [0] * count, [0] * count
    incl, self_s = [0.0] * count, [0.0] * count
    integrate = t.names.index("flows._integrate")
    margin = t.names.index("grassmann.transversality_margin")
    maslov = {t.names.index("maslov.maslov_index"), t.names.index("maslov.maslov_partial_sums")}
    l1 = {i for i, name in enumerate(t.names) if t.layer.get(name) == "L1"}
    rhs_in_integrate = margins_in_maslov = 0
    per_op: dict[int, dict[str, float]] = {}
    for i, k in enumerate(t.name):
        calls[k] += 1
        errors[k] += t.raised[i]
        self_s[k] += own[i]
        row = per_op.setdefault(t.op[i], {**dict.fromkeys(LAYERS + ("untraced", "wall"), 0.0),
                                          "calls": {}})
        row["calls"][t.names[k]] = row["calls"].get(t.names[k], 0) + 1
        if k == 0:
            row["untraced"] += own[i]
            row["wall"] += t.end[i] - t.start[i]
        else:
            row[t.layer[t.names[k]]] += own[i]
        outer = True
        in_integrate = in_maslov = False
        a = t.parent[i]
        while a != NO_PARENT:
            outer &= t.name[a] != k
            in_integrate |= t.name[a] == integrate
            in_maslov |= t.name[a] in maslov
            a = t.parent[a]
        if outer:
            incl[k] += t.end[i] - t.start[i]
        rhs_in_integrate += k in l1 and in_integrate
        margins_in_maslov += k == margin and in_maslov
    functions = {
        name: {"calls": calls[k], "s": incl[k], "self_s": self_s[k], "errors": errors[k]}
        for k, name in enumerate(t.names)
    }
    layers = {layer: sum(row[layer] for row in per_op.values()) for layer in LAYERS}
    return {
        "functions": functions,
        "layers": layers,
        "per_op": per_op,
        "rhs_per_integrate": rhs_in_integrate / max(1, calls[integrate]),
        "margins_per_arc": margins_in_maslov / max(1, functions["maslov.maslov_index"]["calls"]),
    }
