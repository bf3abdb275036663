"""Span tracing for the traced benchmark run.

Spans are recorded from the benchmark's side: ``Tracer.install`` replaces
the public functions listed in ``TRACED`` with timing wrappers in every
loaded ``vdplin`` module namespace, so calls between modules (``cli`` calling
``odesolve.integrate_linear`` through its own import of the name) are seen
too.  Nothing inside the package is edited.

A span is one call: operation id, span id, parent span id, name, start, end,
the time covered by its direct children, and whether it is the outermost
open span of that name.  Spans stay in memory and are written once, when
the run ends.

Compiled expressions returned by ``lambdify`` are called tens of thousands
of times per operation by the scalar RK4 callbacks, so they get no span per
call: their time and call count are summed per operation instead
(``expr.eval_s``).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
from pathlib import Path
from time import perf_counter

TRACED = {
    "expr": ("parse", "diff", "simplify", "subst", "lambdify", "to_str"),
    "wcalc": ("reduce_vdp", "reduce_lienard"),
    "colehopf": ("solve_chain", "seeded_construction", "verify_annihilation",
                 "verify_printed_coeffs", "compare_forms", "bundle_to_dict",
                 "bundle_to_json", "bundle_from_json"),
    "catalog": ("p_general", "case1", "case2", "case3"),
    "lienard": ("lienard_coeffs", "riccati_u"),
    "odesolve": ("integrate_linear", "integrate_vdp", "cole_hopf_map",
                 "residual", "lienard_residual", "compare", "trajectory_csv"),
    "cli": ("run",),
}

SPAN_FIELDS = ("op", "id", "parent", "name", "start", "end", "children_s",
               "outer")

# per-layer time metric -> span name (outermost calls of that name, summed
# per operation)
LAYER_TIMES = {
    "odesolve.integrate_rk4_s": "odesolve.integrate_linear[rk4]",
    "odesolve.integrate_adaptive_s": "odesolve.integrate_linear[adaptive]",
    "odesolve.integrate_vdp_s": "odesolve.integrate_vdp",
    "odesolve.cole_hopf_map_s": "odesolve.cole_hopf_map",
    "odesolve.residual_s": ("odesolve.residual", "odesolve.lienard_residual"),
    "odesolve.compare_s": "odesolve.compare",
    "odesolve.trajectory_csv_s": "odesolve.trajectory_csv",
    "catalog.p_general_s": "catalog.p_general",
    "colehopf.solve_chain_s": "colehopf.solve_chain",
    "colehopf.ledger_s": "colehopf.compare_forms",
    "colehopf.verify_annihilation_s": "colehopf.verify_annihilation",
    "colehopf.verify_annihilation_roundtrip_s":
        "colehopf.verify_annihilation[roundtrip]",
    "colehopf.bundle_to_json_s": "colehopf.bundle_to_json",
    "colehopf.bundle_from_json_s": "colehopf.bundle_from_json",
    "wcalc.reduce_vdp_s": "wcalc.reduce_vdp",
    "wcalc.reduce_lienard_s": "wcalc.reduce_lienard",
    "lienard.lienard_coeffs_s": "lienard.lienard_coeffs",
    "expr.parse_s": "expr.parse",
    "expr.simplify_s": "expr.simplify",
    "expr.diff_s": "expr.diff",
    "expr.lambdify_s": "expr.lambdify",
    "cli.run_s": "cli.run",
}


def _integrator_label(signature):
    def label(tracer, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        cfg = bound.arguments.get("cfg", signature.parameters["cfg"].default)
        return cfg.method
    return label


def _roundtrip_label(tracer, args, kwargs):
    return tracer.tag


class Tracer:
    """Records spans and per-operation counters in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._ids = itertools.count()
        self.op = None
        self.tag = None
        self.counts: dict[int, dict[str, float]] = {}
        self._eval_s = 0.0
        self._eval_calls = 0

    # -- operations ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._eval_s = 0.0
        self._eval_calls = 0

    def end_op(self) -> None:
        self.count("expr.eval_s", self._eval_s)
        self.count("expr.eval_calls", self._eval_calls)
        self.op = None

    def count(self, key: str, value: float) -> None:
        _accumulate(self.counts.setdefault(self.op, {}), key, value)

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else None
        outer = self._open.get(name, 0) == 0
        self._open[name] = self._open.get(name, 0) + 1
        rec = [self.op, next(self._ids), parent, name, perf_counter(), None,
               0.0, outer]
        self._stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self._stack.pop()
        self._open[rec[3]] -= 1
        if self._stack:
            self._stack[-1][6] += rec[5] - rec[4]
        self.spans.append(rec)

    def add_span(self, name: str, start: float, end: float) -> None:
        """A span timed elsewhere (an interpreter import)."""
        self.spans.append([self.op, next(self._ids), None, name, start, end,
                           0.0, True])

    # -- installing wrappers -----------------------------------------------

    def _timed_eval(self, fn):
        def timed(x):
            t = perf_counter()
            try:
                return fn(x)
            finally:
                self._eval_s += perf_counter() - t
                self._eval_calls += 1
        return timed

    def _wrap(self, name, fn, label=None, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name if label is None else _qualify(name, label(tracer, args, kwargs))
            rec = tracer.open(full)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if observe is not None:
                out = observe(tracer, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions in every loaded vdplin module."""
        import vdplin.cli  # noqa: F401  (loads every traced module)
        mods = {name: sys.modules[f"vdplin.{name}"] for name in TRACED}
        replace = {}
        for mod_name, funcs in TRACED.items():
            for fname in funcs:
                fn = getattr(mods[mod_name], fname)
                label = None
                if (mod_name, fname) == ("odesolve", "integrate_linear"):
                    label = _integrator_label(inspect.signature(fn))
                elif (mod_name, fname) == ("colehopf", "verify_annihilation"):
                    label = _roundtrip_label
                observe = _OBSERVERS.get((mod_name, fname))
                replace[id(fn)] = self._wrap(f"{mod_name}.{fname}", fn,
                                             label, observe)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "vdplin" or name.startswith("vdplin.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    def dump(self, path: Path, extra: dict | None = None) -> None:
        doc = {"fields": list(SPAN_FIELDS), "spans": self.spans,
               "counts": {str(k): v for k, v in self.counts.items()}}
        if extra:
            doc.update(extra)
        path.write_text(json.dumps(doc))

    def merge(self, doc: dict, op: int) -> None:
        """Fold spans and counters written by a traced child process."""
        offset = next(self._ids)
        for rec in doc["spans"]:
            new = list(rec)
            new[0] = op
            new[1] += offset
            if new[2] is not None:
                new[2] += offset
            self.spans.append(new)
        self._ids = itertools.count(offset + len(doc["spans"]) + 1)
        c = self.counts.setdefault(op, {})
        for counts in doc["counts"].values():
            for k, v in counts.items():
                _accumulate(c, k, v)


def _accumulate(counts: dict, key: str, value: float) -> None:
    """Counters named ``*_max`` keep their maximum; the others add up."""
    if key.endswith("_max"):
        counts[key] = max(counts.get(key, value), value)
    else:
        counts[key] = counts.get(key, 0) + value


def _qualify(name, label):
    return name if label is None else f"{name}[{label}]"


# -- counters taken from return values ---------------------------------------

def _observe_lambdify(tracer, fn):
    return tracer._timed_eval(fn)


def _observe_map(tracer, traj):
    tracer.count("odesolve.poles", len(traj.pole_brackets))
    widths = [float(b - a) for a, b in traj.pole_brackets]
    tracer.count("odesolve.bracket_width_max", max(widths, default=0.0))
    return traj


def _observe_residual(tracer, report):
    tracer.count("odesolve.skipped_segments", report.skipped_segments)
    tracer.count("odesolve.residual_max", float(report.max_abs))
    return report


_OBSERVERS = {
    ("expr", "lambdify"): _observe_lambdify,
    ("odesolve", "cole_hopf_map"): _observe_map,
    ("odesolve", "residual"): _observe_residual,
    ("odesolve", "lienard_residual"): _observe_residual,
}


# -- deriving per-layer metrics ----------------------------------------------

def layer_times(spans, ops) -> dict[str, float]:
    """Mean time per operation in each layer, over the operations ``ops``.

    A layer's time in one operation is the sum of its outermost spans, so a
    recursive call is not counted twice.  ``cli.other_s`` is the self time
    of ``cli.run``: its duration minus the time its direct child spans
    cover."""
    ops = set(ops)
    per_name: dict[str, float] = {}
    cli_self = 0.0
    for rec in spans:
        op, name, start, end, children, outer = (rec[0], rec[3], rec[4],
                                                 rec[5], rec[6], rec[7])
        if op not in ops or not outer:
            continue
        per_name[name] = per_name.get(name, 0.0) + (end - start)
        if name == "cli.run":
            cli_self += (end - start) - children
    n = max(len(ops), 1)
    out = {}
    for metric, names in LAYER_TIMES.items():
        names = (names,) if isinstance(names, str) else names
        out[metric] = sum(per_name.get(s, 0.0) for s in names) / n
    out["cli.other_s"] = cli_self / n
    return out


def first_cycle_counts(counts: dict, ops) -> dict[str, float]:
    """Counters summed over the operations ``ops`` (maxima for ``*_max``)."""
    out: dict[str, float] = {}
    for op in ops:
        for k, v in counts.get(op, {}).items():
            _accumulate(out, k, v)
    return out


def mean_counter(counts: dict, key: str, ops) -> float:
    ops = list(ops)
    return sum(counts.get(op, {}).get(key, 0.0) for op in ops) / max(len(ops), 1)


# -- import-time breakdown -----------------------------------------------------

def parse_importtime(stderr: str) -> list[tuple[str, int, int, int]]:
    """Entries of ``-X importtime`` output as (name, depth, self_us, cum_us),
    in the order printed (children before their parent)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cum, raw = line.split("|", 2)
        self_us = int(head.split(":")[1])
        cum_us = int(cum)
        stripped = raw.lstrip(" ")
        depth = (len(raw) - len(stripped) - 1) // 2
        rows.append((stripped.strip(), depth, self_us, cum_us))
    return rows


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds spent importing scipy, numpy and vdplin's own modules.

    ``scipy_s`` and ``numpy_s`` sum the cumulative time of each maximal
    subtree rooted at a module of that package (a module whose importer is
    not of the same package), so numpy imported from inside scipy counts in
    both.  ``vdplin_self_s`` sums the self time of vdplin's modules."""
    rows = parse_importtime(stderr)
    # children are printed before their parent; a parent is the next row
    # with a smaller depth
    parents: list[int | None] = [None] * len(rows)
    pending: dict[int, list[int]] = {}
    for i, (_, depth, _, _) in enumerate(rows):
        for child in pending.pop(depth + 1, []):
            parents[child] = i
        pending.setdefault(depth, []).append(i)

    def pkg(name):
        return name.split(".", 1)[0]

    out = {"import.scipy_s": 0.0, "import.numpy_s": 0.0,
           "import.vdplin_self_s": 0.0}
    for i, (name, _, self_us, cum_us) in enumerate(rows):
        p = parents[i]
        root = p is None or pkg(rows[p][0]) != pkg(name)
        if pkg(name) in ("scipy", "numpy") and root:
            out[f"import.{pkg(name)}_s"] += cum_us / 1e6
        if pkg(name) == "vdplin":
            out["import.vdplin_self_s"] += self_us / 1e6
    return out
