"""Spans around the calls into each ptheta layer, kept in memory.

``Tracer.install`` replaces each traced function at every ``ptheta`` module
binding that refers to it (the defining module, the modules that imported
it, and the package namespace), so calls between layers and calls inside a
module both pass through the wrapper.  Nothing in ``src/`` changes, and
``uninstall`` puts the original objects back.

A span is (name, start, end, parent, arg); ``arg`` holds one number taken
from the call's arguments (the term count of a series kernel).  Self time is
a span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np


def _arg(i):
    return lambda args: float(args[i])


#: (module, function, argument probe).  Private names are traced where the
#: layer's work is not visible through a public one: routing, derivative
#: evaluation, the quartic decomposition and the double-zero solve stages.
TARGETS = (
    ("certified", "truncation_order", None),
    ("certified", "derivative_truncation", None),
    ("certified", "predicted_direct_err", None),
    ("certified", "theta_sum_real", _arg(4)),
    ("certified", "theta_sum", _arg(3)),
    ("certified", "theta_deriv_sum", _arg(3)),
    ("core", "theta_certified", None),
    ("core", "theta_derivative", None),
    ("core", "_theta_eval_dd", None),
    ("core", "_deriv_cv", None),
    ("core", "_decompose_dd", None),
    ("core", "decompose", None),
    ("core", "functional_equation_residual", None),
    ("core", "pde_residual", None),
    ("core", "mixed_identity_residuals", None),
    ("core", "phi", None),
    ("core", "theta_at_diagonal", None),
    ("tripleprod", "split_parts_dd", None),
    ("tripleprod", "jacobi_theta_star", None),
    ("tripleprod", "g_tail", None),
    ("tripleprod", "theta_via_triple_product", None),
    ("zeros", "real_zeros", None),
    ("zeros", "complex_zeros", None),
    ("zeros", "zero_count", None),
    ("zeros", "track_zeros", None),
    ("spectrum", "spectral_point_A", None),
    ("spectrum", "spectral_point_B", None),
    ("spectrum", "_collision_seed", None),
    ("spectrum", "_newton_2d", None),
    ("separation", "separating_line_A", None),
    ("separation", "left_separating_line_B", None),
    ("separation", "right_separating_line_B", None),
    ("claims", "run_all", None),
    ("claims", "check_identities", None),
    ("serialize", "to_json", None),
    ("serialize", "claim_dict", None),
    ("cli", "main", None),
    ("cli", "cmd_verify", None),
)

#: ddarith primitives as bound in tripleprod; counted, not spanned.
DD_PRIMITIVES = ("cdd_abs1", "cdd_add", "cdd_from", "cdd_hi", "cdd_inv", "cdd_mul",
                 "cdd_mul_dd", "dd_add", "dd_mul")


def _ptheta_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ptheta" or name.startswith("ptheta."))]


class _Patcher:
    """Replaces an object at every ptheta binding (or at those of the given
    modules) and restores it later."""

    def __init__(self):
        self._saved = []

    def replace(self, original, replacement, modules=None) -> None:
        for module in modules or _ptheta_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


class Tracer:
    """Records a span for each call of a traced function while enabled."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.arg = array("d")
        self._stack = [-1]
        self.enabled = False
        self._patcher = _Patcher()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span_name: str, fn, probe):
        nid = self._name_id(span_name)
        clock = time.perf_counter_ns
        stack, names, parent = self._stack, self.name, self.parent
        start, end, arg = self.start, self.end, self.arg
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            arg.append(probe(args) if probe else 0.0)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return wrapper

    def install(self) -> None:
        import ptheta.claims

        for module_name, fn_name, probe in TARGETS:
            module = sys.modules[f"ptheta.{module_name}"]
            original = getattr(module, fn_name)
            self._patcher.replace(original, self._wrap(f"{module_name}.{fn_name}", original, probe))
        # one span per named claim, around the registry's check callables
        registry = ptheta.claims._registry

        def traced_registry():
            return [(cid, self._wrap(f"claims.{cid}", fn, None)) for cid, fn in registry()]

        self._patcher.replace(registry, traced_registry)

    def uninstall(self) -> None:
        self._patcher.restore()

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def count(self, span_name: str) -> int:
        """Number of spans recorded under span_name."""
        nid = self._ids.get(span_name)
        return 0 if nid is None else self.name.tolist().count(nid)

    def arrays(self):
        """(names, name ids, parents, durations in ns, args), copied to numpy."""
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        return (self.names, np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32), duration, np.array(self.arg))

    def save(self, path) -> None:
        """Write every span to an .npz file."""
        names, name, parent, duration, arg = self.arrays()
        np.savez(path, names=np.array(names), name=name, parent=parent,
                 start_ns=np.array(self.start, dtype=np.int64), duration_ns=duration, arg=arg)


class DDCounter:
    """Counts calls from tripleprod into ddarith primitives, and the
    split_parts_dd calls they serve, with no spans and no clock reads."""

    def __init__(self):
        self.calls = 0
        self.splits = 0
        self._patcher = _Patcher()

    def install(self) -> None:
        import ptheta.tripleprod as tp

        for fn_name in DD_PRIMITIVES:
            original = getattr(tp, fn_name)
            self._patcher.replace(original, self._counting(original, "calls"), [tp])
        self._patcher.replace(tp.split_parts_dd, self._counting(tp.split_parts_dd, "splits"))

    def _counting(self, fn, counter: str):
        def counted(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)
        return counted

    def uninstall(self) -> None:
        self._patcher.restore()


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans

EVAL_ROOT_NAMES = ("core._theta_eval_dd", "core._deriv_cv")
ORDER_NAMES = ("certified.truncation_order", "certified.derivative_truncation")
KERNELS = (("real", "certified.theta_sum_real"), ("complex", "certified.theta_sum"),
           ("deriv", "certified.theta_deriv_sum"))
SPECTRAL_NAMES = ("spectrum.spectral_point_A", "spectrum.spectral_point_B")
LINE_NAMES = ("separation.separating_line_A", "separation.left_separating_line_B",
              "separation.right_separating_line_B")


def _nearest_ancestor(parent, mask):
    """Index of each span's nearest strict ancestor with mask set, else -1."""
    found = np.full(len(parent), -1, dtype=np.int64)
    idx = np.nonzero(parent >= 0)[0]
    anc = parent[idx].astype(np.int64)
    while len(idx):
        hit = mask[anc]
        found[idx[hit]] = anc[hit]
        idx, anc = idx[~hit], parent[anc[~hit]].astype(np.int64)
        keep = anc >= 0
        idx, anc = idx[keep], anc[keep]
    return found


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(tracer: Tracer, rounds: int, claim_ids, dd_calls: int, dd_splits: int) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from one traced phase of
    `rounds` whole rounds."""
    names, name, parent, dur, arg = tracer.arrays()
    n = len(name)
    ids = {s: i for i, s in enumerate(names)}
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
    self_t = dur - child
    layer_of = np.array([s.split(".", 1)[0] for s in names])[name]

    def is_(*span_names):
        wanted = [ids[s] for s in span_names if s in ids]
        return np.isin(name, wanted)

    def under(mask, of):
        """Spans in mask that have an ancestor in `of`."""
        return mask & (_nearest_ancestor(parent, of) >= 0)

    is_eval = is_(*EVAL_ROOT_NAMES)
    roots = is_eval & (_nearest_ancestor(parent, is_eval) < 0)
    values = roots & is_("core._theta_eval_dd")
    n_evals = int(roots.sum())

    # route of each value: the quartic decomposition or the split below it
    root_of = np.where(roots, np.arange(n), _nearest_ancestor(parent, roots))
    quartic = np.zeros(n, dtype=bool)
    split = np.zeros(n, dtype=bool)
    for flag, span in ((quartic, "core._decompose_dd"), (split, "tripleprod.split_parts_dd")):
        r = root_of[is_(span)]
        flag[r[r >= 0]] = True
    route_quartic = int((values & quartic).sum())
    route_split = int((values & split & ~quartic).sum())

    m = {}
    orders = is_(*ORDER_NAMES)
    m["certified.order_per_eval"] = (_ratio(orders.sum(), n_evals), "ratio")
    m["certified.order_us"] = (_ratio(dur[orders].sum(), orders.sum()) / 1e3, "us")
    terms = 0.0
    for label, span in KERNELS:
        k = is_(span)
        terms += arg[k].sum()
        m[f"certified.{label}_ns_per_term"] = (_ratio(dur[k].sum(), arg[k].sum()), "ns")
    m["certified.terms"] = (terms / rounds, "count")

    m["core.evals"] = (int(values.sum()) / rounds, "count")
    m["core.derivs"] = ((n_evals - int(values.sum())) / rounds, "count")
    m["core.self_us"] = (_ratio(self_t[layer_of == "core"].sum(), n_evals) / 1e3, "us")
    m["core.route_direct"] = ((int(values.sum()) - route_quartic - route_split) / rounds, "count")
    m["core.route_split"] = (route_split / rounds, "count")
    m["core.route_quartic"] = (route_quartic / rounds, "count")

    splits = is_("tripleprod.split_parts_dd")
    m["tripleprod.split_calls"] = (int(splits.sum()) / rounds, "count")
    m["tripleprod.split_ms"] = (_ratio(dur[splits].sum(), splits.sum()) / 1e6, "ms")
    m["tripleprod.split_s"] = (dur[splits].sum() / 1e9 / rounds, "s")
    m["ddarith.calls_per_split"] = (_ratio(dd_calls, dd_splits), "count")

    scans, disks = is_("zeros.real_zeros"), is_("zeros.complex_zeros")
    winding, tracks = is_("zeros.zero_count"), is_("zeros.track_zeros")
    m["zeros.evals_per_scan"] = (_ratio(under(roots, scans).sum(), scans.sum()), "count")
    m["zeros.scan_self_ms"] = (_ratio(self_t[scans].sum(), scans.sum()) / 1e6, "ms")
    m["zeros.complex_self_ms"] = (_ratio(self_t[disks].sum(), disks.sum()) / 1e6, "ms")
    nearest_zc = _nearest_ancestor(parent, disks | winding)
    polish = roots & (nearest_zc >= 0) & disks[np.maximum(nearest_zc, 0)]
    m["zeros.polish_evals"] = (_ratio(polish.sum(), disks.sum()), "count")
    m["zeros.winding_ms"] = (_ratio(dur[winding].sum(), winding.sum()) / 1e6, "ms")
    m["zeros.winding_evals"] = (_ratio(under(roots, winding).sum(), winding.sum()), "count")
    m["zeros.track_ms"] = (_ratio(dur[tracks].sum(), tracks.sum()) / 1e6, "ms")
    m["zeros.track_evals"] = (_ratio(under(roots, tracks).sum(), tracks.sum()), "count")

    spectral, newton = is_(*SPECTRAL_NAMES), is_("spectrum._newton_2d")
    points = int(newton.sum())
    seeding = under(scans, spectral) | is_("spectrum._collision_seed")
    m["spectrum.seed_s"] = (_ratio(dur[seeding].sum(), points) / 1e9, "s")
    m["spectrum.newton_s"] = (_ratio(dur[newton].sum(), points) / 1e9, "s")
    m["spectrum.evals_per_point"] = (_ratio(under(roots, spectral).sum(), points), "count")

    lines = is_(*LINE_NAMES)
    m["separation.self_ms"] = (_ratio(self_t[layer_of == "separation"].sum(), lines.sum()) / 1e6, "ms")
    m["separation.evals_per_line"] = (_ratio(under(roots, lines).sum(), lines.sum()), "count")

    for cid in claim_ids:
        m[f"claims.{cid}.s"] = (dur[is_(f"claims.{cid}")].sum() / 1e9 / rounds, "s")
    m["claims.identity-suite.s"] = (dur[is_("claims.check_identities")].sum() / 1e9 / rounds, "s")
    m["claims.evals"] = (under(roots, is_("claims.run_all")).sum() / rounds, "count")
    m["serialize.ms"] = (self_t[layer_of == "serialize"].sum() / 1e6 / rounds, "ms")
    m["cli.self_ms"] = (self_t[layer_of == "cli"].sum() / 1e6 / rounds, "ms")
    return {k: (float(v), u) for k, (v, u) in m.items()}
