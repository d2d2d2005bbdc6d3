"""Spans around the package's public functions, wrapped at their module attributes.

Callers inside the package look a function up in its module's globals, which
is the module attribute itself, so a wrapper installed with ``setattr`` sees
those calls as well as calls from other modules.  Spans are kept in memory as
``[name, start, end, parent index or -1, op id]`` and written out when the run
ends.  The benchmark is single-threaded (``--workers 1``), so one stack of
open spans suffices.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time

# Public functions wrapped per layer, in the order the metrics are reported.
LAYERS = {
    "group": ("make_lambda_inf", "z_set", "boost_matrix", "rotation_matrix",
              "random_proper_orthochronous", "poincare_mul", "poincare_inverse",
              "alpha_z", "classify_orbit", "z_orbit", "eta_deviation"),
    "doublet": ("apply_translation", "apply_axial_rotation", "apply_axial_boost",
                "apply_u_lambda_inf", "apply_u_minus_i", "apply_axial", "axial_product",
                "check_covariance", "epsilon_components", "make_epsilon_eigenstate"),
    "qubit": ("iota", "isometry_matrix", "u_lambda_block", "sector_isometry",
              "expectation_equality", "u_lambda_conjugation_check", "entanglement_entropy"),
    "experiment": ("run_trials", "sweep_phase", "estimate_exx", "expected_correlation",
                   "sweep_csv_text", "write_sweep_csv", "run_manifest", "write_manifest"),
    "checks": ("group_checks", "rep_checks", "bell_checks", "ad_eta_table"),
    "cli": ("main",),
}

COMPLEX_BYTES = 16


def _count_tally(counters, args, kwargs, tally):
    counters["experiment.trials"] += tally.trials
    counters["experiment.kept"] += tally.kept


def _dense(n: int) -> int:
    """Bytes of one dense complex 2N x 2N matrix."""
    return (2 * n) ** 2 * COMPLEX_BYTES


def _count_iota(counters, args, kwargs, op):
    counters["qubit.dense_bytes_computed"] += _dense(op.sector_dim)


def _count_isometry(counters, args, kwargs, v):
    counters["qubit.dense_bytes_computed"] += _dense(v.shape[0] // 2)


def _count_conjugation(counters, args, kwargs, result):
    # the body builds the conjugated swap and the I x sigma_x target; V and the
    # block operator are counted at their own wrapped calls
    n = args[0] if args else kwargs["n"]
    counters["qubit.dense_bytes_computed"] += 2 * _dense(n)


def _count_state(counters, args, kwargs, state):
    counters["doublet.bytes_computed"] += 2 * state.grid.count * COMPLEX_BYTES


def _count_components(counters, args, kwargs, parts):
    counters["doublet.bytes_computed"] += sum(p.size for p in parts) * COMPLEX_BYTES


# Work counters derived from arguments and return values.  Composite doublet
# operations (apply_axial, check_covariance) are counted through the leaf
# operations they call.
OBSERVERS = {
    "experiment.run_trials": _count_tally,
    "qubit.iota": _count_iota,
    "qubit.isometry_matrix": _count_isometry,
    "qubit.u_lambda_conjugation_check": _count_conjugation,
    "doublet.apply_translation": _count_state,
    "doublet.apply_axial_rotation": _count_state,
    "doublet.apply_axial_boost": _count_state,
    "doublet.apply_u_lambda_inf": _count_state,
    "doublet.apply_u_minus_i": _count_state,
    "doublet.make_epsilon_eigenstate": _count_state,
    "doublet.epsilon_components": _count_components,
}


class Tracer:
    """Records a span for every call of the target functions while installed.

    ``targets`` is a list of ``(module, layer name, function names)``.
    ``observers`` maps ``"layer.function"`` to ``f(counters, args, kwargs,
    result)``, called after each successful call to update ``counters``.
    """

    def __init__(self, targets, observers=None, clock=time.perf_counter):
        self.targets = targets
        self.observers = observers or {}
        self.clock = clock
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        saved = []
        try:
            for module, layer, names in self.targets:
                for fn_name in names:
                    original = getattr(module, fn_name)
                    setattr(module, fn_name, self._wrap(f"{layer}.{fn_name}", original))
                    saved.append((module, fn_name, original))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)


@contextlib.contextmanager
def clocked(module, fn_name: str, sink: list, clock=time.perf_counter):
    """Append the duration of every call of ``module.fn_name`` to ``sink``."""
    original = getattr(module, fn_name)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - start)

    setattr(module, fn_name, timed)
    try:
        yield sink
    finally:
        setattr(module, fn_name, original)


def self_times(spans, lo: int = 0, hi: int | None = None) -> list[float]:
    """Duration of each span in ``spans[lo:hi]`` minus the time its children cover.

    Parent indices are absolute; every child of a span in the range must lie
    in the range too.
    """
    hi = len(spans) if hi is None else hi
    children = collections.defaultdict(list)
    for i in range(lo, hi):
        if spans[i][3] >= 0:
            children[spans[i][3]].append(i)
    out = []
    for i in range(lo, hi):
        start, end = spans[i][1], spans[i][2]
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            low, high = max(spans[c][1], reach), min(spans[c][2], end)
            if high > low:
                covered += high - low
                reach = high
        out.append(end - start - covered)
    return out


def layer_metrics(spans, lo: int = 0, hi: int | None = None, layers=LAYERS) -> dict:
    """``<layer>.<fn>.calls``/``.self_s`` and ``<layer>.calls``/``.self_s`` over a span range."""
    metrics: dict[str, float] = {}
    for layer, names in layers.items():
        for fn_name in names:
            metrics[f"{layer}.{fn_name}.calls"] = 0
            metrics[f"{layer}.{fn_name}.self_s"] = 0.0
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_s"] = 0.0
    hi = len(spans) if hi is None else hi
    for span, own in zip(spans[lo:hi], self_times(spans, lo, hi)):
        layer = span[0].split(".", 1)[0]
        metrics[f"{span[0]}.calls"] += 1
        metrics[f"{span[0]}.self_s"] += own
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.self_s"] += own
    return metrics
