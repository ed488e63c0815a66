"""Outside-in tracing of lfbloch: spans around calls into each module.

The program is not edited.  Each traced public function is replaced, in
every ``lfbloch`` namespace that holds a reference to it, by a wrapper
that records a span: (id, parent id, name, start, end, counts).  That
covers the three ways the program reaches its layers:

- names imported into another module (``integrate`` into ``verify`` and
  ``cli``, ``local_field_factor`` into ``config``, ``verify`` and ``cli``);
- module globals looked up at call time (the ``_vector_rhs`` closures
  call ``effective_rhs`` and ``microscopic_rhs`` as ``lfbloch.dynamics``
  globals);
- module attributes (``dynamics`` calls ``ode.solve``).

Spans stay in memory until :meth:`Tracer.write`.  Step and sample counts
are read from the ``OdeResult`` each ``ode.solve`` returns, never from
counting right-hand-side calls, so a batched integrator cannot fake
them.  A traced name that no longer exists is listed in ``missing`` and
its layer's metrics come out as ``None``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (layer group, module, public name)
TARGETS = (
    ("config", "lfbloch.config", "parse_scenario"),
    ("config", "lfbloch.config", "load_scenario"),
    ("config", "lfbloch.config", "load_sweep"),
    ("medium", "lfbloch.medium", "local_field_factor"),
    ("dynamics.integrate", "lfbloch.dynamics", "integrate"),
    ("dynamics.rhs", "lfbloch.dynamics", "effective_rhs"),
    ("dynamics.rhs", "lfbloch.dynamics", "microscopic_rhs"),
    ("ode", "lfbloch.ode", "solve"),
    ("verify.fit", "lfbloch.verify", "fit_decay"),
    ("verify.fit", "lfbloch.verify", "fit_frequency"),
    ("verify.eig", "lfbloch.verify", "slow_eigenvalue"),
    ("verify.eig", "lfbloch.verify", "coupled_mode_eigenvalues"),
    ("verify.other", "lfbloch.verify", "run_battery"),
    ("verify.other", "lfbloch.verify", "convergence_study"),
    ("verify.other", "lfbloch.verify", "weak_excitation_trajectory"),
    ("cli", "lfbloch.cli", "main"),
)
SOLVE = "lfbloch.ode.solve"
BATTERY = "lfbloch.verify.run_battery"
_GROUP = {f"{module}.{name}": group for group, module, name in TARGETS}


def patch(module: str, name: str, make_wrapper):
    """Replace ``module.name`` in every lfbloch namespace that holds it.

    Returns the undo list, or None when the name does not exist.
    """
    original = getattr(importlib.import_module(module), name, None)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "lfbloch":
            continue
        namespace = vars(mod)
        for key in [k for k, v in namespace.items() if v is original]:
            namespace[key] = wrapper
            undo.append((namespace, key, original))
    return undo


def unpatch(undo) -> None:
    for namespace, key, original in reversed(undo):
        namespace[key] = original


def ode_counts(result):
    """(accepted, rejected, rhs evaluations, samples) of an OdeResult."""
    try:
        return (int(np.sum(result.n_accepted)), int(np.sum(result.n_rejected)),
                int(np.sum(result.n_rhs)), int(np.size(result.t)))
    except AttributeError:
        return None


class RhsCounter:
    """The only probe in untraced runs: sums ``n_rhs`` over solves.

    Wraps ``ode.solve`` alone, so the untraced job runs the program's
    own call structure untouched apart from one call per solve.
    ``rhs_evals`` is None when ``ode.solve`` is gone or its result lacks
    the counters.
    """

    def __init__(self):
        self.rhs_evals = 0
        self._undo = []

    def install(self) -> None:
        def make(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts = ode_counts(result)
                if counts is None:
                    self.rhs_evals = None
                elif self.rhs_evals is not None:
                    self.rhs_evals += counts[2]
                return result
            return counted

        module, name = SOLVE.rsplit(".", 1)
        undo = patch(module, name, make)
        if undo is None:
            self.rhs_evals = None
        self._undo = undo or []

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []


class Tracer:
    """Records one span per call into each traced function."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._undo: list = []

    def install(self) -> None:
        spans, stack = self.spans, [0]
        next_id = itertools.count(1).__next__
        clock = time.perf_counter

        def make_for(qualname):
            count = qualname == SOLVE

            def make(fn):
                def traced(*args, **kwargs):
                    sid, parent = next_id(), stack[-1]
                    stack.append(sid)
                    result = None
                    t0 = clock()
                    try:
                        result = fn(*args, **kwargs)
                        return result
                    finally:
                        t1 = clock()
                        stack.pop()
                        spans.append((sid, parent, qualname, t0, t1,
                                      ode_counts(result) if count else None))
                return traced
            return make

        for _, module, name in TARGETS:
            undo = patch(module, name, make_for(f"{module}.{name}"))
            if undo is None:
                self.missing.append(f"{module}.{name}")
            else:
                self._undo += undo

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def write(self, path) -> None:
        """Write the spans (and the missing names) as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "ode_counts"],
                       "missing": self.missing, "spans": self.spans}, fh)


def layer_metrics(spans, missing, wall_s: float) -> dict:
    """Per-layer figures from a span list.

    A span's self time is its duration minus its children's durations;
    the self times of all spans partition the top-level spans, so their
    sum never exceeds the traced wall time.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, t0, t1, _ in spans:
        child_time[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    battery_s = 0.0
    steps = [0, 0, 0, 0]   # accepted, rejected, rhs, samples
    counts_ok = True
    for sid, _, name, t0, t1, counts in spans:
        group = _GROUP[name]
        calls[group] += 1
        self_s[group] += (t1 - t0) - child_time.get(sid, 0.0)
        if name == BATTERY:
            battery_s += t1 - t0
        if name == SOLVE:
            if counts is None:
                counts_ok = False
            else:
                steps = [a + b for a, b in zip(steps, counts)]
    gone = {_GROUP[name] for name in missing}

    def ok(*groups):
        return not gone.intersection(groups)

    def per(num, den, scale=1.0):
        return num / den * scale if den else None

    accepted, rejected, _, samples = steps
    attributed = sum(self_s.values())
    m = {}
    for group, prefix in (("config", "config."), ("medium", "medium."),
                          ("cli", "cli."),
                          ("dynamics.integrate", "dynamics.integrate_"),
                          ("dynamics.rhs", "dynamics.rhs_"),
                          ("verify.fit", "verify.fit_"),
                          ("verify.eig", "verify.eig_")):
        m[prefix + "calls"] = calls[group] if ok(group) else None
        m[prefix + "self_s"] = self_s[group] if ok(group) else None
    m["dynamics.rhs_us_per_call"] = per(self_s["dynamics.rhs"],
                                        calls["dynamics.rhs"], 1e6) \
        if ok("dynamics.rhs") else None
    solve_ok = ok("ode")
    count_ok = solve_ok and counts_ok
    m["ode.solve_calls"] = calls["ode"] if solve_ok else None
    m["ode.self_s"] = self_s["ode"] if solve_ok else None
    m["ode.self_us_per_step"] = per(self_s["ode"], accepted + rejected, 1e6) \
        if count_ok else None
    m["ode.steps_accepted"] = accepted if count_ok else None
    m["ode.steps_rejected"] = rejected if count_ok else None
    m["ode.accept_ratio"] = per(accepted, accepted + rejected) \
        if count_ok else None
    m["ode.samples_per_step"] = per(samples, accepted) if count_ok else None
    m["verify.other_self_s"] = self_s["verify.other"] \
        if ok("verify.other") else None
    m["verify.battery_s"] = battery_s if BATTERY not in missing else None
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - attributed
    m["trace.rhs_evals"] = steps[2] if count_ok else None
    return m
