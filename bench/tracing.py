"""Per-layer tracing for the benchmark's traced runs.

The tracer replaces module-level bindings through which gyrotrack's
layers call each other with timing wrappers, and puts the originals back
afterwards.  Nothing under ``src/`` is modified.

Two kinds of wrapper exist:

* spans, for layer entries made a few times per operation
  (``cmd_simulate``, ``load_config``, ``run_closed_loop``, ``integrate``,
  ``cmd_plot``, ``write_svg``): one record each, with start, end, parent
  and self time;
* hot counters, for calls made many times per integrator step (the
  vector field, ``step_lie``, ``expm``, ``cross3``, ``rotor_accels``,
  ``_loop_kernel``): a call count, summed time and summed child time per
  name, so a 30 s run's million ``cross3`` calls cost no memory.

Self time is a frame's duration minus the time of the traced frames it
called.  Calls made while a ``step_lie`` is active are also counted
separately, which gives exact calls-per-step ratios.
"""

import time

# (module, attribute, traced name) of every binding wrapped in a span
SPAN_BINDINGS = (
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_plot", "cli.plot"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "run_closed_loop", "scenario.run_closed_loop"),
    ("scenario", "run_closed_loop", "scenario.run_closed_loop"),
    ("cli", "write_svg", "svgplot.write_svg"),
)

# (module, attribute, traced name) of every binding given a hot counter.
# integrate and step_lie are wrapped on their own: integrate also counts
# divergences and history sizes, step_lie also wraps the vector field.
HOT_BINDINGS = (
    ("integrators", "expm", "so3.expm"),
    ("integrators", "cross3", "so3.cross3"),
    ("scenario", "cross3", "so3.cross3"),
    ("dynamics", "cross3", "so3.cross3"),
    ("control", "cross3", "so3.cross3"),
    ("scenario", "rotor_accels", "dynamics.rotor_accels"),
    ("scenario", "_loop_kernel", "control.loop_kernel"),
)

FIELD = "scenario.field"
STEP = "integrators.step_lie"


class Tracer:
    """Spans and hot-call counters for one traced pass.

    ``install`` patches the bindings of the given modules (a dict from
    short module name to module object); ``uninstall`` restores them.
    Bindings that do not exist are skipped and listed in ``missing``.
    """

    def __init__(self, diverged_error):
        self.spans = []
        # name -> [calls, total_s, child_s, calls made inside a step]
        self.hot = {}
        self.diverged = 0
        self.history_bytes = []
        self.missing = []
        self._diverged_error = diverged_error
        self._child = [0.0]      # child-time accumulator per open frame
        self._open = [None]      # ids of open spans; None is the root
        self._in_step = 0
        self._patches = []
        self._origin = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, child, opened = self.spans, self._child, self._open
        clock, origin = time.perf_counter, self._origin

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = opened[-1]
            opened.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                kids = child.pop()
                opened.pop()
                child[-1] += t1 - t0
                spans[sid] = {"id": sid, "name": name, "parent": parent,
                              "start": t0 - origin, "end": t1 - origin,
                              "self": (t1 - t0) - kids}
        return wrapper

    def _hot(self, name, fn):
        stats = self.hot.setdefault(name, [0, 0.0, 0.0, 0])
        child, clock = self._child, time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                kids = child.pop()
                child[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += kids
                if self._in_step:
                    stats[3] += 1
        return wrapper

    def _step(self, fn):
        stats = self.hot.setdefault(STEP, [0, 0.0, 0.0, 0])
        child, clock = self._child, time.perf_counter
        wrapped_field = [None, None]   # (original field, its wrapper)

        def wrapper(vector_field, *args, **kwargs):
            if wrapped_field[0] is not vector_field:
                wrapped_field[:] = [vector_field,
                                    self._hot(FIELD, vector_field)]
            child.append(0.0)
            self._in_step += 1
            t0 = clock()
            try:
                return fn(wrapped_field[1], *args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_step -= 1
                kids = child.pop()
                child[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += kids
        return wrapper

    def _integrate(self, fn):
        span = self._span("integrators.integrate", fn)

        def wrapper(*args, **kwargs):
            try:
                hist = span(*args, **kwargs)
            except self._diverged_error:
                self.diverged += 1
                raise
            self.history_bytes.append(
                hist.times.nbytes + hist.vectors.nbytes
                + sum(r.nbytes for r in hist.rotations))
            return hist
        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, module, attr, make):
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self, modules):
        for mod, attr, name in SPAN_BINDINGS:
            self._patch(modules[mod], attr,
                        lambda fn, name=name: self._span(name, fn))
        for mod, attr, name in HOT_BINDINGS:
            self._patch(modules[mod], attr,
                        lambda fn, name=name: self._hot(name, fn))
        self._patch(modules["scenario"], "integrate", self._integrate)
        self._patch(modules["integrators"], "step_lie", self._step)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def operation(self, name, fn, *args):
        """Run one benchmark operation as the root span of its layers."""
        return self._span(name, fn)(*args)

    # -- results ----------------------------------------------------------

    def counts(self):
        """Exact call counts, for comparing two traced passes."""
        span_calls = {}
        for span in self.spans:
            span_calls[span["name"]] = span_calls.get(span["name"], 0) + 1
        return {"hot": {name: (s[0], s[3]) for name, s in self.hot.items()},
                "spans": span_calls, "diverged": self.diverged}

    def record(self):
        """Everything the pass recorded, for the trace file."""
        return {"spans": self.spans,
                "hot": {name: {"calls": s[0], "total_s": s[1],
                               "child_s": s[2], "calls_in_step": s[3]}
                        for name, s in self.hot.items()},
                "diverged": self.diverged,
                "history_bytes": self.history_bytes,
                "missing_bindings": self.missing}


def merge(tracers):
    """Pool the hot counters and spans of several passes."""
    hot, spans, history, diverged = {}, [], [], 0
    for tr in tracers:
        for name, s in tr.hot.items():
            acc = hot.setdefault(name, [0, 0.0, 0.0, 0])
            for k in range(4):
                acc[k] += s[k]
        spans.extend(tr.spans)
        history.extend(tr.history_bytes)
        diverged += tr.diverged
    return hot, spans, history, diverged


def layer_metrics(tracers):
    """Per-layer metric values from the pooled traced passes.

    Per-call and per-step figures of a layer that was never called are 0.
    """
    hot, spans, history, diverged = merge(tracers)

    def stat(name):
        return hot.get(name, [0, 0.0, 0.0, 0])

    steps = stat(STEP)[0]

    def per_step(name):
        return stat(name)[3] / steps if steps else 0.0

    def us_per_call(name, self_only=False):
        calls, total, kids, _ = stat(name)
        if not calls:
            return 0.0
        return 1e6 * ((total - kids) if self_only else total) / calls

    def span_mean(name, key):
        vals = [(s["end"] - s["start"]) if key == "total" else s["self"]
                for s in spans if s["name"] == name]
        return sum(vals) / len(vals) if vals else 0.0

    return {
        "integrators.field_evals_per_step": per_step(FIELD),
        "integrators.step_lie.us_per_call": us_per_call(STEP),
        "integrators.step_lie.self_us": us_per_call(STEP, self_only=True),
        "integrators.diverged": float(diverged),
        "integrators.integrate.self_s": span_mean("integrators.integrate",
                                                  "self"),
        "integrators.history_mb": max(history, default=0) / 1e6,
        "so3.expm.calls_per_step": per_step("so3.expm"),
        "so3.expm.us_per_call": us_per_call("so3.expm"),
        "so3.cross3.calls_per_step": per_step("so3.cross3"),
        "so3.cross3.us_per_call": us_per_call("so3.cross3"),
        "dynamics.rotor_accels.calls_per_step":
            per_step("dynamics.rotor_accels"),
        "dynamics.rotor_accels.us_per_call":
            us_per_call("dynamics.rotor_accels"),
        "control.loop_kernel.calls_per_step": per_step("control.loop_kernel"),
        "control.loop_kernel.us_per_call": us_per_call("control.loop_kernel"),
        "scenario.field.self_us": us_per_call(FIELD, self_only=True),
        "scenario.run_closed_loop.self_s":
            span_mean("scenario.run_closed_loop", "self"),
        "config.load_config.s": span_mean("config.load_config", "total"),
        "cli.simulate.self_s": span_mean("cli.simulate", "self"),
        "cli.plot.self_s": span_mean("cli.plot", "self"),
        "svgplot.write_svg.s": span_mean("svgplot.write_svg", "total"),
    }
