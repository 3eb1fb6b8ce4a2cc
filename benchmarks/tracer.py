"""Spans around deolog's public functions, recorded from outside the program.

A wrapper is installed where the caller looks the function up: the engine
imports its helpers by name, so `solve_order_constraints` is wrapped as
`deolog.engine.solve_order_constraints`; a wrapper on `deolog.orders` alone
would see nothing. Spans are kept in memory and written out by `dump`.
Each span carries the id of the benchmark operation that caused it.
"""

from __future__ import annotations

import json
import time

# (module, attribute, span name). The layer of a span is the part of its name
# before the dot; "Class.method" attributes are patched on the class.
TARGETS = (
    ("syntax", "parse", "syntax.parse"),
    ("engine", "Sequent.parse", "syntax.parse"),
    ("syntax", "desugar", "syntax.desugar"),
    ("engine", "desugar", "syntax.desugar"),
    ("models", "Evaluator.denote", "models.denote"),
    ("models", "validate_model", "models.validate"),
    ("engine", "holds_at", "models.holds_at"),
    ("engine", "make_worlds", "models.make_worlds"),
    ("engine", "delta_minimal", "regimes.delta_minimal"),
    ("regimes", "delta_minimal", "regimes.delta_minimal"),
    ("engine", "p_nearest", "regimes.p_nearest"),
    ("engine", "forced_choice", "regimes.forced_choice"),
    ("engine", "enumerate_weight_orders", "regimes.enumerate_weight_orders"),
    ("engine", "solve_order_constraints", "orders.solve"),
    ("engine", "bruteforce_weak_orders", "orders.weak_orders"),
    ("engine", "find_countermodel_delta", "engine.ladder_rung"),
    ("engine", "admissible_weighted", "engine.weighting"),
    ("engine", "check", "engine.check"),
    ("engine", "check_forall_weights_invalidity", "engine.forall_weights"),
    ("engine", "satisfiable", "engine.satisfiable"),
    ("proofs", "check_derivation", "proofs.check_derivation"),
    ("documents", "loads_model", "documents.loads"),
    ("documents", "dumps_model", "documents.dumps"),
)

# the per-layer metrics, in report order: (name, unit)
METRICS = (
    ("syntax.parse_calls", "count"), ("syntax.parse_s", "s"),
    ("syntax.desugar_s", "s"),
    ("models.denote_calls", "count"), ("models.denote_s", "s"),
    ("models.validate_s", "s"),
    ("models.holds_at_calls", "count"), ("models.holds_at_s", "s"),
    ("regimes.delta_minimal_calls", "count"),
    ("regimes.delta_minimal_s", "s"),
    ("regimes.p_nearest_calls", "count"), ("regimes.p_nearest_s", "s"),
    ("regimes.forced_choice_calls", "count"),
    ("regimes.forced_choice_s", "s"),
    ("regimes.weightings", "count"),
    ("regimes.enumerate_weight_orders_s", "s"),
    ("orders.solve_calls", "count"), ("orders.solve_s", "s"),
    ("orders.solve_sat_ratio", "ratio"),
    ("orders.weak_orders", "count"), ("orders.weak_orders_s", "s"),
    ("engine.frames", "count"), ("engine.ladder_rungs", "count"),
    ("engine.budget_hits", "count"), ("engine.weightings_tried", "count"),
    ("engine.check_s", "s"), ("engine.forall_weights_s", "s"),
    ("engine.satisfiable_s", "s"), ("engine.self_s", "s"),
    ("proofs.check_derivation_s", "s"), ("proofs.steps", "count"),
    ("documents.loads_s", "s"), ("documents.dumps_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# work counters that must repeat exactly for a given seed
WORK_COUNTERS = ("orders.solve_calls", "orders.weak_orders", "engine.frames",
                 "engine.ladder_rungs", "engine.weightings_tried",
                 "regimes.weightings", "models.denote_calls")


class Tracer:
    """Records spans while installed and active. Not thread-safe: the
    benchmark drives deolog from one thread."""

    def __init__(self, modules):
        self.modules = modules          # short name -> imported module
        self.active = False
        self.op = None                  # id of the operation being run
        self.spans = []                 # (id, parent, name, op, start, end)
        self.calls = {}                 # span name -> counted calls
        self.inclusive = {}             # span name -> seconds
        self.exclusive = {}             # layer -> seconds not in child spans
        self.extra = {"regimes.weightings": 0, "orders.solve_sat": 0,
                      "engine.budget_hits": 0, "proofs.steps": 0}
        self._stack = []                # [span id, start, child seconds]
        self._next_id = 0
        self._denote_depth = 0
        self._budget_error = None
        self._saved = []

    # --- spans -------------------------------------------------------------

    def _enter(self):
        span = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(span)
        return span

    def _exit(self, span, name, counted=True):
        end = time.perf_counter()
        self._stack.pop()
        sid, start, child = span
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        layer = name.split(".", 1)[0]
        self.exclusive[layer] = self.exclusive.get(layer, 0.0) + \
            duration - child
        self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        if counted:
            self.calls[name] = self.calls.get(name, 0) + 1
        self.spans.append((sid, parent[0] if parent else None, name,
                           self.op, start, end))

    def _note_exception(self, exc):
        if isinstance(exc, self._budget_error):
            # one exception crosses several spans; count it once
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                self.extra["engine.budget_hits"] += 1

    def _wrap(self, func, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span = tracer._enter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                tracer._note_exception(exc)
                raise
            finally:
                tracer._exit(span, name)
            tracer._observe(name, args, result)
            return result
        return traced

    def _wrap_denote(self, func, name):
        tracer = self

        def traced(evaluator, f):
            # only the outermost denote is a span; denote recurses through
            # holds_at for every preference operand
            if not tracer.active or tracer._denote_depth:
                return func(evaluator, f)
            tracer._denote_depth += 1
            span = tracer._enter()
            try:
                return func(evaluator, f)
            finally:
                tracer._exit(span, name)
                tracer._denote_depth -= 1
        return traced

    def _wrap_generator(self, func, name):
        tracer = self

        def traced(*args, **kwargs):
            items = func(*args, **kwargs)
            if not tracer.active:
                yield from items
                return
            # one span per item: the time spent producing it
            while True:
                span = tracer._enter()
                try:
                    item = next(items)
                except StopIteration:
                    tracer._exit(span, name, counted=False)
                    return
                except Exception:
                    tracer._exit(span, name, counted=False)
                    raise
                tracer._exit(span, name)
                yield item
        return traced

    def _observe(self, name, args, result):
        if name == "regimes.enumerate_weight_orders":
            self.extra["regimes.weightings"] += len(result)
        elif name == "orders.solve" and result is not None:
            self.extra["orders.solve_sat"] += 1
        elif name == "proofs.check_derivation":
            self.extra["proofs.steps"] += (len(args[0]) if result.ok
                                           else result.step)

    # --- installation --------------------------------------------------------

    def install(self):
        self._budget_error = self.modules["engine"].BudgetExceeded
        for module_name, attribute, name in TARGETS:
            owner = self.modules[module_name]
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            elif name == "models.denote":
                wrapped = self._wrap_denote(original, name)
            elif name == "orders.weak_orders":
                wrapped = self._wrap_generator(original, name)
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, attribute, wrapped)

    def uninstall(self):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    # --- results -------------------------------------------------------------

    def metrics(self, untraced_s, traced_s):
        calls, incl = self.calls, self.inclusive
        solve_calls = calls.get("orders.solve", 0)
        values = {
            "syntax.parse_calls": calls.get("syntax.parse", 0),
            "syntax.parse_s": incl.get("syntax.parse", 0.0),
            "syntax.desugar_s": incl.get("syntax.desugar", 0.0),
            "models.denote_calls": calls.get("models.denote", 0),
            "models.denote_s": incl.get("models.denote", 0.0),
            "models.validate_s": incl.get("models.validate", 0.0),
            "models.holds_at_calls": calls.get("models.holds_at", 0),
            "models.holds_at_s": incl.get("models.holds_at", 0.0),
            "regimes.delta_minimal_calls":
                calls.get("regimes.delta_minimal", 0),
            "regimes.delta_minimal_s": incl.get("regimes.delta_minimal", 0.0),
            "regimes.p_nearest_calls": calls.get("regimes.p_nearest", 0),
            "regimes.p_nearest_s": incl.get("regimes.p_nearest", 0.0),
            "regimes.forced_choice_calls":
                calls.get("regimes.forced_choice", 0),
            "regimes.forced_choice_s": incl.get("regimes.forced_choice", 0.0),
            "regimes.weightings": self.extra["regimes.weightings"],
            "regimes.enumerate_weight_orders_s":
                incl.get("regimes.enumerate_weight_orders", 0.0),
            "orders.solve_calls": solve_calls,
            "orders.solve_s": incl.get("orders.solve", 0.0),
            "orders.solve_sat_ratio":
                self.extra["orders.solve_sat"] / solve_calls
                if solve_calls else 0.0,
            "orders.weak_orders": calls.get("orders.weak_orders", 0),
            "orders.weak_orders_s": incl.get("orders.weak_orders", 0.0),
            "engine.frames": calls.get("models.make_worlds", 0),
            "engine.ladder_rungs": calls.get("engine.ladder_rung", 0),
            "engine.budget_hits": self.extra["engine.budget_hits"],
            "engine.weightings_tried": calls.get("engine.weighting", 0),
            "engine.check_s": incl.get("engine.check", 0.0),
            "engine.forall_weights_s": incl.get("engine.forall_weights", 0.0),
            "engine.satisfiable_s": incl.get("engine.satisfiable", 0.0),
            "engine.self_s": self.exclusive.get("engine", 0.0),
            "proofs.check_derivation_s":
                incl.get("proofs.check_derivation", 0.0),
            "proofs.steps": self.extra["proofs.steps"],
            "documents.loads_s": incl.get("documents.loads", 0.0),
            "documents.dumps_s": incl.get("documents.dumps", 0.0),
            "trace.overhead_ratio": traced_s / untraced_s,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS}

    def dump(self, path, header):
        """Write the spans as JSON lines after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, op, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, op,
                                     round(start, 9), round(end, 9)]) + "\n")
