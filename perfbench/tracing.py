"""Spans and counters recorded around the package's public functions.

Only the traced worker process calls :meth:`Tracer.install`; it swaps in
wrapper functions from outside the package, for every name binding of each
target, and :meth:`Tracer.uninstall` puts the originals back.  Spans carry the
operation id and the id of the enclosing span, stay in memory, and are written
out once the run ends.  Self time is a span's duration minus the durations of
its child spans (calls nest strictly, so the children never overlap).
Element operations and table lookups are counted, not spanned: there are
millions of them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# metric prefix -> (module, attribute path); each call becomes a span.
SPANS = {
    "groups.pairing_matrix": ("groups", "Group.pairing_matrix"),
    "groups.phase_matrix": ("groups", "Group.phase_matrix"),
    "groups.add_table": ("groups", "Group.add_table"),
    "distributions.joint_char_array": ("distributions", "joint_char_array"),
    "distributions.char_array": ("distributions", "Distribution.char_array"),
    "distributions.random": ("distributions", "Distribution.random"),
    "distributions.shift": ("distributions", "Distribution.shift"),
    "distributions.poisson": ("distributions", "Distribution.poisson"),
    "identify.verify_form_I": ("identify", "verify_form_I"),
    "identify.verify_form_II": ("identify", "verify_form_II"),
    "identify.recover_shift": ("identify", "recover_shift"),
    "identify.consistent_shifts": ("identify", "consistent_shifts"),
    "identify.poisson_closed_form_array": ("identify",
                                           "poisson_closed_form_array"),
    "endomorphisms.adjoint": ("endomorphisms", "Endo.adjoint"),
    "endomorphisms.index_map": ("endomorphisms", "Endo.index_map"),
    "endomorphisms.kernel": ("endomorphisms", "Endo.kernel"),
    "endomorphisms.image": ("endomorphisms", "Endo.image"),
    "endomorphisms.annihilator": ("endomorphisms", "annihilator"),
    "funceq.bernstein_check": ("funceq", "bernstein_check"),
    "funceq.character_defect": ("funceq", "character_defect"),
    "funceq.is_character": ("funceq", "is_character"),
    "funceq.locate_character": ("funceq", "locate_character"),
    "funceq.hermitian_defect": ("funceq", "FunctionTable.hermitian_defect"),
    "funceq.is_polynomial": ("funceq", "is_polynomial"),
    "funceq.shifted_sum_degrees": ("funceq", "shifted_sum_degrees"),
    "funceq.residual_defect": ("funceq", "ProductEquation.residual_defect"),
    "solenoid.synth_gaussian_instance": ("solenoid",
                                         "synth_gaussian_instance"),
    "solenoid.character_gaussian_values": ("solenoid",
                                           "character_gaussian_values"),
    "solenoid.fit_gaussian_ratio": ("solenoid", "fit_gaussian_ratio"),
    "solenoid.verify_gaussian_form_I": ("solenoid", "verify_gaussian_form_I"),
    "solenoid.verify_gaussian_form_II": ("solenoid",
                                         "verify_gaussian_form_II"),
    "cli.find_shift_coeffs": ("cli", "find_shift_coeffs"),
    "cli.run_shift_trial": ("cli", "run_shift_trial"),
    "cli.run_shift_adversarial": ("cli", "run_shift_adversarial"),
    "cli.run_gaussian_trial": ("cli", "run_gaussian_trial"),
    "cli.run_gaussian_adversarial": ("cli", "run_gaussian_adversarial"),
    "cli.run_invariant_suite": ("cli", "run_invariant_suite"),
    "cli.main": ("cli", "main"),
    "reporting.write_report": ("reporting", "write_report"),
}

# counter name -> targets whose calls it counts.
COUNTERS = {
    "groups.element_ops": [("groups", f"Group.{m}")
                           for m in ("add", "neg", "index", "_check")],
    "funceq.table_lookups": [("funceq", "FunctionTable.__getitem__"),
                             ("funceq", "FunctionTable.__contains__")],
    "endomorphisms.Endo": [("endomorphisms", "Endo.__init__")],
}

# Results whose array bytes are summed (computed from shape and dtype).
DENSE_TABLES = ("groups.pairing_matrix", "groups.phase_matrix",
                "groups.add_table")
JOINT = "distributions.joint_char_array"

# (name, unit, better) of every metric the traced run derives from spans and
# counters; the worker adds reporting.report_bytes from the captured reports.
SPAN_METRICS = [
    ("groups.pairing_matrix.total_s", "s", "lower"),
    ("groups.phase_matrix.total_s", "s", "lower"),
    ("groups.add_table.total_s", "s", "lower"),
    ("groups.dense_table_bytes", "bytes_computed", "lower"),
    ("groups.element_ops.calls", "count", "lower"),
    ("distributions.joint_char_array.calls", "count", "lower"),
    ("distributions.joint_char_array.total_s", "s", "lower"),
    ("distributions.joint_char_array.bytes", "bytes_computed", "lower"),
    ("distributions.char_array.total_s", "s", "lower"),
    ("distributions.random.total_s", "s", "lower"),
    ("distributions.random.accept_ratio", "ratio", "higher"),
    ("distributions.shift.total_s", "s", "lower"),
    ("distributions.poisson.total_s", "s", "lower"),
    ("identify.verify_form_I.self_s", "s", "lower"),
    ("identify.verify_form_II.self_s", "s", "lower"),
    ("identify.recover_shift.calls", "count", "lower"),
    ("identify.recover_shift.total_s", "s", "lower"),
    ("identify.consistent_shifts.total_s", "s", "lower"),
    ("identify.poisson_closed_form_array.total_s", "s", "lower"),
    ("endomorphisms.Endo.calls", "count", "lower"),
    ("endomorphisms.adjoint.calls", "count", "lower"),
    ("endomorphisms.adjoint.total_s", "s", "lower"),
    ("endomorphisms.index_map.total_s", "s", "lower"),
    ("endomorphisms.kernel.total_s", "s", "lower"),
    ("endomorphisms.image.total_s", "s", "lower"),
    ("endomorphisms.annihilator.total_s", "s", "lower"),
    ("funceq.bernstein_check.total_s", "s", "lower"),
    ("funceq.character_defect.total_s", "s", "lower"),
    ("funceq.is_character.total_s", "s", "lower"),
    ("funceq.locate_character.total_s", "s", "lower"),
    ("funceq.hermitian_defect.total_s", "s", "lower"),
    ("funceq.is_polynomial.total_s", "s", "lower"),
    ("funceq.shifted_sum_degrees.self_s", "s", "lower"),
    ("funceq.residual_defect.total_s", "s", "lower"),
    ("funceq.table_lookups.calls", "count", "lower"),
    ("solenoid.synth_gaussian_instance.total_s", "s", "lower"),
    ("solenoid.character_gaussian_values.total_s", "s", "lower"),
    ("solenoid.fit_gaussian_ratio.self_s", "s", "lower"),
    ("solenoid.verify_gaussian_form_I.self_s", "s", "lower"),
    ("solenoid.verify_gaussian_form_II.self_s", "s", "lower"),
    ("cli.find_shift_coeffs.total_s", "s", "lower"),
    ("cli.run_shift_trial.total_s", "s", "lower"),
    ("cli.run_shift_adversarial.total_s", "s", "lower"),
    ("cli.run_gaussian_trial.total_s", "s", "lower"),
    ("cli.run_gaussian_adversarial.total_s", "s", "lower"),
    ("cli.run_invariant_suite.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("reporting.write_report.total_s", "s", "lower"),
]

SPAN_FIELDS = ("op", "id", "parent", "name", "start_s", "end_s")


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.candidates = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, sized: bool):
        stack, spans = self._stack, self.spans
        nbytes = self.bytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end))
            if sized:
                nbytes[name] += result.nbytes
            return result
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _candidate_counter(self, fn):
        """Counts rejection-sampling candidates: nonvanishing tests made
        directly by Distribution.random."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == "distributions.random":
                self.candidates += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------------

    def _swap(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, module: str, path: str, make) -> None:
        mod = sys.modules[f"groupident.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, functools.cached_property):
                new = functools.cached_property(make(raw.func))
                new.__set_name__(cls, attr)
            elif isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._swap(cls, attr, new)
            return
        raw = getattr(mod, path)
        new = make(raw)
        # Rebind every module-level name that refers to the function, e.g.
        # identify.joint_char_array as well as distributions.joint_char_array.
        for name, m in list(sys.modules.items()):
            if name == "groupident" or name.startswith("groupident."):
                for attr, value in list(vars(m).items()):
                    if value is raw:
                        self._swap(m, attr, new)

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            sized = name in DENSE_TABLES or name == JOINT
            self._wrap(module, path,
                       lambda fn, n=name, s=sized: self._span(n, fn, s))
        for name, targets in COUNTERS.items():
            for module, path in targets:
                self._wrap(module, path,
                           lambda fn, n=name: self._counter(n, fn))
        self._wrap("distributions", "Distribution.nonvanishing",
                   self._candidate_counter)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every SPAN_METRICS value, from the spans and counters recorded."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int, self.counts)
        for _, sid, _, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - child[sid]
            calls[name] += 1
        randoms = calls["distributions.random"]
        special = {
            "groups.dense_table_bytes": sum(self.bytes[n]
                                            for n in DENSE_TABLES),
            f"{JOINT}.bytes": self.bytes[JOINT],
            "distributions.random.accept_ratio":
                randoms / self.candidates if self.candidates else 0.0,
        }
        out = {}
        for metric, _, _ in SPAN_METRICS:
            if metric in special:
                out[metric] = special[metric]
                continue
            prefix, stat = metric.rsplit(".", 1)
            source = {"total_s": total, "self_s": own, "calls": calls}[stat]
            out[metric] = source[prefix]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)
