"""Per-layer numbers for the traced run, from wrappers around the library.

The wrappers live here, not in the library: ``Tracer.installed`` replaces
every binding of each traced function in every loaded ``hilbert_tensors``
module (``cli`` and ``analysis`` import the solvers by name, ``infinite``
imports ``hankel_apply`` by name) and puts the originals back on exit.

Two kinds of record, both kept in memory and written once at the end:

* spans, one per call of a layer-boundary function: id, parent id, job (the
  request the span belongs to), name, start, end;
* leaf aggregates for the hot ``core`` calls (thousands per solve), one per
  (parent span, function): calls, busy seconds, busy seconds on the FFT
  branch, elements.

A layer's self time is its spans' durations minus the time covered by their
child spans and outermost leaf calls.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# the seed's direct/FFT switch on a * b (core._FFT_PRODUCT_THRESHOLD);
# fft_share is computed from argument sizes against it
FFT_PRODUCT_THRESHOLD = 1 << 22

# distinct hankel_apply shapes whose outputs are sampled for core.max_rel_err
MAX_SAMPLES = 32

# layer-boundary functions: (module, attribute, span name)
SPANS = (
    ("cli", "run", "cli.run"),
    ("analysis", "bound_sweep", "analysis.bound_sweep"),
    ("analysis", "monotonicity_sweep", "analysis.monotonicity_sweep"),
    ("analysis", "embedding_check", "analysis.embedding_check"),
    ("eigensolvers", "h_spectral_radius", "eigensolvers.h"),
    ("eigensolvers", "z_spectral_radius", "eigensolvers.z"),
    ("infinite", "norm_search", "infinite.norm_search"),
    ("infinite", "t_infinity", "infinite.t_infinity"),
    ("infinite", "f_infinity", "infinite.f_infinity"),
    ("infinite", "apply_infinite", "infinite.apply_infinite"),
    ("infinite", "operator_norm_constant", "infinite.operator_norm_constant"),
    ("reporting", "render", "reporting.render"),
)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _size(a) -> int:
    return len(a.values) if hasattr(a, "values") else len(a)


def _convolve_sizes(args, kwargs):
    a, b = _size(_arg(args, kwargs, 0, "a")), _size(_arg(args, kwargs, 1, "b"))
    return a + b - 1, a * b > FFT_PRODUCT_THRESHOLD


def _power_sizes(args, kwargs):
    n, k = _size(_arg(args, kwargs, 0, "x")), _arg(args, kwargs, 1, "k")
    return k * (n - 1) + 1, k > 1 and n * n * (k - 1) > FFT_PRODUCT_THRESHOLD


def _hankel_sizes(args, kwargs):
    n = _size(_arg(args, kwargs, 1, "x"))
    order = _arg(args, kwargs, 2, "order")
    out_len = _arg(args, kwargs, 3, "out_len") or n
    # generating-vector elements the correlation reads
    return out_len + (order - 1) * (n - 1), False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, job, name, start, end]
        self.child = defaultdict(float)  # span id -> seconds covered by children
        self.leaves: dict[tuple, list] = {}  # (parent, name) -> [calls, busy, fft_busy, elems]
        self.stack: list[int] = []
        self.depth = 0  # nesting of leaf calls
        self.job = None
        self.solves: list[tuple] = []  # (kind, m, n, iterations, converged)
        self.widths: list[float] = []  # certified enclosure widths
        self.out_elems = 0
        self.rows = 0
        self.exits: list[int] = []
        # first hankel_apply call per (order, len x, out_len): inputs and
        # sampled outputs, checked against long double after the run
        self.samples: dict[tuple, tuple] = {}
        self._patches: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            rec = [len(self.spans), parent, self.job, name, 0.0, 0.0]
            self.spans.append(rec)
            self.stack.append(rec[0])
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                rec[4], rec[5] = start, end
                if parent is not None:
                    self.child[parent] += end - start
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    def leaf(self, name, fn, sizes=None, on_result=None):
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            outer = self.depth == 0
            self.depth += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self.depth -= 1
                parent = self.stack[-1] if self.stack else None
                stat = self.leaves.setdefault((parent, name), [0, 0.0, 0.0, 0])
                elems, fft = sizes(args, kwargs) if sizes else (0, False)
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy if fft else 0.0
                stat[3] += elems
            if on_result is not None:
                on_result(args, kwargs, out)
            if outer and parent is not None:
                # the whole wrapper, bookkeeping included, is not the parent's own time
                self.child[parent] += time.perf_counter() - enter
            return out

        return wrapper

    @contextlib.contextmanager
    def job_span(self, name):
        """Root span of one job; the job name is the request id of its spans."""
        self.job = name
        rec = [len(self.spans), None, name, "bench.job", time.perf_counter(), 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        try:
            yield
        finally:
            self.stack.pop()
            rec[5] = time.perf_counter()
            self.job = None

    # -- result hooks ----------------------------------------------------------

    def _on_solve(self, args, kwargs, res):
        t = _arg(args, kwargs, 0, "t")
        self.solves.append((res.kind, t.order, t.dim, res.iterations, res.converged))

    def _on_cert(self, args, kwargs, cert):
        self.out_elems += cert.truncation
        self.widths.append(cert.upper - cert.value)

    def _on_render(self, args, kwargs, text):
        self.rows += len(_arg(args, kwargs, 0, "rows"))

    def _on_run(self, args, kwargs, status):
        self.exits.append(status)

    def _on_hankel(self, args, kwargs, out):
        x = _arg(args, kwargs, 1, "x")
        x = np.asarray(getattr(x, "values", x), dtype=float)
        order = _arg(args, kwargs, 2, "order")
        key = (order, x.size, out.size)
        if key in self.samples or len(self.samples) >= MAX_SAMPLES:
            return
        rng = np.random.default_rng(list(key))
        rows = np.unique(np.concatenate([[0, out.size - 1], rng.integers(0, out.size, 14)]))
        self.samples[key] = (x.copy(), order, rows, np.array(out[rows], dtype=float))

    # -- patching --------------------------------------------------------------

    def _replace(self, orig, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hilbert_tensors" or modname.startswith("hilbert_tensors.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, orig))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        import hilbert_tensors
        from hilbert_tensors import core

        hooks = {
            "eigensolvers.h": self._on_solve,
            "eigensolvers.z": self._on_solve,
            "infinite.t_infinity": self._on_cert,
            "infinite.f_infinity": self._on_cert,
            "reporting.render": self._on_render,
            "cli.run": self._on_run,
        }
        try:
            for modname, attr, name in SPANS:
                orig = getattr(importlib.import_module(f"hilbert_tensors.{modname}"), attr)
                self._replace(orig, self.span(name, orig, hooks.get(name)))
            for attr, sizes, hook in (
                ("hankel_apply", _hankel_sizes, self._on_hankel),
                ("convolution_power", _power_sizes, None),
                ("convolve", _convolve_sizes, None),
            ):
                orig = getattr(core, attr)
                self._replace(orig, self.leaf(f"core.{attr}", orig, sizes, hook))
            gen_cls = hilbert_tensors.GeneratingVector
            descriptor = gen_cls.__dict__["hilbert"]
            gen_cls.hilbert = classmethod(self.leaf("core.gen_vector", descriptor.__func__))
            self._patches.append((gen_cls, "hilbert", descriptor))
            # the method's own argument handling is core's time, not its caller's
            tensor_cls = hilbert_tensors.HilbertTensor
            method = tensor_cls.__dict__["apply_fast"]
            tensor_cls.apply_fast = self.leaf("core.apply_fast", method)
            self._patches.append((tensor_cls, "apply_fast", method))
            yield self
        finally:
            for obj, attr, orig in reversed(self._patches):
                setattr(obj, attr, orig)
            self._patches.clear()

    # -- results ---------------------------------------------------------------

    def write(self, path) -> None:
        """All records as JSON lines, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent, "job": job, "name": name,
                                     "start": start, "end": end}) + "\n")
            for (parent, name), (calls, busy, fft_busy, elems) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls, "busy_s": busy,
                                     "fft_busy_s": fft_busy, "elems": elems}) + "\n")

    def metrics(self, max_rel_err: float, overhead_frac: float, time_scale: float) -> dict[str, float]:
        """Per-layer values; times are multiplied by ``time_scale`` (nominal / raw speed)."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _parent, _job, name, start, end in self.spans:
            busy[name] += (end - start) * time_scale
            calls[name] += 1
            self_s[name.split(".")[0]] += (end - start - self.child[sid]) * time_scale
        leaf = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for (_parent, name), (n_calls, busy_s, fft_s, elems) in self.leaves.items():
            acc = leaf[name]
            acc[0] += n_calls
            acc[1] += busy_s * time_scale
            acc[2] += fft_s * time_scale
            acc[3] += elems

        def ratio(a, b):
            return a / b if b else 0.0

        hankel = leaf["core.hankel_apply"]
        conv_busy = leaf["core.convolve"][1] + leaf["core.convolution_power"][1]
        conv_fft = leaf["core.convolve"][2] + leaf["core.convolution_power"][2]
        gen = leaf["core.gen_vector"]
        h = [s for s in self.solves if s[0] == "H"]
        z = [s for s in self.solves if s[0] == "Z"]
        evals = calls["infinite.t_infinity"] + calls["infinite.f_infinity"]
        eval_busy = busy["infinite.t_infinity"] + busy["infinite.f_infinity"]
        values = {
            "core.hankel_apply.calls": hankel[0],
            "core.hankel_apply.busy_s": hankel[1],
            "core.hankel_apply.ns_per_elem": ratio(hankel[1] * 1e9, hankel[3]),
            "core.convolution_power.busy_s": leaf["core.convolution_power"][1],
            "core.convolve.busy_s": leaf["core.convolve"][1],
            "core.fft_share": ratio(conv_fft, conv_busy),
            "core.gen_vector.builds": gen[0],
            "core.gen_vector.busy_s": gen[1],
            "core.gen_vector.builds_per_apply": ratio(gen[0], hankel[0]),
            "core.max_rel_err": max_rel_err,
            "eigensolvers.h.calls": len(h),
            "eigensolvers.h.iterations": sum(s[3] for s in h),
            "eigensolvers.h.busy_s": busy["eigensolvers.h"],
            "eigensolvers.z.calls": len(z),
            "eigensolvers.z.iterations": sum(s[3] for s in z),
            "eigensolvers.z.busy_s": busy["eigensolvers.z"],
            "eigensolvers.self_s": self_s["eigensolvers"],
            "eigensolvers.unconverged": sum(1 for s in self.solves if not s[4]),
            "eigensolvers.distinct_ratio": ratio(len({s[:3] for s in self.solves}), len(self.solves)),
            "analysis.bound_sweep.busy_s": busy["analysis.bound_sweep"],
            "analysis.monotonicity_sweep.busy_s": busy["analysis.monotonicity_sweep"],
            "analysis.embedding_check.calls": calls["analysis.embedding_check"],
            "analysis.embedding_check.busy_s": busy["analysis.embedding_check"],
            "analysis.self_s": self_s["analysis"],
            "infinite.evaluations": evals,
            "infinite.out_elems": self.out_elems,
            "infinite.t_infinity.busy_s": busy["infinite.t_infinity"],
            "infinite.f_infinity.busy_s": busy["infinite.f_infinity"],
            "infinite.norm_search.busy_s": busy["infinite.norm_search"],
            "infinite.us_per_eval": ratio(eval_busy * 1e6, evals),
            "infinite.self_s": self_s["infinite"],
            "infinite.max_enclosure_width": max(self.widths, default=0.0),
            "reporting.rows": self.rows,
            "reporting.render.busy_s": busy["reporting.render"],
            "cli.run.calls": calls["cli.run"],
            "cli.self_s": self_s["cli"],
            "cli.nonzero_exits": sum(1 for s in self.exits if s != 0),
            "trace.spans": len(self.spans) + len(self.leaves),
            "trace.overhead_frac": overhead_frac,
        }
        return values

