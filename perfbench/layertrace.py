"""Per-layer tracing of twofluid from outside the package.

A ``Tracer`` replaces public callables of the package's modules (and the
n-dimensional transforms of ``numpy.fft`` and ``scipy.fft``) with wrappers
that record one span per call: name, start, end, parent span and thread.
Spans stay in memory; ``Tracer.metrics`` turns them into per-layer self
times and counters once the traced campaigns have finished.

Wrappers are installed only by a traced worker.  A name that no longer
exists in the package is reported in ``Tracer.absent`` instead of raising,
so the tracer keeps working while the package is refactored.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time

import numpy as np

FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")


def _nbytes(x):
    return int(getattr(x, "nbytes", 0))


def _post_fft(attrs, args, kwargs, out):
    attrs["bytes"] = _nbytes(args[0] if args else None) + _nbytes(out)


def _post_kernel(attrs, args, kwargs, out):
    x0 = args[4] if len(args) > 4 else kwargs.get("x0")
    attrs["points"] = int(np.size(out))
    attrs["cold"] = x0 is None
    attrs["unconverged"] = int(np.isnan(out).sum())


def _post_decompose(attrs, args, kwargs, out):
    xis = np.asarray(args[0] if args else kwargs["xis"], dtype=float).ravel()
    attrs["xis"] = xis  # unique |k| is counted after the run, outside any span
    attrs["modes"] = int(xis.size)
    attrs["confluent"] = int(np.sum(out.confluent))
    attrs["fallback"] = int(np.sum(out.fallback))
    attrs["projector_bytes"] = _nbytes(out.projectors)


def _post_file(position, keyword):
    def post(attrs, args, kwargs, out):
        path = args[position] if len(args) > position else kwargs[keyword]
        attrs["bytes"] = os.path.getsize(path)
    return post


def _post_evolution(attrs, args, kwargs, out):
    attrs["quad_nodes"] = int(np.size(args[0].quad.nodes))


# (span name, defining module, attribute path, module whose namespace alone is
# patched or None for every twofluid namespace holding the object, post hook)
SPECS = (
    ("cli.campaign", "twofluid.cli", "run_campaign", None, None),
    ("cli.write_csv", "twofluid.cli", "write_csv", None, _post_file(0, "path")),
    ("cli.checkpoint", "twofluid.solver", "write_checkpoint", None, _post_file(2, "path")),
    ("cli.diag", "twofluid.solver", "energy_report", "twofluid.cli", None),
    ("cli.diag", "twofluid.solver", "gradient_l2sq", "twofluid.cli", None),
    ("linearlab.evolution_build", "twofluid.linearlab", "ModeEvolution.__init__", None,
     _post_evolution),
    ("linearlab.norms", "twofluid.linearlab", "ModeEvolution.norms", None, None),
    ("linearlab.data", "twofluid.linearlab", "make_generic_data", None, None),
    ("linearlab.data", "twofluid.linearlab", "make_lower_bound_data", None, None),
    ("linearlab.data", "twofluid.linearlab", "RadialProfileData.sampled", None, None),
    ("linearlab.fit", "twofluid.linearlab", "fit_power_law", None, None),
    ("linearlab.fit", "twofluid.linearlab", "band_ratio", None, None),
    ("spectral.decompose", "twofluid.spectral", "decompose_batch", None, _post_decompose),
    ("spectral.apply", "twofluid.spectral", "BatchDecomposition.apply", None, None),
    ("spectral.semigroup", "twofluid.spectral", "BatchDecomposition.semigroup", None, None),
    ("spectral.expm_oracle", "twofluid.spectral", "matrix_exp_oracle", None, None),
    ("spectral.residuals", "twofluid.spectral", "projector_residuals", None, None),
    ("solver.init", "twofluid.solver", "init_state", None, None),
    ("solver.step", "twofluid.solver", "step", None, None),
    ("solver.linear_step", "twofluid.solver", "linear_propagator_step", None, None),
    ("solver.nonlinear_rhs", "twofluid.solver", "nonlinear_rhs", None, None),
    ("closure.closure_state", "twofluid.closure", "closure_state", None, None),
    ("closure.nonlinear_coefficients", "twofluid.closure", "nonlinear_coefficients", None,
     None),
    ("kernels.solve", "twofluid.kernels", "solve_rho_plus_batch", None, _post_kernel),
) + tuple(("fft", mod, name, None, _post_fft)
          for mod in ("numpy.fft", "scipy.fft") for name in FFT_NAMES)


class Tracer:
    """Span recorder; ``install`` patches the package, ``metrics`` reads spans."""

    def __init__(self, specs=SPECS):
        self.specs = specs
        self.absent = []
        self.hook_errors = {}
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.threads = []
        self.attrs = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation -------------------------------------------------------

    def install(self):
        wrapped = {}
        for name, module_name, path, only_in, post in self.specs:
            label = f"{module_name}.{path}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = wrapped[id(original)] = self._wrap(name, original, post)
            if outer:  # a method: the class is shared by every namespace
                setattr(owner, attr, wrapper)
                continue
            targets = ([sys.modules[only_in]] if only_in else
                       [module] + [m for n, m in list(sys.modules.items())
                                   if n == "twofluid" or n.startswith("twofluid.")])
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def _wrap(self, name, fn, post):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # a pool thread: attribute it to the span the main thread has open
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            with tracer._lock:  # pool threads open spans concurrently
                idx = len(tracer.names)
                tracer.names.append(name)
                tracer.starts.append(0.0)
                tracer.ends.append(0.0)
                tracer.parents.append(parent)
                tracer.threads.append(threading.get_ident())
                tracer.attrs.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if post is not None:
                attrs = {}
                try:
                    post(attrs, args, kwargs, out)
                except Exception as exc:  # a changed signature must not stop the run
                    tracer.hook_errors[name] = repr(exc)
                tracer.attrs[idx] = attrs
            return out

        return wrapper

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Duration of each span minus the union of its children's intervals."""
        children = {}
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(idx)
        out = []
        for idx in range(len(self.names)):
            lo, hi = self.starts[idx], self.ends[idx]
            covered, edge = 0.0, lo
            for c in sorted(children.get(idx, ()), key=self.starts.__getitem__):
                a, b = max(self.starts[c], edge), min(self.ends[c], hi)
                if b > a:
                    covered += b - a
                    edge = b
            out.append(hi - lo - covered)
        return out

    def summary(self):
        """Calls and total self time per span name."""
        out = {}
        for name, self_s in zip(self.names, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return out

    def write_spans(self, path):
        """One JSON object per span: name, start, end, parent, thread, counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                attrs = {k: v for k, v in (self.attrs[idx] or {}).items() if k != "xis"}
                fh.write(json.dumps({"id": idx, "name": name, "start": self.starts[idx],
                                     "end": self.ends[idx], "parent": self.parents[idx],
                                     "thread": self.threads[idx], **attrs}) + "\n")

    def _under(self, idx, name):
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def metrics(self):
        """Per-layer metrics; every name is present, zero when nothing ran."""
        self_s = self.self_times()
        by_name = {}
        for idx, name in enumerate(self.names):
            by_name.setdefault(name, []).append(idx)

        def calls(name):
            return len(by_name.get(name, ()))

        def total_self(name):
            return sum(self_s[i] for i in by_name.get(name, ()))

        def attr_sum(name, key, spans=None):
            spans = by_name.get(name, ()) if spans is None else spans
            return sum((self.attrs[i] or {}).get(key, 0) for i in spans)

        def ratio(a, b):
            return a / b if b else 0.0

        steps = by_name.get("solver.step", [])
        step_ms = [(self.ends[i] - self.starts[i]) * 1e3 for i in steps]
        step_ffts = [i for i in by_name.get("fft", ()) if self._under(i, "solver.step")]
        rhs_solves = [i for i in by_name.get("kernels.solve", ())
                      if self._under(i, "solver.nonlinear_rhs")]
        dec = by_name.get("spectral.decompose", [])
        modes = attr_sum("spectral.decompose", "modes")
        unique = sum(int(np.unique(self.attrs[i]["xis"]).size)
                     for i in dec if self.attrs[i] and "xis" in self.attrs[i])
        kern_calls = calls("kernels.solve")
        points = attr_sum("kernels.solve", "points")
        cold = attr_sum("kernels.solve", "cold")

        return {
            "cli.diag.self_s": total_self("cli.diag"),
            "cli.write_csv.self_s": total_self("cli.write_csv"),
            "cli.csv_bytes": attr_sum("cli.write_csv", "bytes"),
            "cli.checkpoint.self_s": total_self("cli.checkpoint"),
            "cli.checkpoint_bytes": attr_sum("cli.checkpoint", "bytes"),
            "linearlab.evolution_build.self_s": total_self("linearlab.evolution_build"),
            "linearlab.norms.self_s": total_self("linearlab.norms"),
            "linearlab.norms.calls": calls("linearlab.norms"),
            "linearlab.data.self_s": total_self("linearlab.data"),
            "linearlab.fit.calls": calls("linearlab.fit"),
            "linearlab.fit.self_s": total_self("linearlab.fit"),
            "linearlab.quad_nodes": attr_sum("linearlab.evolution_build", "quad_nodes"),
            "spectral.decompose.self_s": total_self("spectral.decompose"),
            "spectral.decompose.calls": len(dec),
            "spectral.decompose.modes": modes,
            "spectral.decompose.unique_modes": unique,
            "spectral.decompose.unique_ratio": ratio(unique, modes),
            "spectral.decompose.us_per_mode": ratio(total_self("spectral.decompose"), modes) * 1e6,
            "spectral.decompose.confluent_modes": attr_sum("spectral.decompose", "confluent"),
            "spectral.decompose.fallback_modes": attr_sum("spectral.decompose", "fallback"),
            "spectral.decompose.projector_mb": max(
                [(self.attrs[i] or {}).get("projector_bytes", 0) for i in dec] or [0]) / 1e6,
            "spectral.apply.self_s": total_self("spectral.apply"),
            "spectral.apply.calls": calls("spectral.apply"),
            "spectral.semigroup.self_s": total_self("spectral.semigroup"),
            "spectral.expm_oracle.self_s": total_self("spectral.expm_oracle"),
            "spectral.expm_oracle.calls": calls("spectral.expm_oracle"),
            "spectral.residuals.self_s": total_self("spectral.residuals"),
            "solver.step.calls": len(steps),
            "solver.step.p50_ms": statistics.median(step_ms) if step_ms else 0.0,
            "solver.step.first_ms": step_ms[0] if step_ms else 0.0,
            "solver.linear_step.self_s": total_self("solver.linear_step"),
            "solver.nonlinear_rhs.self_s": total_self("solver.nonlinear_rhs"),
            "solver.ffts_per_step": ratio(len(step_ffts), len(steps)),
            "solver.fft.self_s": sum(self_s[i] for i in step_ffts),
            "solver.fft_mb_per_step": ratio(attr_sum("fft", "bytes", step_ffts), len(steps)) / 1e6,
            "closure.closure_state.self_s": total_self("closure.closure_state"),
            "closure.nonlinear_coefficients.self_s": total_self("closure.nonlinear_coefficients"),
            "closure.solves_per_rhs": ratio(len(rhs_solves), calls("solver.nonlinear_rhs")),
            "kernels.solve.calls": kern_calls,
            "kernels.solve.points": points,
            "kernels.solve.self_s": total_self("kernels.solve"),
            "kernels.solve.ns_per_point": ratio(total_self("kernels.solve"), points) * 1e9,
            "kernels.solve.cold_calls": cold,
            "kernels.solve.cold_share": ratio(cold, kern_calls),
            "kernels.solve.unconverged_points": attr_sum("kernels.solve", "unconverged"),
        }
