"""Outside-in tracing of the patchpair layers, from the benchmark's own files.

``Tracer.install`` wraps every public function of the traced modules in every
``patchpair`` namespace that binds it, so a call is recorded under the name it
was made through: ``matching.similarity`` is the evaluation boundary of the
matcher, ``similarity.nmi`` the metric it dispatches to. Nothing under
``src/`` changes. Each call becomes a span (name, start, end, parent span,
run id of the CLI stage); spans stay in memory in flat arrays and are
summarised into per-layer metrics after each traced pass.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import math
import os
import sys
import time

import numpy as np

TRACED_MODULES = ("matching", "similarity", "imgvol", "resample", "quality", "losses", "phantoms")
_MARK = "__perfbench_traced__"

# Innermost enclosing matcher function -> search level of an evaluation. An
# evaluation directly under match_hierarchical is the slice-patch mode's slice
# search across every HR patient.
_LEVEL_OF = {
    "matching.match_patient": "patient",
    "matching.match_slice": "slice",
    "matching.match_hierarchical": "slice",
    "matching.match_patch": "patch",
    "matching.match_exhaustive": "exhaustive",
}
LEVELS = ("patient", "slice", "patch", "exhaustive")
EVAL_BINDING = "matching.similarity"


def _slices(out) -> int:
    datasets = out if isinstance(out, tuple) else (out,)
    return sum(v.n_slices for ds in datasets for v in ds.volumes)


# Work done per call, keyed by defining function; called after the call returns.
_AMOUNT = {
    "similarity.nmi": lambda a, k, out: a[0].size,
    "similarity.pcc": lambda a, k, out: a[0].size,
    "similarity.rbf": lambda a, k, out: a[0].size,
    "similarity.similarity": lambda a, k, out: a[1].nbytes + a[2].nbytes,
    "imgvol.load_volume": lambda a, k, out: out.data.nbytes,
    "imgvol.save_volume": lambda a, k, out: a[0].data.nbytes,
    "matching.write_manifest": lambda a, k, out: os.path.getsize(a[1]),
    "resample.preprocess": lambda a, k, out: a[0].n_slices,
    "resample.degrade": lambda a, k, out: 1,
    "phantoms.generate_dataset": lambda a, k, out: _slices(out),
    "phantoms.generate_similar_pair": lambda a, k, out: _slices(out),
}
# An evaluation that raised (zero-variance PCC) or scored exactly 0 (constant
# NMI patches) is degenerate: flag 1 and 2 respectively.
_EVAL_FUNC = "similarity.similarity"


class Tracer:
    def __init__(self):
        self._installed = []
        self.present = set()  # defining functions found at install time
        self.run_id = 0
        self.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"patchpair.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        self.present = {func for _, func in targets.values()}
        for ns_name, ns in sorted(sys.modules.items()):
            if ns is None or not (ns_name == "patchpair" or ns_name.startswith("patchpair.")):
                continue
            short = ns_name.rpartition(".")[2]
            for attr, obj in list(vars(ns).items()):
                hit = targets.get(id(obj))
                if hit is not None:
                    setattr(ns, attr, self._wrap(obj, f"{short}.{attr}", hit[1]))
                    self._installed.append((ns, attr, obj))

    def uninstall(self) -> None:
        while self._installed:
            ns, attr, obj = self._installed.pop()
            setattr(ns, attr, obj)

    @staticmethod
    def assert_clean() -> None:
        """Raise if any patchpair namespace still binds a tracing wrapper."""
        for ns_name, ns in list(sys.modules.items()):
            if ns is None or not (ns_name == "patchpair" or ns_name.startswith("patchpair.")):
                continue
            for attr, obj in vars(ns).items():
                if getattr(obj, _MARK, False):
                    raise RuntimeError(f"tracing wrapper left installed on {ns_name}.{attr}")

    def _wrap(self, fn, label, func):
        nid = len(self.labels)
        self.labels.append(label)
        self.funcs.append(func)
        amount_of = _AMOUNT.get(func)
        zero_flag = func == _EVAL_FUNC
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, amounts, flags = self.start, self.end, self.amount, self.flag
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0.0)
            amounts.append(0.0)
            flags.append(0)
            stack.append(i)
            out = None
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException:
                flags[i] = 1
                raise
            finally:
                ends[i] = perf()
                stack.pop()
                if zero_flag and flags[i] == 0 and out == 0.0:
                    flags[i] = 2
                if amount_of is not None and flags[i] != 1:
                    try:
                        amounts[i] = amount_of(args, kwargs, out)
                    except Exception:
                        amounts[i] = math.nan

        setattr(traced, _MARK, True)
        return traced

    # -- spans ------------------------------------------------------------

    def clear(self) -> None:
        """Start a fresh span store; install() binds the wrappers to it."""
        self.labels = []  # binding label per name id, e.g. "matching.similarity"
        self.funcs = []  # defining function per name id, e.g. "similarity.similarity"
        self.name = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.amount = array.array("d")
        self.flag = array.array("b")
        self.stack = [-1]

    def snapshot(self) -> tuple:
        """The current span store, kept for write_spans after later clears."""
        return self.labels, self.name, self.start, self.end, self.parent, self.run

    @staticmethod
    def write_spans(path, snapshot, run_stage) -> None:
        """CSV of one traced pass: span, name, start_s, end_s, parent, run, stage."""
        labels, name, start, end, parent, run = snapshot
        t0 = start[0] if start else 0.0
        with open(path, "w") as f:
            f.write("span,name,start_s,end_s,parent,run,stage\n")
            for i in range(len(start)):
                f.write(f"{i},{labels[name[i]]},{start[i] - t0:.9f},{end[i] - t0:.9f},{parent[i]},{run[i]},{run_stage[run[i]]}\n")

    def summarize(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since the last clear().

        Returns {metric: (value, unit)}, plus the names of metrics whose
        functions no longer exist under "absent".
        """
        n = len(self.start)
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        amount = np.array(self.amount, dtype=np.float64)
        flag = np.array(self.flag, dtype=np.int8)
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

        func_ids = sorted(set(self.funcs))
        fidx = {f: j for j, f in enumerate(func_ids)}
        span_func = np.array([fidx[f] for f in self.funcs], dtype=np.int64)[name]
        nf = len(func_ids)
        calls = np.bincount(span_func, minlength=nf)
        incl = np.bincount(span_func, weights=dur, minlength=nf)
        selfs = np.bincount(span_func, weights=self_t, minlength=nf)
        amounts = np.bincount(span_func, weights=amount, minlength=nf)

        # evaluations, each attributed to the innermost enclosing search level
        eval_names = [k for k, label in enumerate(self.labels) if label == EVAL_BINDING]
        ev = np.flatnonzero(np.isin(name, eval_names))
        level_of_name = np.array([LEVELS.index(_LEVEL_OF[f]) if f in _LEVEL_OF else -1 for f in self.funcs])
        lvl = np.full(ev.size, -1, dtype=np.int64)
        cur = parent[ev].astype(np.int64)
        open_ = cur >= 0
        while open_.any():
            idx = np.flatnonzero(open_)
            code = level_of_name[name[cur[idx]]]
            lvl[idx] = code
            up = parent[cur[idx]]
            cur[idx] = up
            open_[idx] = (code < 0) & (up >= 0)

        def stat(func, kind):
            if func not in self.present:
                raise LookupError(func)
            j = fidx[func]
            return float({"calls": calls, "incl": incl, "self": selfs, "amount": amounts}[kind][j])

        def module_self(short):
            return float(sum(selfs[j] for f, j in fidx.items() if f.startswith(short + ".")))

        def ratio(a, b):
            return a / b if b else 0.0

        out, absent = {}, []

        def put(metric, unit, fn):
            try:
                out[metric] = (fn(), unit)
            except LookupError:
                absent.append(metric)

        put("similarity.nmi_calls", "count", lambda: stat("similarity.nmi", "calls"))
        put("similarity.nmi_self_s", "s", lambda: stat("similarity.nmi", "self"))
        put("similarity.joint_histogram_s", "s", lambda: stat("similarity.joint_histogram", "incl"))
        put("similarity.entropy_s", "s", lambda: stat("similarity.entropy", "incl"))
        put("similarity.mutual_information_s", "s", lambda: stat("similarity.mutual_information", "incl"))
        put(
            "similarity.mpixels_per_s", "Mpx/s",
            lambda: ratio(stat("similarity.nmi", "amount"), stat("similarity.nmi", "incl")) / 1e6,
        )
        put("similarity.pcc_calls", "count", lambda: stat("similarity.pcc", "calls"))
        put("similarity.pcc_s", "s", lambda: stat("similarity.pcc", "incl"))

        eval_metrics = {
            "similarity.computed_mb": ("MB-computed", lambda: float(amount[ev].sum()) / 1e6),
            "matching.evals": ("count", lambda: float(ev.size)),
            "matching.degenerate_evals": ("count", lambda: float((flag[ev] != 0).sum())),
            "matching.useful_eval_ratio": ("ratio", lambda: ratio(float((flag[ev] == 0).sum()), float(ev.size))),
            "matching.us_per_eval": ("us", lambda: ratio(float(dur[ev].sum()), float(ev.size)) * 1e6),
        }
        for k, level in enumerate(LEVELS):
            eval_metrics[f"matching.evals_{level}"] = ("count", lambda k=k: float((lvl == k).sum()))
            eval_metrics[f"matching.{level}_s"] = ("s", lambda k=k: float(dur[ev][lvl == k].sum()))
        for metric, (unit, fn) in eval_metrics.items():
            if EVAL_BINDING in self.labels:
                put(metric, unit, fn)
            else:
                absent.append(metric)

        put("matching.self_s", "s", lambda: module_self("matching"))
        put("matching.fingerprint_s", "s", lambda: stat("matching.dataset_fingerprint", "incl"))
        put("matching.manifest_write_s", "s", lambda: stat("matching.write_manifest", "incl"))
        put("matching.manifest_read_s", "s", lambda: stat("matching.read_manifest", "incl"))
        put("matching.manifest_kb", "kB", lambda: stat("matching.write_manifest", "amount") / 1e3)
        put("imgvol.load_calls", "count", lambda: stat("imgvol.load_volume", "calls"))
        put("imgvol.load_s", "s", lambda: stat("imgvol.load_volume", "incl"))
        put("imgvol.read_mb", "MB", lambda: stat("imgvol.load_volume", "amount") / 1e6)
        put("imgvol.save_calls", "count", lambda: stat("imgvol.save_volume", "calls"))
        put("imgvol.save_s", "s", lambda: stat("imgvol.save_volume", "incl"))
        put("imgvol.write_mb", "MB", lambda: stat("imgvol.save_volume", "amount") / 1e6)
        for fn in ("preprocess", "degrade", "gaussian_blur", "bicubic_resize", "rotation_correct", "recenter"):
            put(f"resample.{fn}_s", "s", lambda fn=fn: stat(f"resample.{fn}", "incl"))
        put("resample.slices", "count", lambda: stat("resample.preprocess", "amount") + stat("resample.degrade", "amount"))
        put("quality.ssim_calls", "count", lambda: stat("quality.ssim", "calls"))
        for fn in ("ssim", "psnr", "rmse"):
            put(f"quality.{fn}_s", "s", lambda fn=fn: stat(f"quality.{fn}", "incl"))
        put("losses.read_batch_s", "s", lambda: stat("losses.read_loss_batch", "incl"))
        put("losses.total_loss_s", "s", lambda: stat("losses.total_loss", "incl"))
        put(
            "phantoms.generate_s", "s",
            lambda: stat("phantoms.generate_similar_pair", "incl") + stat("phantoms.generate_dataset", "incl"),
        )
        put(
            "phantoms.slices", "count",
            lambda: stat("phantoms.generate_similar_pair", "amount") + stat("phantoms.generate_dataset", "amount"),
        )
        for short in TRACED_MODULES:
            put(f"{short}.share", "ratio", lambda short=short: ratio(module_self(short), wall_s))
        return {"metrics": out, "absent": absent}
