"""One workload's timed closed loop, run in its own process by run.py.

A single client runs the workload's CLI stages in order, in-process through
``patchpair.cli.main`` with stdout captured, checks every output, and starts
the next iteration only after the previous one completed. With tracing on,
untraced and traced iterations alternate: end-to-end times come only from
the untraced ones, per-layer metrics only from the traced ones.

Usage: python3 worker.py '<json config>'   (run.py builds the config)
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
from tracer import Tracer
from workloads import WORKLOADS, load_pinned


def _corrupt_first_record(path: Path) -> None:
    """Move the first record's weight by 1e-9, far beyond the 1e-15 tolerance."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if "lr" in obj:
            w = float(obj["weight"])
            obj["weight"] = w + 1e-9 if w + 1e-9 <= 1.0 else w - 1e-9
            lines[i] = json.dumps(obj)
            break
    path.write_text("\n".join(lines) + "\n")


class Loop:
    def __init__(self, cfg: dict):
        from patchpair import cli

        self.cli = cli
        self.cfg = cfg
        self.work = Path(cfg["work"])
        self.seed = cfg["seed"]
        self.workload = WORKLOADS[cfg["workload"]]
        self.params = self.workload.sizes["tiny" if cfg["tiny"] else "full"]
        self.stages = self.workload.stages(self.params)
        self.first_match = next(st for st in self.stages if st.match)
        use_pins = cfg["check_pins"] and self.seed == self.workload.default_seed and not cfg["tiny"]
        self.pinned = load_pinned(self.workload) if use_pins else None
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.run_stage = []  # stage name per trace run id
        self.spans = None  # spans of the first traced iteration

    def iteration(self, traced: bool) -> dict:
        times, spans, stdout, msgs = {}, {}, {}, {}
        if traced:
            self.tracer.clear()
            self.tracer.install()
        else:
            Tracer.assert_clean()
        try:
            for st in self.stages:
                if traced:
                    self.tracer.run_id = len(self.run_stage)
                    self.run_stage.append(st.name)
                buf = io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = self.cli.main(st.args(self.work, self.seed))
                    error = None if code == 0 else f"exit code {code}"
                except Exception as e:  # a crash is a failed operation, not a benchmark error
                    error = f"{type(e).__name__}: {e}"
                end = time.perf_counter()
                times[st.name] = end - start
                spans[st.name] = (start, end)
                stdout[st.name] = buf.getvalue()
                if error:
                    msgs[st.name] = [error]
        finally:
            if traced:
                self.tracer.uninstall()
        layers = self.tracer.summarize(sum(times.values())) if traced else None
        if traced and self.spans is None:
            self.spans = self.tracer.snapshot()
        if self.cfg["corrupt_manifest"] and self.attempted == 0:
            _corrupt_first_record(self.first_match.match.manifest(self.work))
        for stage, found in self.check(stdout).items():
            msgs.setdefault(stage, []).extend(found)
        self.attempted += len(self.stages)
        for st in self.stages:
            if msgs.get(st.name):
                self.failed += 1
                self.failures.extend(f"{st.name}: {m}" for m in msgs[st.name][:3])
        return {"traced": traced, "times": times, "spans": spans, "layers": layers, "records": self.lr_records(),
                "stdout": stdout}

    def lr_records(self) -> int:
        try:
            return len(checks.read_manifest_records(self.first_match.match.manifest(self.work)))
        except (OSError, ValueError, KeyError):
            return 0

    def check(self, stdout: dict) -> dict:
        wl, p = self.workload, self.params
        try:
            msgs = wl.invariants(self.work, self.seed, p, stdout)
            if self.pinned is not None:
                observed = wl.observe(self.work, p, stdout)
                for stage, expected in self.pinned.items():
                    tol = checks.pinned_tolerance(stage)
                    msgs.setdefault(stage, []).extend(checks.compare(expected, observed.get(stage), tol, stage))
        except Exception as e:  # an unreadable output fails every stage of the iteration
            return {st.name: [f"output check raised {type(e).__name__}: {e}"] for st in self.stages}
        return msgs

    def run(self) -> dict:
        seconds, trace = self.cfg["seconds"], self.cfg["trace"]
        kinds = (False, True) if trace else (False,)
        its = []
        start = time.perf_counter()
        while True:
            for traced in kinds:
                its.append(self.iteration(traced))
            elapsed = time.perf_counter() - start
            rounds = len(its) // len(kinds)
            # stop at the round boundary nearest to the time budget
            if elapsed + 0.5 * elapsed / rounds > seconds:
                break
        return self.result(its)

    def result(self, its: list) -> dict:
        traced = [it for it in its if it["traced"]]
        out = {
            "iterations": [{k: it[k] for k in ("traced", "times", "spans", "records")} for it in its],
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:50],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pinned_checks": self.pinned is not None,
        }
        if traced:
            names = sorted({m for it in traced for m in it["layers"]["metrics"]})
            out["layers"] = {
                m: [statistics.median(it["layers"]["metrics"][m][0] for it in traced), traced[0]["layers"]["metrics"][m][1]]
                for m in names
            }
            out["absent"] = sorted({m for it in traced for m in it["layers"]["absent"]})
            trace_path = Path(self.cfg["trace_file"])
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            self.tracer.write_spans(trace_path, self.spans, self.run_stage)
        return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    result = Loop(cfg).run()
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
