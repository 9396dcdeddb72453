"""Benchmark of the lowdepthqc experiments, end to end and layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Each workload runs one CLI command in its own process (``child.py``),
one process at a time, with one BLAS thread.  A run repeats whole rounds
of that command with the same ``--seed`` until ``--seconds`` would be
exceeded by the next round (it always makes one), checks every round's
outputs with ``checks.py``, and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics: ``wall_s``, ``setup_s`` and
``peak_rss_mb``, each a median over the run's rounds, and ``step_s``, the
median time of one operation: each operation (time step, or register
size) is timed in every round, and the median over the operations is
taken of their medians over the rounds.
``--trace 1`` runs each round twice,
untraced and then traced, and gives the per-layer metrics of the traced
round and ``trace.overhead_s``, the traced wall time minus the untraced.
``--workload all`` runs every workload both ways and prints one JSON line
each.  A metric that no round could measure is ``null``, and then
``correct`` is false.  Outputs, probes and spans go to ``.bench_out/``
at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "step_s": "s", "peak_rss_mb": "MB"}


def workloads():
    from checks import Dynamics, Gatecount
    return {
        "exact-dynamics": Dynamics(variant="cry", nu=0.001, tau=0.0125, steps=10),
        "noisy-ion": Dynamics(variant="cu_alt", nu=0.01, tau=0.2, steps=1,
                              shots=20000, profile="aqt-ibex",
                              floor=(0.2, 0.95), beats_do_nothing=True),
        "noisy-sc": Dynamics(variant="cu_alt", nu=0.01, tau=0.2, steps=1,
                             shots=20000, profile="ibm-brisbane", sweeps=2),
        "gatecount": Gatecount(n_max=6),
    }


@dataclass
class Round:
    code: int
    started: float
    wall: float
    rss_mb: float
    probe: dict | None
    out: Path

    @property
    def setup(self) -> float:
        return self.probe["steps"][0][0] - self.started

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.probe is not None and all(
            end is not None for _, end in self.probe["steps"])

    @property
    def op_times(self) -> list[float]:
        """Time of each operation: a time step, or a register size."""
        return [end - start for start, end in self.probe["steps"]]


def run_child(workload, seed: int, mode: str, work: Path) -> Round:
    """Run the workload's command once in a fresh process; an interrupted
    benchmark kills the process and waits for it before it exits."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe_path = work / "probe.json"
    argv = [sys.executable, str(CHILD), str(probe_path), mode, "--",
            *workload.argv(), "--seed", str(seed), "--out", str(work / "out")]
    with open(work / "log.txt", "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env={**os.environ, **THREADS}, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    probe = None
    if probe_path.is_file():
        probe = json.loads(probe_path.read_text())
    return Round(proc.returncode, started, wall, usage.ru_maxrss / 1024.0,
                 probe, work / "out")


class Runner:
    """Rounds of one workload and seed, with their checks."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.workload = workloads()[name]
        import lowdepthqc.cli  # noqa: F401  compiles the last module before timing
        self.seed = seed
        self.seconds = seconds
        self.work = OUT / name / f"seed{seed}"
        self.attempted = 0
        self.failed = 0

    def launch(self, mode: str, tag: str) -> Round:
        return run_child(self.workload, self.seed, mode, self.work / tag)

    def check(self, rnd: Round) -> bool:
        """Count the round's operations and those that failed; true when
        none failed."""
        ops = self.workload.operations
        self.attempted += ops
        if not rnd.ok:
            self.failed += ops
            print(f"{self.name}: round exited {rnd.code}; see {rnd.out.parent}/log.txt")
            return False
        try:
            fails = self.workload.check(rnd.out, rnd.probe, self.seed)
        except (OSError, LookupError, ValueError) as exc:
            fails = dict.fromkeys(range(ops), [f"outputs cannot be checked: {exc!r}"])
        for op, msgs in fails.items():
            if msgs:
                print(f"{self.name}: operation {op} failed: " + "; ".join(msgs))
        bad = min(ops, sum(1 for msgs in fails.values() if msgs))
        self.failed += bad
        return bad == 0

    def rounds(self, body) -> None:
        """Call ``body`` until the next call would end after ``seconds``."""
        start = time.monotonic()
        count = 0
        while True:
            body()
            count += 1
            elapsed = time.monotonic() - start
            if elapsed + elapsed / count > self.seconds:
                return

    def end_to_end(self) -> dict[str, float | None]:
        ok: list[Round] = []

        def body():
            rnd = self.launch("run", "round")
            if self.check(rnd):
                ok.append(rnd)
        self.rounds(body)
        if not ok:
            return dict.fromkeys(END_TO_END)
        return {"wall_s": statistics.median(r.wall for r in ok),
                "setup_s": statistics.median(r.setup for r in ok),
                "step_s": statistics.median(
                    statistics.median(times)
                    for times in zip(*(r.op_times for r in ok))),
                "peak_rss_mb": statistics.median(r.rss_mb for r in ok)}

    def per_layer(self) -> dict[str, float | None]:
        layers: list[dict[str, float]] = []
        overheads: list[float] = []

        def body():
            plain = self.launch("run", "round")
            plain_ok = self.check(plain)
            traced = self.launch("trace", "traced")
            if self.check(traced) and plain_ok:
                layers.append(layer_metrics(traced.probe["spans"]))
                overheads.append(traced.wall - plain.wall)
        self.rounds(body)
        if not layers:
            return dict.fromkeys(PER_LAYER)
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(overheads)
        return metrics


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

PER_LAYER = {
    "ansatz.build_calls": "count", "ansatz.build_s": "s",
    "hadamard.build_calls": "count", "hadamard.build_s": "s",
    "elision.elide_s": "s",
    "transpile.calls": "count", "transpile.s": "s",
    "transpile.native_gates": "count", "transpile.native_2q": "count",
    "simulator.sv_calls": "count", "simulator.sv_s": "s",
    "simulator.sv_gates": "count", "simulator.sv_gates_per_s": "1/s",
    "simulator.sv_repeat_share": "share",
    "simulator.density_calls": "count", "simulator.density_s": "s",
    "simulator.density_gates": "count", "simulator.density_gates_per_s": "1/s",
    "simulator.density_repeat_share": "share",
    "hadamard.evaluate_calls": "count", "hadamard.evaluate_s": "s",
    "hadamard.evaluate_self_s": "s", "hadamard.shots": "count",
    "burgers.gterm_calls": "count", "burgers.gterm_s": "s",
    "sgeo.updates": "count", "sgeo.optimize_s": "s", "sgeo.self_s": "s",
    "sgeo.fit_s": "s",
    "cli.emit_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Totals per span name: calls, time, self time (time not covered by
    child spans) and the two counts each span carries."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    a: dict[str, float] = {}
    b: dict[str, float] = {}
    for name, start, end, parent, x, y in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start)
        a[name] = a.get(name, 0) + x
        b[name] = b.get(name, 0) + y
        if parent >= 0:
            p = spans[parent][0]
            own[p] = own.get(p, 0.0) - (end - start)

    def get(table, name):
        return table.get(name, 0)

    def ratio(x, y):
        return x / y if y else 0.0

    m = {
        "ansatz.build_calls": get(calls, "ansatz.build"),
        "ansatz.build_s": get(total, "ansatz.build"),
        "hadamard.build_calls": get(calls, "hadamard.build"),
        "hadamard.build_s": get(total, "hadamard.build"),
        "elision.elide_s": get(total, "elision.elide"),
        "transpile.calls": get(calls, "transpile"),
        "transpile.s": get(total, "transpile"),
        "transpile.native_gates": get(a, "transpile"),
        "transpile.native_2q": get(b, "transpile"),
        "hadamard.evaluate_calls": get(calls, "hadamard.evaluate"),
        "hadamard.evaluate_s": get(total, "hadamard.evaluate"),
        "hadamard.evaluate_self_s": get(own, "hadamard.evaluate"),
        "hadamard.shots": get(a, "hadamard.evaluate"),
        "burgers.gterm_calls": get(calls, "burgers.gterm"),
        "burgers.gterm_s": get(total, "burgers.gterm"),
        "sgeo.updates": get(a, "sgeo.optimize"),
        "sgeo.optimize_s": get(total, "sgeo.optimize"),
        "sgeo.self_s": get(own, "sgeo.optimize"),
        "sgeo.fit_s": get(total, "sgeo.fit"),
        "cli.emit_s": get(total, "cli.emit"),
    }
    for key, name in (("sv", "simulator.sv"), ("density", "simulator.density")):
        m[f"simulator.{key}_calls"] = get(calls, name)
        m[f"simulator.{key}_s"] = get(total, name)
        m[f"simulator.{key}_gates"] = get(a, name)
        m[f"simulator.{key}_gates_per_s"] = ratio(get(a, name), get(total, name))
        m[f"simulator.{key}_repeat_share"] = ratio(get(b, name), get(a, name))
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(name, seed, seconds)
    if trace:
        metrics, units = runner.per_layer(), PER_LAYER
    else:
        metrics, units = runner.end_to_end(), END_TO_END
    measured = None not in metrics.values()
    return {"correct": measured and runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    names = ("exact-dynamics", "noisy-ion", "noisy-sc", "gatecount")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*names, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "lowdepthqc" / "cli.py").is_file():
        print(f"benchmark: no lowdepthqc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import numpy
    print(f"settings: one process at a time, {THREADS} (nproc "
          f"{os.cpu_count()}), python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}")
    if args.workload == "all":
        for name in names:
            for trace in (False, True):
                result = measure(name, args.seed, args.seconds, trace)
                print(json.dumps({"workload": name, "trace": int(trace), **result}))
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
