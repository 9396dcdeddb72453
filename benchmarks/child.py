"""Run one ``lowdepthqc`` CLI command in this process, watched from outside.

    python3 child.py PROBE_JSON MODE -- CLI_ARGS...

MODE is one of

* ``run``:   the command runs to its end under the probes below;
* ``trace``: the same, and every call into a layer's public functions is
  recorded as a span (name, start, end, parent, two counts).

The probes wrap a few functions where the CLI looks them up.  They cost a
handful of calls per time step and one per sampled circuit:

* the step clock: ``cli.optimize_step`` opens a step, and the next
  ``cli.build_ansatz`` return (the end of the Lambda update) closes it.
  ``gatecount`` opens a register size at each ``cli._substream`` call,
  which closes the size before it, and closes the last one when the CSV
  is written; its ``build_ansatz`` calls leave the clock alone;
* the shot counter: ``burgers.family_shots`` opens a binding and every
  ``hadamard.sample_from_expectation`` call adds its shots to it.

Times are ``time.monotonic()``, which is system-wide, so the parent can
subtract the moment it started this process.  The probe file is written
when the command returns.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lowdepthqc import burgers, cli, hadamard, sgeo, transpile  # noqa: E402

now = time.monotonic


class Probes:
    def __init__(self, path: str):
        self.path = path
        self.steps: list[list[float]] = []      # [start, end] per step
        self.params: list[list[float]] = []     # parameters entering each step
        self.bindings: dict[tuple[int, int], int] = {}
        self._open_binding: list[int] | None = None
        self._step_open = False                 # a time step awaits its end
        self.spans: list[list] = []

    def write(self):
        if self._open_binding is not None:
            self._close_binding()
        data = {"steps": self.steps, "params": self.params,
                "bindings": [[s, shots, count]
                             for (s, shots), count in sorted(self.bindings.items())],
                "spans": self.spans}
        with open(self.path, "w") as fh:
            json.dump(data, fh)
            fh.flush()

    def _close_binding(self):
        key = tuple(self._open_binding)
        self.bindings[key] = self.bindings.get(key, 0) + 1
        self._open_binding = None

    def install(self):
        optimize_step = cli.optimize_step
        build_ansatz = cli.build_ansatz
        substream = cli._substream
        write_csv = cli._write_csv
        family_shots = burgers.family_shots
        sample = hadamard.sample_from_expectation

        def step_clock(grid, prev, spec, lam_init, cfg):
            self.params.append([float(v) for v in lam_init])
            self.steps.append([now(), None])
            self._step_open = True
            return optimize_step(grid, prev, spec, lam_init, cfg)

        def step_end(spec, params):
            circuit = build_ansatz(spec, params)
            if self._step_open:
                self.steps[-1][1] = now()
                self._step_open = False
            return circuit

        def size_clock(seed, tag):
            if tag.startswith("gatecount-"):
                t = now()
                if self.steps:
                    self.steps[-1][1] = t
                self.steps.append([t, None])
            return substream(seed, tag)

        def size_end(*args, **kwargs):
            if self.steps and self.steps[-1][1] is None:
                self.steps[-1][1] = now()
            return write_csv(*args, **kwargs)

        def binding(*args, **kwargs):
            if self._open_binding is not None:
                self._close_binding()
            self._open_binding = [len(self.steps), 0]
            return family_shots(*args, **kwargs)

        def sampled(exact_z, cfg, rng=None):
            self._open_binding[1] += cfg.shots
            return sample(exact_z, cfg, rng=rng)

        cli.optimize_step = step_clock
        cli.build_ansatz = step_end
        cli._substream = size_clock
        cli._write_csv = size_end
        burgers.family_shots = binding
        hadamard.sample_from_expectation = sampled


class Tracer:
    """Spans around the calls into each layer, kept in memory.

    A span is ``[name, start, end, parent, a, b]``: ``parent`` is the index
    of the enclosing span (-1 at top level) and ``a``, ``b`` are the counts
    the layer reports (gates and repeated gates for a simulator pass,
    native and 2-qubit gates for a transpile, shots for an estimate,
    coordinate updates for a time step).  Counts are taken after the span
    closes, so their cost lands in the trace overhead and not in the span.
    """

    def __init__(self, spans: list):
        self.spans = spans
        self.stack: list[int] = []
        self.previous: dict[tuple, tuple] = {}

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if counts is not None:
                span[4], span[5] = counts(args, kwargs, result)
            return result
        return traced

    def repeated(self, layer: str, circuit) -> tuple[int, int]:
        """Gates of this pass, and how many lie in a prefix or suffix equal
        to the previous pass of the same layer, estimator family and
        direction."""
        meta = circuit.metadata
        key = (layer, meta.get("gterm_kind"), meta.get("direction"))
        gates = circuit.gates
        prev = self.previous.get(key, ())
        self.previous[key] = gates
        m = min(len(prev), len(gates))
        head = 0
        while head < m and prev[head] == gates[head]:
            head += 1
        tail = 0
        while tail < m - head and prev[-1 - tail] == gates[-1 - tail]:
            tail += 1
        return len(gates), head + tail

    def install(self):
        def native(args, kwargs, result):
            return len(result.gates), sum(len(g.qubits) == 2 for g in result.gates)

        def shots(args, kwargs, result):
            mode = args[0]
            count = args[2] if len(args) > 2 else kwargs.get("shots")
            if mode.shots is None:
                return 0, 0
            return (mode.shots if count is None else count), 0

        def updates(args, kwargs, result):
            return len(result.trace), 0

        def sv(args, kwargs, result):
            return self.repeated("sv", args[0])

        def density(args, kwargs, result):
            return self.repeated("density", args[0])

        w = self.wrap
        cli.optimize_step = w("sgeo.optimize", cli.optimize_step, updates)
        cli.fit_initial_state = w("sgeo.fit", cli.fit_initial_state)
        cli.build_ansatz = w("ansatz.build", cli.build_ansatz)
        sgeo.build_ansatz = w("ansatz.build", sgeo.build_ansatz)
        sgeo.gterm_values = w("burgers.gterm", sgeo.gterm_values)
        burgers.build_gterm_circuit = w("hadamard.build",
                                        burgers.build_gterm_circuit)
        cli.build_gterm_circuit = w("hadamard.build", cli.build_gterm_circuit)
        hadamard.elide_body = w("elision.elide", hadamard.elide_body)
        hadamard.EstimatorMode.evaluate = w("hadamard.evaluate",
                                            hadamard.EstimatorMode.evaluate, shots)
        hadamard.run_statevector = w("simulator.sv", hadamard.run_statevector, sv)
        hadamard.run_density = w("simulator.density", hadamard.run_density, density)
        # noisy_expectation and count_report look decompose up at call time
        transpile.decompose = w("transpile", transpile.decompose, native)
        cli._write_csv = w("cli.emit", cli._write_csv)
        cli.RunRecord.save = w("cli.emit", cli.RunRecord.save)


def main(argv: list[str]) -> int:
    probe_path, mode, sep, *cli_args = argv
    if mode not in ("run", "trace") or sep != "--":
        print("usage: child.py PROBE_JSON run|trace -- CLI_ARGS",
              file=sys.stderr)
        return 2
    probes = Probes(probe_path)
    probes.install()
    if mode == "trace":
        Tracer(probes.spans).install()
    code = cli.main(cli_args)
    probes.write()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
