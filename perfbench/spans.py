"""Spans and counters recorded around the program's public functions.

Each wrapper replaces a function where the program looks it up (a module
attribute or a class attribute) and restores it on exit, so nothing in
the program changes. Spans are kept in memory: (name, start, end, id,
parent id, trial id), where the trial id is the span id of the enclosing
``vqe.minimize`` call, which makes the spans of one VQE trial one request.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict


import vqesim.ansatz
import vqesim.exact
import vqesim.pauli
import vqesim.pipeline
import vqesim.simulator
import vqesim.vqe

COMPLEX_BYTES = 16


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._idle_per_circuit: dict = {}
        self.nnz: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent, trial = stack[-1] if stack else (0, 0)
        if name == "vqe.trial":
            trial = span_id
        stack.append((span_id, trial))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, span_id, parent, trial))

    def count(self, **amounts: float) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.counts[key] += value

    def write(self, path) -> None:
        fields = ("name", "start", "end", "id", "parent", "trial")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    # -- installation ------------------------------------------------------

    def _timed(self, name: str, fn, counter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(out, *args, **kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _idle_channels(self, c, nm) -> int:
        key = (id(nm), c.n_qubits, len(c.gates))
        if key not in self._idle_per_circuit:
            sched = vqesim.simulator.schedule_circuit(c, nm)
            self._idle_per_circuit[key] = sum(
                sum(1 for a, b in iv if b > a) for iv in sched.idle_intervals)
        return self._idle_per_circuit[key]

    def _patches(self):
        """(owner, attribute, span name, counter) for every traced call."""

        def count_nnz(out, h):
            self.nnz[id(h)] = out.nnz

        def count_statevector(out, c, *a, **k):
            self.count(gates_applied=len(c.gates),
                       statevector_bytes=2 * COMPLEX_BYTES * len(c.gates)
                       * 2 ** c.n_qubits)

        def count_density_matrix(out, c, nm, *a, **k):
            idle = self._idle_channels(c, nm)
            # one read and one write of rho per gate and per Kraus channel
            # (amplitude damping and dephasing are two channels per idle)
            self.count(density_matrix_gates_applied=len(c.gates),
                       idle_channels_applied=idle,
                       density_matrix_bytes=2 * COMPLEX_BYTES
                       * (len(c.gates) + 2 * idle) * 4 ** c.n_qubits)

        def count_shots(out, state, h, n_shots, *a, **k):
            measured = sum(1 for letters in h.terms if set(letters) != {"I"})
            self.count(shots_drawn=n_shots * measured)

        def wrap_energy_fn(make):
            def wrapper(*args, **kwargs):
                return self._timed("vqe.evaluation", make(*args, **kwargs))
            wrapper.__wrapped__ = make
            return wrapper

        return [
            (vqesim.pipeline, "prepare_problem", "pipeline.prepare_problem",
             None),
            (vqesim.pipeline, "jordan_wigner", "fermion.jordan_wigner", None),
            (vqesim.ansatz, "jordan_wigner", "fermion.jordan_wigner", None),
            (vqesim.pauli.PauliSum, "sparse_matrix", "pauli.sparse_matrix",
             count_nnz),
            (vqesim.exact, "ground_state", "exact.ground_state", None),
            (vqesim.pipeline, "build_ansatz", "ansatz.build", None),
            (vqesim.ansatz.ParameterizedCircuit, "bind", "ansatz.bind", None),
            (vqesim.vqe, "run_statevector", "simulator.statevector",
             count_statevector),
            (vqesim.vqe, "run_density_matrix", "simulator.density_matrix",
             count_density_matrix),
            (vqesim.vqe, "expectation_exact", "simulator.expectation_exact",
             None),
            (vqesim.vqe, "expectation_sampled",
             "simulator.expectation_sampled", count_shots),
            (vqesim.vqe, "minimize", "vqe.trial", None),
            (vqesim.vqe, "run_trials", "vqe.run_trials", None),
            (vqesim.vqe, "make_energy_fn", None, wrap_energy_fn),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if name is None:
                    setattr(owner, attr, counter(original))
                else:
                    setattr(owner, attr, self._timed(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
