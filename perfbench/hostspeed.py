"""Scale loop time to a reference host speed with an interleaved kernel.

The host this benchmark was tuned on is shared: one evaluation takes
from 0.7x to 1.3x its usual time as other tenants come and go, and a
20-second run can sit in a slow or a fast spell as a whole. Dividing the
loop's rate by the speed of a fixed kernel, timed at the same moments,
takes most of that out.

The kernel does a fixed amount of the kind of work the engines do (2x2
gates applied with einsum to a 6-qubit density matrix and to a 12-qubit
statevector, with the reshapes between them) in code of its own, so it
does not change when the program does. An evaluation's cycle is the
time from the previous evaluation's return (or the trial's start) to its
own, which includes the optimizer's work. Once ``PERIOD_S`` has passed
on a trial, the kernel runs after the next evaluation, timed in thread
CPU time so that waiting for the interpreter lock does not count, and
the mean cycle since the last kernel run over the kernel's time is one
sample. A sweep point's cycle at reference speed is the median sample
times ``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

import numpy as np

import vqesim.vqe

REFERENCE_S = 0.010     # median kernel time on the reference machine
PERIOD_S = 0.2          # least time between two kernel runs of a trial


def _gate(k: int) -> np.ndarray:
    c, s = np.cos(0.1 * k), np.sin(0.1 * k)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def kernel() -> tuple[float, float]:
    """(wall, thread CPU) seconds of one pass of density-matrix and
    statevector gates."""
    start, cpu = time.perf_counter(), time.thread_time()
    n_dm, n_sv = 6, 12
    dim = 2 ** n_dm
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for k in range(30):
        q, u = k % n_dm, _gate(k)
        axes = (n_dm - 1 - q, 2 * n_dm - 1 - q)
        t = np.moveaxis(rho.reshape([2] * (2 * n_dm)), axes, (0, 1))
        shape = t.shape
        t = np.einsum("ab,bcx,dc->adx", u, t.reshape(2, 2, -1), u.conj())
        rho = np.moveaxis(t.reshape(shape), (0, 1), axes).reshape(dim, dim)
    psi = np.zeros(2 ** n_sv, dtype=complex)
    psi[0] = 1.0
    for k in range(60):
        q, u = k % n_sv, _gate(k)
        psi = np.einsum("ab,xbl->xal", u,
                        psi.reshape(-1, 2, 2 ** q)).reshape(-1)
    return time.perf_counter() - start, time.thread_time() - cpu


class HostSpeed:
    """Evaluation cycles and kernel times collected over a run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.evaluations: dict[str, int] = defaultdict(int)
        self.cycle_s = 0.0
        self.kernel_s = 0.0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def interleaved(self, label: str):
        """Time every evaluation of the block and run the kernel between."""
        make = vqesim.vqe.make_energy_fn

        def recording(*args, **kwargs):
            energy = make(*args, **kwargs)
            now = time.perf_counter()
            last = {"resume": now, "kernel": now, "cycles": 0.0, "n": 0}

            def timed(theta):
                value = energy(theta)
                done = time.perf_counter()
                cycle = done - last["resume"]
                last["cycles"] += cycle
                last["n"] += 1
                kernel_s = 0.0
                ratio = None
                if done - last["kernel"] >= PERIOD_S:
                    kernel_s, kernel_cpu = kernel()
                    ratio = last["cycles"] / last["n"] / kernel_cpu
                    last.update(kernel=time.perf_counter(), cycles=0.0, n=0)
                with self._lock:
                    self.evaluations[label] += 1
                    self.cycle_s += cycle
                    self.kernel_s += kernel_s
                    if ratio is not None:
                        self.samples[label].append(ratio)
                last["resume"] = time.perf_counter()
                return value
            return timed

        vqesim.vqe.make_energy_fn = recording
        try:
            yield
        finally:
            vqesim.vqe.make_energy_fn = make

    def scale(self) -> float:
        """Loop time at reference speed over loop time as measured."""
        reference = sum(n * float(np.median(self.samples[label])) * REFERENCE_S
                        for label, n in self.evaluations.items())
        return reference / self.cycle_s
