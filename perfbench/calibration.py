"""Machine-speed references for normalizing the benchmark's times.

On a shared machine the speed of one core flips between two levels about
1.9x apart, several times a second, and the mix drifts over minutes (process
CPU time moves the same way, so it is not descheduling). A fixed computation,
timed often enough to see the mix, tracks that drift; dividing by it leaves
the cost of the program.

Different code slows by different factors between the two levels, so each
kind of timing has the reference closest to its own work. Neither contains
qreflect code, so no change to the package moves them:

* ``ode``: a DOP853 ``solve_ivp`` of a harmonic oscillator with a Python
  right-hand side, the interpreter, numpy and scipy mix of the operations;
* ``definitions``: compiling and running a module body of frozen dataclasses,
  the mix of ``import qreflect``. Between the two levels it slows within 2%
  as much as the set-up does; ``ode`` slows 13% more.

``SpeedSampler`` times ``ode`` from a SIGALRM handler every ``EVERY_S`` wall
seconds, also in the middle of long operations, and keeps a work clock that
leaves those samples out. Sampling only between operations saw too few points
on the multi-second ``table-cli`` operations. Every reported time is scaled to
a nominal machine on which the references take ``ODE_NOMINAL_S`` and
``DEFINITIONS_NOMINAL_S``; each run prints its raw times too.
"""

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

EVERY_S = 0.1    # wall seconds between reference samples
_Y0 = np.array([1.0 + 0.0j, 0.0j])


def _oscillator(_t, y):
    return (y[1], -y[0])


def ode():
    solve_ivp(_oscillator, (0.0, 12.0), _Y0, method="DOP853", rtol=1e-10, atol=1e-12)


# a module body of the package's kind: frozen dataclasses with methods, whose
# generated code dominates the time of ``import qreflect``
_MODULE_SOURCE = "".join(f"""
@dataclass(frozen=True)
class C{i}:
    a: float = 1.0
    b: int = 2
    c: str = "x"

    def f(self, x):
        return self.a * x + self.b
""" for i in range(6))


def definitions():
    exec(compile(_MODULE_SOURCE, "<reference>", "exec"), {"dataclass": dataclass})


# the references' times on the nominal machine; DEFINITIONS_NOMINAL_S is
# ODE_NOMINAL_S times their ratio, 1.5, measured side by side in a fast spell
ODE_NOMINAL_S = 0.005
DEFINITIONS_NOMINAL_S = 0.0075


class SpeedSampler:
    """Samples of ``ode`` every ``EVERY_S`` seconds while the context is open."""

    def __init__(self):
        self.samples: list[float] = []
        self._paused = 0.0
        self._previous = None

    def clock(self) -> float:
        """Work clock: wall seconds minus the time spent sampling."""
        return time.perf_counter() - self._paused

    def sample(self) -> None:
        start = time.perf_counter()
        ode()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._paused += end - start

    def scale(self, first: int = 0) -> float:
        """Nominal over measured reference time, from ``samples[first:]``."""
        return ODE_NOMINAL_S / statistics.fmean(self.samples[first:])

    def _on_alarm(self, _signum, _frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
