"""Machine-speed probe for rescaling wall-clock times on a shared host.

On a small shared machine the speed of one core drifts by up to 2x within
seconds as other tenants load it, which swamps the differences a benchmark
must resolve. A probe samples that speed every INTERVAL_S: a SIGALRM
handler times a fixed pure-Python kernel that reads scattered entries of a
list larger than the first-level caches. Of the kernels tried, this one
tracked the corpus operations' own slowdowns best (log-log slope 1.0,
correlation 0.89 over one-second bins); compute-only loops under-react. The speed factor REFERENCE_S /
(kernel time), smoothed over SMOOTH samples, is integrated over time, and
an interval's rescaled duration is the integral of the factor across it:
the time the interval would have taken had the kernel run in REFERENCE_S
throughout. This cancels the drift that the program and the kernel share;
the raw wall-clock times are reported beside the rescaled ones.
"""
import signal
import time

INTERVAL_S = 0.01
REFERENCE_S = 15e-6
SMOOTH = 5
_TABLE = list(range(1 << 16))
_PROBES = [(i * 7919) % (1 << 16) for i in range(300)]


def kernel():
    total = 0
    for j in _PROBES:
        total += _TABLE[j]
    return total


class SpeedProbe:
    """Samples the kernel's duration every INTERVAL_S inside a with-block."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, signum, frame):
        kernel()  # warm the caches the kernel needs, untimed
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.starts.append(t0)
        self.durations.append(best)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._integrate()
        return False

    def _integrate(self):
        import numpy as np  # late, so a probe can wrap numpy's own import

        t = np.asarray(self.starts, dtype=float)
        d = np.asarray(self.durations, dtype=float)
        if len(t) < 2:
            # too short to sample: leave times as measured
            t, d = np.array([0.0, 1.0]), np.full(2, REFERENCE_S)
        half = SMOOTH // 2
        padded = np.pad(d, half, mode="edge")
        smooth = np.median(
            np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        factor = REFERENCE_S / smooth
        integral = np.concatenate([[0.0], np.cumsum(factor[:-1] * np.diff(t))])
        # extend both ends at the edge factors so every time maps linearly
        far = 1e9
        self._t = np.concatenate([[t[0] - far], t, [t[-1] + far]])
        self._f = np.concatenate([[integral[0] - far * factor[0]], integral,
                                  [integral[-1] + far * factor[-1]]])

    def rescale(self, start, end):
        """Rescaled durations of intervals; arrays or scalars."""
        import numpy as np

        return (np.interp(end, self._t, self._f)
                - np.interp(start, self._t, self._f))
