"""Robust statistics for benchmark samples.

The MooBench/Cloudprofiler lesson: a benchmark result is a
*distribution*, not a number.  This module turns a list of samples
into a :class:`SampleStats` — median, MAD, mean/stdev, a confidence
interval for the median (bootstrap by default, Student-t on request)
and outlier tags — with two hard guarantees:

* **permutation invariance** — the statistics of a sample list depend
  only on its multiset of values, never on their order (samples are
  sorted before any resampling, and the bootstrap RNG is seeded), so
  re-ordering repetitions can never change a gate verdict;
* **degenerate safety** — one sample, or all-equal samples, produce a
  zero-width interval tagged ``ci_method="degenerate"`` instead of a
  crash or a NaN (simulated benchmarks are deterministic and hit this
  constantly).
"""

import math
from dataclasses import dataclass, field

import numpy as _np

__all__ = [
    "SampleStats",
    "bootstrap_ci",
    "mad",
    "median",
    "outlier_values",
    "summarize",
    "t_ci",
]

#: Modified z-score above which a sample is tagged as an outlier
#: (Iglewicz & Hoaglin's recommended cut).
OUTLIER_Z = 3.5

#: Consistency constant making MAD comparable to a normal stdev.
MAD_SCALE = 1.4826

# Two-sided Student-t critical values, df 1..30 (then the normal
# quantile is close enough).  scipy is not available offline.
_T_95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
]
_T_99 = [
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
    3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
    2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
    2.763, 2.756, 2.750,
]


def _sorted(samples):
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("no samples")
    return xs


def median(samples):
    xs = _sorted(samples)
    n = len(xs)
    mid = n // 2
    if n % 2:
        return xs[mid]
    return (xs[mid - 1] + xs[mid]) / 2.0


def mad(samples, scale=1.0):
    """Median absolute deviation (``scale=MAD_SCALE`` to make it a
    robust stdev estimate)."""
    med = median(samples)
    return scale * median([abs(x - med) for x in samples])


def outlier_values(samples, cut=OUTLIER_Z):
    """Samples whose modified z-score exceeds ``cut``, as a sorted list
    of *values* (values, not indices — indices would not be
    permutation-invariant).

    When the MAD is zero (at least half the samples identical) any
    sample different from the median is an outlier by this definition.
    """
    med = median(samples)
    spread = mad(samples, scale=MAD_SCALE)
    if spread == 0.0:
        return sorted(float(x) for x in samples if float(x) != med)
    return sorted(
        float(x) for x in samples if abs(float(x) - med) / spread > cut
    )


def bootstrap_ci(samples, level=0.95, resamples=2000, seed=0):
    """Percentile-bootstrap confidence interval for the **median**.

    Returns ``(lo, hi, method)``.  Samples are sorted before
    resampling and the RNG is seeded, so the interval is a pure
    function of the sample multiset.  Degenerate inputs (n == 1 or all
    samples equal) return a zero-width interval tagged
    ``"degenerate"``.
    """
    xs = _sorted(samples)
    n = len(xs)
    if n == 1 or xs[0] == xs[-1]:
        return xs[0], xs[-1], "degenerate"
    alpha = (1.0 - level) / 2.0
    arr = _np.asarray(xs, dtype=float)
    rng = _np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(resamples, n))
    meds = _np.median(arr[idx], axis=1)
    lo, hi = _np.quantile(meds, [alpha, 1.0 - alpha])
    return float(lo), float(hi), "bootstrap"


def t_ci(samples, level=0.95):
    """Student-t confidence interval for the **mean**; ``(lo, hi,
    method)``.  Only the 95%/99% levels carry exact critical values
    (no scipy offline); other levels fall back to the normal 1.96/2.58
    approximation beyond df 30."""
    xs = _sorted(samples)
    n = len(xs)
    if n == 1 or xs[0] == xs[-1]:
        return xs[0], xs[-1], "degenerate"
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    table = _T_99 if level >= 0.99 else _T_95
    df = n - 1
    crit = table[df - 1] if df <= len(table) else (
        2.576 if level >= 0.99 else 1.960
    )
    half = crit * math.sqrt(var / n)
    return mean - half, mean + half, "t"


@dataclass(frozen=True)
class SampleStats:
    """Order-independent summary of one benchmark's samples."""

    count: int
    mean: float
    median: float
    stdev: float
    mad: float
    min: float
    max: float
    ci_low: float
    ci_high: float
    ci_level: float
    ci_method: str
    outliers: tuple = field(default_factory=tuple)

    def to_dict(self):
        data = {k: getattr(self, k) for k in (
            "count", "mean", "median", "stdev", "mad", "min", "max",
            "ci_low", "ci_high", "ci_level", "ci_method",
        )}
        data["outliers"] = list(self.outliers)
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(
            count=int(data["count"]),
            mean=float(data["mean"]),
            median=float(data["median"]),
            stdev=float(data["stdev"]),
            mad=float(data["mad"]),
            min=float(data["min"]),
            max=float(data["max"]),
            ci_low=float(data["ci_low"]),
            ci_high=float(data["ci_high"]),
            ci_level=float(data.get("ci_level", 0.95)),
            ci_method=str(data.get("ci_method", "bootstrap")),
            outliers=tuple(data.get("outliers", ())),
        )


def summarize(samples, level=0.95, method="bootstrap", resamples=2000,
              seed=0):
    """Full :class:`SampleStats` for a sample list.

    ``method`` picks the interval: ``"bootstrap"`` (median CI, the
    default — makes no normality assumption) or ``"t"`` (mean CI).
    """
    xs = _sorted(samples)
    n = len(xs)
    mean = sum(xs) / n
    stdev = (
        math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1))
        if n > 1 else 0.0
    )
    if method == "t":
        lo, hi, how = t_ci(xs, level)
    elif method == "bootstrap":
        lo, hi, how = bootstrap_ci(xs, level, resamples=resamples,
                                   seed=seed)
    else:
        raise ValueError(f"unknown CI method: {method!r}")
    return SampleStats(
        count=n,
        mean=mean,
        median=median(xs),
        stdev=stdev,
        mad=mad(xs, scale=MAD_SCALE),
        min=xs[0],
        max=xs[-1],
        ci_low=lo,
        ci_high=hi,
        ci_level=level,
        ci_method=how,
        outliers=tuple(outlier_values(xs)),
    )
