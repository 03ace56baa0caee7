"""Monte Carlo estimation and distribution-comparison helpers.

All estimators are deterministic functions of their sample inputs; the
confidence convention throughout the package is the 3-sigma-equivalent
(99.7%) Wilson interval.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_Z = 3.0


@dataclass(frozen=True)
class BernoulliEstimate:
    """Success-rate estimate with a Wilson score interval."""

    successes: int
    trials: int
    rate: float
    ci_low: float
    ci_high: float
    z: float = DEFAULT_Z

    def contains(self, p: float) -> bool:
        return self.ci_low <= p <= self.ci_high


def bernoulli_estimate(successes: int, trials: int, z: float = DEFAULT_Z) -> BernoulliEstimate:
    """Wilson score interval for a binomial rate."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # the interval endpoints are exactly 0/1 at the extreme counts; rounding
    # in center +- half must not exclude them
    ci_low = 0.0 if successes == 0 else max(0.0, center - half)
    ci_high = 1.0 if successes == trials else min(1.0, center + half)
    return BernoulliEstimate(
        successes=successes,
        trials=trials,
        rate=p,
        ci_low=ci_low,
        ci_high=ci_high,
        z=z,
    )


@dataclass(frozen=True)
class Row:
    """One result row: an estimate, its optional interval, a reference and a pass flag."""

    label: str
    value: float
    reference: float
    within: bool
    ci_low: float | None = None
    ci_high: float | None = None

    def as_record(self) -> dict:
        return {
            "label": self.label,
            "value": float(self.value),
            "ci_low": None if self.ci_low is None else float(self.ci_low),
            "ci_high": None if self.ci_high is None else float(self.ci_high),
            "reference": float(self.reference),
            "within": bool(self.within),
        }

    def csv_cells(self) -> list:
        """The ROW_HEADER cells of this row, as written to CSV."""
        return [
            self.label,
            repr(float(self.value)),
            "" if self.ci_low is None else repr(float(self.ci_low)),
            "" if self.ci_high is None else repr(float(self.ci_high)),
            repr(float(self.reference)),
            bool(self.within),
        ]


ROW_HEADER = ("label", "value", "ci_low", "ci_high", "reference", "within")


def csv_text(header, rows) -> str:
    """CSV text of a header line and rows of cells, each line ending in a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload) -> str:
    """JSON text with sorted keys, a two-space indent and a closing newline; other iterables become lists."""
    return json.dumps(payload, indent=2, sort_keys=True, default=list) + "\n"


def interval_row(label: str, successes: int, trials: int, reference: float) -> Row:
    """A success rate, its Wilson interval, and whether the reference lies inside."""
    est = bernoulli_estimate(successes, trials)
    return Row(
        label=label,
        value=est.rate,
        reference=reference,
        within=est.contains(reference),
        ci_low=est.ci_low,
        ci_high=est.ci_high,
    )


def tolerance_row(label: str, value: float, tolerance: float) -> Row:
    return Row(label=label, value=value, reference=tolerance, within=value <= tolerance)


def mean_row(label: str, samples: np.ndarray, reference: float, sd: float) -> Row:
    """Sample mean within 3 standard errors, sd / sqrt(samples), of the reference."""
    mean = float(np.mean(samples))
    se = sd / math.sqrt(samples.size)
    return Row(
        label=label,
        value=mean,
        reference=reference,
        within=abs(mean - reference) <= 3.0 * se,
        ci_low=mean - 3.0 * se,
        ci_high=mean + 3.0 * se,
    )


@dataclass(frozen=True)
class EcdfComparison:
    """Kolmogorov-Smirnov distance of a sample to a reference CDF."""

    n: int
    statistic: float
    reference: str


def ks_distance(samples, cdf, reference: str = "reference") -> EcdfComparison:
    """Sup-norm distance between the empirical CDF and a reference CDF.

    The reference must be monotone nondecreasing over the sample range;
    this is checked on the sorted sample points.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 samples for a meaningful comparison")
    f = np.asarray(cdf(x), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("reference CDF is not monotone on the sample range")
    if np.any((f < -1e-12) | (f > 1.0 + 1e-12)):
        raise ValueError("reference CDF leaves [0, 1]")
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    return EcdfComparison(n=n, statistic=max(d_plus, d_minus, 0.0), reference=reference)


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    std: float
    mode: float


def moment_summary(samples) -> MomentSummary:
    """Sample mean, standard deviation, and a histogram-peak mode estimate.

    Bins follow the Freedman-Diaconis rule with a floor of 20 bins, which
    stays robust for long-tailed waiting-time data.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples")
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = q75 - q25
    span = float(np.max(x) - np.min(x))
    if span == 0.0:
        return MomentSummary(mean=mean, std=std, mode=float(x[0]))
    if iqr > 0.0:
        width = 2.0 * iqr / x.size ** (1.0 / 3.0)
        bins = max(20, int(math.ceil(span / width)))
    else:
        bins = 20
    counts, edges = np.histogram(x, bins=bins)
    k = int(np.argmax(counts))
    return MomentSummary(mean=mean, std=std, mode=float(0.5 * (edges[k] + edges[k + 1])))
