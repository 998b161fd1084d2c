"""Confidence intervals and stratified estimators for outcome rates.

Campaign outcomes are Bernoulli observations: each injected fault either
lands in a given category (Vanished, OMM, ...) or it does not.  This
module provides the interval machinery the adaptive sampling controller
stops on:

* :func:`wilson_interval` — the Wilson score interval, the default.  It
  behaves well at the extremes (0 or n successes) where the naive Wald
  interval collapses to zero width.
* :func:`clopper_pearson` — the exact (conservative) interval, built on
  the regularized incomplete beta function implemented here from
  ``math.lgamma`` (standard library only).
* :func:`post_stratified` — reweights per-stratum rates by known stratum
  probabilities.  With proportional weights it reduces exactly to the
  plain pooled estimator; with Neyman-style allocation it is the reason
  adaptive campaigns need fewer faults than uniform ones.

``NotInjected`` runs carry no fault-behaviour information; callers must
exclude them before counting (see :func:`outcome_estimates`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.injection.classify import NOT_INJECTED, Outcome

#: Rates the sampling controller tracks for its stopping rule.  The
#: masking rate ("masked" = Vanished + ONA) is tracked as one combined
#: rate: its two components are individually noisy (a dead register can
#: flip a fault between Vanished and ONA) but their sum is the paper's
#: headline metric and stratifies cleanly over register liveness.
TRACKED_RATES: Tuple[str, ...] = ("masked", "OMM", "UT", "Hang", "Detected")

#: Outcome categories folded into each trackable rate.  ``Recovered``
#: is estimable but deliberately absent from :data:`TRACKED_RATES`:
#: adding it to the default stopping rule would change the variance
#: sums — and therefore the batch draws — of every existing adaptive
#: campaign.  Recovery sweeps opt in via ``SamplingPlan.track`` (see
#: ``scripts/run_campaign.py``).
RATE_COMPONENTS: Dict[str, Tuple[str, ...]] = {
    "masked": (Outcome.VANISHED.value, Outcome.ONA.value),
    "OMM": (Outcome.OMM.value,),
    "UT": (Outcome.UT.value,),
    "Hang": (Outcome.HANG.value,),
    "Detected": (Outcome.DETECTED.value,),
    "Recovered": (Outcome.RECOVERED.value,),
}


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Accurate to ~1.15e-9 over (0, 1) — far below sampling noise for any
    campaign this repo can run, and stdlib-only.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    # Coefficients of Acklam's approximation.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def confidence_z(confidence: float) -> float:
    """Two-sided normal critical value for a confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return normal_quantile(0.5 + confidence / 2.0)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    _check_counts(successes, trials)
    if trials == 0:
        return (0.0, 1.0)
    z = confidence_z(confidence)
    n = float(trials)
    p_hat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p_hat + z2 / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))
    return (max(0.0, centre - margin), min(1.0, centre + margin))


# ----------------------------------------------------------------------
# Clopper-Pearson via the regularized incomplete beta function
# ----------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-30
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _beta_quantile(p: float, a: float, b: float) -> float:
    """Inverse of I_x(a, b) by bisection (monotone, always converges)."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson(successes: int, trials: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Exact (conservative) binomial confidence interval."""
    _check_counts(successes, trials)
    if trials == 0:
        return (0.0, 1.0)
    alpha = 1.0 - confidence
    if successes == 0:
        lower = 0.0
    else:
        lower = _beta_quantile(alpha / 2.0, successes, trials - successes + 1)
    if successes == trials:
        upper = 1.0
    else:
        upper = _beta_quantile(1.0 - alpha / 2.0, successes + 1, trials - successes)
    return (lower, upper)


_INTERVALS = {"wilson": wilson_interval, "clopper-pearson": clopper_pearson}


def binomial_interval(
    successes: int, trials: int, confidence: float = 0.95, method: str = "wilson"
) -> Tuple[float, float]:
    """Dispatch to a named interval method ("wilson" or "clopper-pearson")."""
    try:
        fn = _INTERVALS[method]
    except KeyError:
        raise ValueError(f"unknown interval method {method!r}; know {sorted(_INTERVALS)}")
    return fn(successes, trials, confidence)


def _check_counts(successes: int, trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 0 <= successes <= max(trials, 0):
        raise ValueError(f"successes {successes} outside [0, {trials}]")


# ----------------------------------------------------------------------
# Rate estimates over outcome counts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RateEstimate:
    """A point estimate with its confidence interval, on the [0, 1] scale."""

    rate: str
    estimate: float
    lower: float
    upper: float
    successes: int
    trials: int
    confidence: float
    method: str

    @property
    def half_width(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "estimate": self.estimate,
            "lower": self.lower,
            "upper": self.upper,
            "half_width": self.half_width,
            "successes": self.successes,
            "trials": self.trials,
            "confidence": self.confidence,
            "method": self.method,
        }


def observed_total(counts: Mapping[str, int]) -> int:
    """Number of *injected* runs — NotInjected excluded."""
    return sum(value for key, value in counts.items() if key != NOT_INJECTED)


def rate_successes(counts: Mapping[str, int], rate: str) -> int:
    """Successes for a tracked rate (sums its component outcomes)."""
    try:
        components = RATE_COMPONENTS[rate]
    except KeyError:
        raise ValueError(f"unknown tracked rate {rate!r}; know {sorted(RATE_COMPONENTS)}")
    return sum(counts.get(component, 0) for component in components)


def outcome_estimates(
    counts: Mapping[str, int],
    confidence: float = 0.95,
    method: str = "wilson",
    rates: Sequence[str] = TRACKED_RATES,
) -> Dict[str, RateEstimate]:
    """Interval estimates for the tracked rates over raw outcome counts.

    ``NotInjected`` is excluded from both numerator and denominator: a
    run that finished before its injection point observed nothing.
    """
    trials = observed_total(counts)
    estimates: Dict[str, RateEstimate] = {}
    for rate in rates:
        successes = rate_successes(counts, rate)
        lower, upper = binomial_interval(successes, trials, confidence, method)
        estimates[rate] = RateEstimate(
            rate=rate,
            estimate=(successes / trials) if trials else 0.0,
            lower=lower,
            upper=upper,
            successes=successes,
            trials=trials,
            confidence=confidence,
            method=method,
        )
    return estimates


def max_half_width(estimates: Mapping[str, RateEstimate]) -> float:
    """The widest half-interval across tracked rates (the stopping metric)."""
    if not estimates:
        return 1.0
    return max(estimate.half_width for estimate in estimates.values())


# ----------------------------------------------------------------------
# Post-stratified estimation
# ----------------------------------------------------------------------


def smoothed_variance(successes: int, trials: int) -> float:
    """Smoothed Bernoulli variance (x+1/2)(n-x+1/2)/(n+1)^2.

    The add-half (Jeffreys-style) smoothing keeps empty or one-sided
    strata from claiming exactly zero variance, which would starve them
    of samples forever under Neyman allocation.
    """
    _check_counts(successes, trials)
    n = trials + 1.0
    return ((successes + 0.5) * (trials - successes + 0.5)) / (n * n)


@dataclass(frozen=True)
class StratifiedEstimate:
    """Post-stratified rate estimate: sum_h p_h * p̂_h with normal CI.

    ``unsampled_weight`` is the total probability of strata with zero
    observations — their rates are unknown, so the interval is clipped
    to admit anything in those cells (the controller's allocation floor
    drives this to zero before convergence is possible).
    """

    rate: str
    estimate: float
    variance: float
    confidence: float
    trials: int
    strata_sampled: int
    unsampled_weight: float

    @property
    def half_width(self) -> float:
        base = confidence_z(self.confidence) * math.sqrt(max(self.variance, 0.0))
        return min(1.0, base + self.unsampled_weight)

    @property
    def lower(self) -> float:
        return max(0.0, self.estimate - self.half_width)

    @property
    def upper(self) -> float:
        return min(1.0, self.estimate + self.half_width)

    def as_dict(self) -> dict:
        return {
            "rate": self.rate,
            "estimate": self.estimate,
            "half_width": self.half_width,
            "lower": self.lower,
            "upper": self.upper,
            "variance": self.variance,
            "confidence": self.confidence,
            "trials": self.trials,
            "strata_sampled": self.strata_sampled,
            "unsampled_weight": self.unsampled_weight,
        }


def post_stratified(
    cells: Mapping[str, Tuple[int, int]],
    probabilities: Optional[Mapping[str, float]] = None,
    rate: str = "rate",
    confidence: float = 0.95,
    variance_of: Optional[Mapping[str, float]] = None,
) -> StratifiedEstimate:
    """Post-stratified estimate from per-stratum (successes, trials).

    ``probabilities`` maps stratum key -> its probability under the base
    fault distribution.  When omitted, strata are weighted by their
    observed sample share — which reduces *exactly* to the plain pooled
    estimator (the hypothesis property tier-1 tests pin down).

    ``variance_of`` optionally supplies per-stratum within-stratum
    variance estimates (e.g. pooled over a collapsed parent group, the
    controller's choice — see docs/statistics.md); by default each
    stratum's own smoothed variance is used.  Point estimates always
    come from the stratum's own counts.

    Strata are iterated in sorted key order so the floating-point
    summation order — and therefore every downstream fingerprint — is
    independent of dict construction order.
    """
    total = sum(trials for _, trials in cells.values())
    if probabilities is None:
        if total == 0:
            probabilities = {}
        else:
            probabilities = {key: cells[key][1] / total for key in cells}
    weight_sum = sum(probabilities.get(key, 0.0) for key in cells)
    estimate = 0.0
    variance = 0.0
    unsampled = max(0.0, 1.0 - weight_sum) if probabilities else 1.0
    sampled = 0
    for key in sorted(cells):
        successes, trials = cells[key]
        _check_counts(successes, trials)
        p_h = probabilities.get(key, 0.0)
        if trials == 0:
            unsampled += p_h
            continue
        sampled += 1
        p_hat = successes / trials
        estimate += p_h * p_hat
        if variance_of is not None and key in variance_of:
            within = variance_of[key]
        else:
            within = smoothed_variance(successes, trials)
        variance += p_h * p_h * within / trials
    return StratifiedEstimate(
        rate=rate,
        estimate=estimate,
        variance=variance,
        confidence=confidence,
        trials=total,
        strata_sampled=sampled,
        unsampled_weight=unsampled,
    )
