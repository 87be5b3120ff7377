"""Growth-exponent estimation for measured shatter profiles.

A profile is a list of (t, value, exact) samples of a shatter or dual
shatter function.  The fitted log-log slope is a finite-range proxy for
the asymptotic growth exponent: it systematically underestimates the
limit, so reports always carry the t-range and never claim more than
"finite-range proxy".
"""

from __future__ import annotations

import io
import math
import warnings
from typing import NamedTuple, Optional

from .errors import PreconditionError, RangeError, ShapeError
from .value import Value


class ProfileSample(NamedTuple):
    t: int
    value: int
    exact: bool


class ShatterProfile(Value):
    samples: tuple  # of ProfileSample, t strictly increasing
    source: str

    def __init__(self, samples, source=""):
        d = self.__dict__
        d["samples"] = samples
        d["source"] = source

    @classmethod
    def of(cls, samples, source: str = "") -> "ShatterProfile":
        normed = []
        for sample in samples:
            try:
                t, v, e = sample
            except (TypeError, ValueError):
                raise ShapeError(
                    f"sample {sample!r} is not a (t, value, exact) triple"
                ) from None
            for x in (t, v):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ShapeError(f"sample {sample!r}: {x!r} is not an integer")
            normed.append(ProfileSample(t, v, bool(e)))
        for prev, cur in zip(normed, normed[1:]):
            if cur.t <= prev.t:
                raise PreconditionError("sample t values must be strictly increasing")
            if cur.value < prev.value:
                raise PreconditionError("sample values must be nondecreasing")
        for s in normed:
            if s.value < 0 or s.t < 0:
                raise RangeError("samples must be nonnegative")
            if s.value > 1 << s.t:
                raise PreconditionError(f"value {s.value} exceeds 2^{s.t}")
        return cls(tuple(normed), source)

    @classmethod
    def from_csv(cls, text: str, source: str = "") -> "ShatterProfile":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0].strip() != "t,value,exact":
            raise PreconditionError('profile CSV must start with header "t,value,exact"')
        samples = []
        for ln in lines[1:]:
            try:
                t, v, e = map(int, ln.strip().split(","))
            except ValueError:
                raise PreconditionError(
                    f"profile CSV row {ln.strip()!r} is not three integers"
                ) from None
            samples.append((t, v, bool(e)))
        return cls.of(samples, source)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,value,exact\n")
        for s in self.samples:
            buf.write(f"{s.t},{s.value},{1 if s.exact else 0}\n")
        return buf.getvalue()


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r2: float
    t_range: tuple
    n_used: int


def fit_exponent(profile: ShatterProfile, t_min: int = 1, force: bool = False) -> FitResult:
    """Least squares on (log t, log value) over exact samples with
    t >= t_min and value >= 1.

    Profiles containing lower-bound samples are refused unless forced.
    Zero values are skipped with a warning (their log is undefined).
    A profile with no spread in log value fits slope 0 with r2 = 1.
    """
    if not force and any(not s.exact for s in profile.samples):
        raise PreconditionError(
            "profile contains lower-bound samples; pass force=True to fit anyway"
        )
    usable = []
    for s in profile.samples:
        if s.t < t_min or (not s.exact and not force):
            continue
        if s.value < 1:
            warnings.warn(f"skipping sample t={s.t} with value 0 (log undefined)")
            continue
        if s.t < 1:
            continue
        usable.append(s)
    if len(usable) < 3:
        raise PreconditionError(
            f"need at least 3 usable samples, have {len(usable)}"
        )
    xs = [math.log(s.t) for s in usable]
    ys = [math.log(s.value) for s in usable]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        raise PreconditionError("all samples share one t; cannot fit")
    if syy == 0:
        slope, r2 = 0.0, 1.0
    else:
        slope = sxy / sxx
        r2 = (sxy * sxy) / (sxx * syy)
    intercept = my - slope * mx
    return FitResult(slope, intercept, r2, (usable[0].t, usable[-1].t), n)


class Classification(NamedTuple):
    kind: str  # power_like | exponential_so_far | inconclusive
    slope: Optional[float]
    r2: Optional[float]


def classify_growth(
    profile: ShatterProfile, r2_threshold: float = 0.98, t_min: int = 1
) -> Classification:
    """Decide between full exponential growth (value == 2^t at every
    sample) and a power-law fit; inconclusive when the fit is poor or the
    data is too thin."""
    if len(profile.samples) < 2:
        raise PreconditionError("need at least 2 samples")
    if all(s.value == 1 << s.t for s in profile.samples):
        return Classification("exponential_so_far", None, None)
    try:
        fit = fit_exponent(profile, t_min=t_min)
    except PreconditionError:
        return Classification("inconclusive", None, None)
    if fit.r2 >= r2_threshold:
        return Classification("power_like", fit.slope, fit.r2)
    return Classification("inconclusive", fit.slope, fit.r2)


def fit_report_json(profile: ShatterProfile, t_min: int = 1) -> dict:
    """The wire format combining the fit and the classification."""
    cls = classify_growth(profile, t_min=t_min)
    try:
        fit = fit_exponent(profile, t_min=t_min)
    except PreconditionError:
        fit = None
    return {
        "slope": fit.slope if fit else None,
        "intercept": fit.intercept if fit else None,
        "r2": fit.r2 if fit else None,
        "t_range": list(fit.t_range)
        if fit
        else [profile.samples[0].t, profile.samples[-1].t],
        "classification": cls.kind,
    }
