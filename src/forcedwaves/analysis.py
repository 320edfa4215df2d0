"""Tail-decay fitting and regime verdicts for computed waves.

Each candidate decay law enters as a DecayAnsatz shape with a single free
amplitude; fits are least squares in log space over a tail window.  Ranking
by rms log-error is the quantitative arbiter between competing laws (e.g.
K/z versus K z^{-gamma/c} for the same wave); when the top two candidates
land within 20% of each other the ranking is declared ambiguous rather than
silently resolved — critically slow tails can be genuinely indistinguishable
on desk-scale domains.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .environment import (AnsatzUnavailableError, DecayAnsatz,
                          EnvironmentProfile, classify)
from .tables import write_csv

__all__ = [
    "DecayFit",
    "FitRanking",
    "FitWindowError",
    "tail_window",
    "local_log_derivative",
    "fit_decay",
    "InventoryVerdict",
    "inventory_verdict",
]

EXni_TAGS = ("pure_exp", "sigma1")

# smallest field value whose log is still meaningful rather than underflow noise
LOG_FLOOR = 10.0 * np.finfo(float).tiny

# fits whose rms log-error is within this relative gap of the best are tied
# and keep the caller's candidate order: on an exponential tail sigma1 = -c to
# machine precision, so pure_exp and sigma1 are one law and rounding alone
# would pick between them
_RMS_TIE = 1e-6


class FitWindowError(ValueError):
    """Tail window unusable: too short, field underflowed in log space, or
    no candidate defined on it."""

    kind = "fit_window"


@dataclass(frozen=True)
class DecayFit:
    candidate: DecayAnsatz
    window: tuple
    amplitude: float
    rms_log_error: float
    local_rate_error: float
    n_points: int

    @property
    def tag(self) -> str:
        return self.candidate.tag

    def to_dict(self) -> dict:
        return {
            "candidate": self.tag,
            "window": [self.window[0], self.window[1]],
            "amplitude": self.amplitude,
            "rms_log_error": self.rms_log_error,
            "local_rate_error": self.local_rate_error,
            "n_points": self.n_points,
        }


@dataclass(frozen=True)
class FitRanking:
    fits: tuple  # DecayFit, ascending rms_log_error
    ambiguous: bool

    @property
    def winner(self) -> DecayFit:
        return self.fits[0]

    def __iter__(self):
        return iter(self.fits)

    def __len__(self):
        return len(self.fits)

    def __getitem__(self, i):
        return self.fits[i]

    def to_json(self, path=None) -> str:
        payload = json.dumps(
            {"ambiguous": self.ambiguous,
             "fits": [f.to_dict() for f in self.fits]},
            sort_keys=True, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(payload + "\n")
        return payload

    def to_csv(self, path) -> None:
        write_csv(path, ["candidate", "K", "rms_log_error", "rate_error"],
                  [[f.tag for f in self.fits],
                   [f.amplitude for f in self.fits],
                   [f.rms_log_error for f in self.fits],
                   [f.local_rate_error for f in self.fits]])


def tail_window(grid: np.ndarray, window_fraction: float = 0.2) -> np.ndarray:
    """Mask for the fit window: last `window_fraction` of the domain minus
    the final 2% (Robin rows distort the last cells)."""
    span = float(grid[-1] - grid[0])
    z_b = float(grid[-1]) - 0.02 * span
    z_a = float(grid[-1]) - window_fraction * span
    return (grid >= z_a) & (grid <= z_b)


def local_log_derivative(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise ValueError("log-derivative needs strictly positive values")
    return np.gradient(np.log(values), grid)


def fit_decay(wave, candidates: Sequence[DecayAnsatz],
              window_fraction: float = 0.2) -> FitRanking:
    if not candidates:
        raise ValueError("no candidates given")
    grid, phi = np.asarray(wave.grid), np.asarray(wave.phi)
    mask = tail_window(grid, window_fraction)
    z = grid[mask]
    v = phi[mask]
    if len(z) < 100:
        raise FitWindowError(
            f"tail window has {len(z)} points; need at least 100")
    if np.any(v <= LOG_FLOOR):
        raise FitWindowError(
            "field underflowed in the tail window; log-space fit meaningless")
    logv = np.log(v)
    dlogv = local_log_derivative(v, z)

    fits = []
    for cand in candidates:
        # a candidate undefined on the window (e.g. sigma1 complex there)
        # is not a competing law at this speed: leave it out of the ranking
        try:
            shape = np.asarray(cand.value(z), dtype=float)
            rate = np.asarray(cand.log_derivative(z), dtype=float)
        except AnsatzUnavailableError:
            continue
        if np.any(shape <= 0.0) or not np.all(np.isfinite(shape)):
            raise FitWindowError(
                f"candidate {cand.tag} is not positive/finite on the window")
        r = logv - np.log(shape)
        logK = float(np.mean(r))
        rms = float(np.sqrt(np.mean((r - logK) ** 2)))
        rate_err = float(np.max(np.abs(dlogv - rate)))
        fits.append(DecayFit(candidate=cand,
                             window=(float(z[0]), float(z[-1])),
                             amplitude=math.exp(logK),
                             rms_log_error=rms,
                             local_rate_error=rate_err,
                             n_points=len(z)))
    if not fits:
        raise FitWindowError("no candidate is defined on the tail window: "
                             + ", ".join(cand.tag for cand in candidates))
    tie = (1.0 + _RMS_TIE) * min(f.rms_log_error for f in fits)
    fits.sort(key=lambda f: f.rms_log_error if f.rms_log_error > tie else 0.0)
    ambiguous = (len(fits) >= 2
                 and fits[1].rms_log_error <= 1.2 * fits[0].rms_log_error)
    return FitRanking(fits=tuple(fits), ambiguous=ambiguous)


# ---------------------------------------------------------------------------
# regime verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InventoryVerdict:
    inventory: str
    case_123: str
    checks: tuple  # of dicts: prediction / passed / measured

    @property
    def all_pass(self) -> bool:
        return all(ch["passed"] for ch in self.checks)

    def to_json(self, path=None) -> str:
        payload = json.dumps(
            {"inventory": self.inventory, "case": self.case_123,
             "all_pass": self.all_pass, "checks": list(self.checks)},
            sort_keys=True, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(payload + "\n")
        return payload


def _winner_tags(ranking: FitRanking) -> set:
    # an ambiguous ranking supports either of its top two laws
    tags = {ranking.fits[0].tag}
    if ranking.ambiguous and len(ranking.fits) >= 2:
        tags.add(ranking.fits[1].tag)
    return tags


def inventory_verdict(profile: EnvironmentProfile, c: float,
                      solved: Sequence, fits: Sequence[FitRanking]) -> InventoryVerdict:
    """Compare the achieved wave set + fitted decay laws against the
    classifier's predicted inventory.  `fits[i]` belongs to `solved[i]`."""
    if len(solved) != len(fits):
        raise ValueError("solved and fits must be parallel")
    report = classify(profile, c)
    winner_sets = [_winner_tags(r) for r in fits]
    checks = []

    if report.inventory == "none":
        checks.append({
            "prediction": "no forced wave",
            "passed": len(solved) == 0,
            "measured": f"{len(solved)} waves supplied",
        })
    if report.minimal_decay is not None:
        hit = [i for i, tags in enumerate(winner_sets)
               if tags & set(EXni_TAGS)]
        measured = (f"wave {hit[0]} fits exponential family, rate error "
                    f"{fits[hit[0]].winner.local_rate_error:.3e}" if hit
                    else "no wave fits the exponential family")
        checks.append({
            "prediction": "minimal wave decaying exponentially",
            "passed": bool(hit),
            "measured": measured,
        })
    if report.maximal_decay is not None:
        tag = report.maximal_decay.tag
        hit = [i for i, tags in enumerate(winner_sets) if tag in tags]
        checks.append({
            "prediction": f"maximal wave with decay {tag}",
            "passed": bool(hit),
            "measured": (f"wave {hit[0]} fits {tag}" if hit
                         else f"no wave fits {tag}"),
        })
    if report.case_123 in ("2", "3"):
        slow = [i for i, tags in enumerate(winner_sets)
                if tags - set(EXni_TAGS)]
        checks.append({
            "prediction": "non-exponential multiplicity (several slow waves)",
            "passed": len(slow) >= 2,
            "measured": f"{len(slow)} waves with non-exponential winners",
        })
    return InventoryVerdict(inventory=report.inventory,
                            case_123=report.case_123,
                            checks=tuple(checks))
