"""ON/OFF user traffic as two-state discrete-time Markov chains, one per IU.

Each intermediate user alternates exponentially distributed OFF (idle,
mean lambda) and ON (busy, mean mu) periods, sampled on a slot clock of
duration T_s. Per-slot transition probabilities:

    p00 = exp(-T_s/lambda)   p01 = 1 - p00
    p11 = exp(-T_s/mu)       p10 = 1 - p11

On top of the chain sit the routing-side estimators: the duration of
idleness/busyness for an error tolerance delta (``duration_estimate``),

    nu_I = (lambda/T_s) ln(1/(1-delta)),   nu_B = (mu/T_s) ln(1/(1-delta)),

the geometric first-success wait until a busy user turns idle,

    eta_I = (mu/T_s) ln(max((1 - exp(-T_s/mu))/p_th, 1)) + 1,

and the transmission deferral window eta_w = min over busy users of eta_I.

A run's traffic is held as arrays indexed by IU row (the IU's node id
minus ``topology.FIRST_IU_ID``). ``chain_law`` turns the per-IU means
``lambda_s`` and ``mu_s`` (seconds) into a ``ChainLaw``: the stationary
busy probability ``pi``, the chain eigenvalue ``rho``, ``nu_idle`` and
``eta_idle``. The law depends on the traffic config alone, so one law is
computed per config and shared read-only (every array has
``flags.writeable = False``) by the ``TrafficField`` of each route, which
holds only that route's chain states. The estimators accept a scalar or
such an array.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

IDLE = 0
BUSY = 1


def _per_value(fn, x) -> np.ndarray:
    """``fn`` (a ``math`` function) of each element of ``x``, called once per distinct value.

    ``math`` and numpy's ufuncs can differ in the last bit, and results are
    written as ``repr(float)``; a scalar traffic config thus costs one call
    and gives the bits of the scalar formula.
    """
    x = np.asarray(x, dtype=float)
    values, inverse = np.unique(x.ravel(), return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[inverse.ravel()].reshape(x.shape)


def switch_probability(mean_s, slot: float):
    """P(leaving a state within one slot) for exponential sojourns of mean ``mean_s``."""
    return 1.0 - _per_value(math.exp, -slot / np.asarray(mean_s, dtype=float))


def duration_estimate(mean_s, slot: float, delta: float):
    """Slots a user is trusted to stay in a state of mean sojourn ``mean_s``, at error tolerance
    delta: nu_I of the OFF mean lambda, nu_B of the ON mean mu."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return (mean_s / slot) * math.log(1.0 / (1.0 - delta))


def idle_wait_estimate(mu_s, slot: float, p_th: float) -> np.ndarray:
    """Slots until a busy user's first idle slot has probability >= p_th.

    Geometric first-success argument; the max(x, 1) clamp keeps the
    logarithm nonnegative, so the estimate is always >= 1 slot. The ratio
    is a Python float division, which a subnormal p_th overflows to inf
    without a warning, and so to an infinite estimate.
    """
    if not 0.0 < p_th < 1.0:
        raise ValueError("p_th must lie in (0, 1)")
    p10 = switch_probability(mu_s, slot)
    return (np.asarray(mu_s, dtype=float) / slot) * _per_value(lambda p: math.log(max(p / p_th, 1.0)), p10) + 1.0


def deferral_window(busy_eta: np.ndarray) -> int | float:
    """Whole slots to defer transmission: ceil of the busy users' smallest eta_I.

    Rounding up keeps the waited time no shorter than the estimate. An
    infinite estimate (a p_th so small that p10/p_th overflows) stays inf,
    a wait no delay budget fits. An empty array (nobody to wait for) raises
    ValueError.
    """
    eta = float(busy_eta.min())
    return int(math.ceil(eta)) if eta < math.inf else eta


class ChainLaw(NamedTuple):
    """Per-IU chain law and estimators of one traffic config, every array read-only."""

    pi: np.ndarray  # stationary busy probability
    rho: np.ndarray  # chain eigenvalue 1 - p01 - p10
    nu_idle: np.ndarray
    eta_idle: np.ndarray
    slot_is_long: bool  # the slot is not small against some ON/OFF mean


def chain_law(lambda_s, mu_s, slot: float, delta: float, p_th: float) -> ChainLaw:
    """The law of the chains with per-IU means ``lambda_s`` and ``mu_s`` (seconds)."""
    lam, mu = np.broadcast_arrays(np.asarray(lambda_s, dtype=float), np.asarray(mu_s, dtype=float))
    if lam.ndim != 1:
        raise ValueError("lambda_s and mu_s must be one value per IU")
    if not (slot > 0 and np.all(lam > 0) and np.all(mu > 0)):
        raise ValueError("lambda_off, mu_on, and slot must be positive")
    p01 = switch_probability(lam, slot)
    p10 = switch_probability(mu, slot)
    law = ChainLaw(
        pi=p01 / (p01 + p10),
        rho=1.0 - p01 - p10,
        nu_idle=duration_estimate(lam, slot, delta),
        eta_idle=idle_wait_estimate(mu, slot, p_th),
        slot_is_long=bool(lam.size and slot > 0.2 * min(lam.min(), mu.min())),
    )
    for array in law[:-1]:
        array.flags.writeable = False
    return law


class TrafficField:
    """Synchronous chain states for all IUs of one run, advanced lazily.

    All users share one global slot clock. States are only materialized
    when observed (a scan); between observations each chain advances by
    the exact n-step law, one uniform draw per observed user per epoch.
    Initial states are drawn from the chain's stationary distribution.
    ``law`` is shared read-only; ``state`` and ``updated_at`` are this
    field's own.
    """

    def __init__(self, law: ChainLaw, rng: np.random.Generator):
        if law.slot_is_long:
            warnings.warn(
                "slot duration is not small against the ON/OFF means; "
                "multiple state changes per slot become likely",
                stacklevel=2,
            )
        self.law = law
        self.state = (rng.random(law.pi.size) < law.pi).astype(np.int8)
        self.updated_at = np.zeros(law.pi.size, dtype=np.int64)

    def states_at(self, slot: int, indices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Observe the given users at ``slot`` (monotone per user)."""
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size == 0:
            return np.empty(0, dtype=np.int8)
        lag = slot - self.updated_at[indices]
        least = lag.min()
        if least < 0:
            raise ValueError("traffic clock moved backwards")
        stale = indices
        if least == 0:  # some chains were observed at this slot already: only the others move
            moved = lag > 0
            stale, lag = indices[moved], lag[moved]
        if stale.size:
            n = lag.astype(np.float64)
            pi = self.law.pi[stale]
            p_busy = pi + (self.law.rho[stale] ** n) * (self.state[stale] - pi)
            self.state[stale] = (rng.random(stale.size) < p_busy).astype(np.int8)
            self.updated_at[stale] = slot
        return self.state[indices]
