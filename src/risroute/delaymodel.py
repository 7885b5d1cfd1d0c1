"""Per-hop waiting budgets with leftover carry-forward.

A transfer spanning distance l with reach r needs at least Psi = ceil(l/r)
hops, so the source may wait at most T_d0 = T_d/Psi. A relay i that is
Psi_i = floor(|S-U_i|/r) nominal hops out inherits the leftover of its
predecessor plus an equal share of what remains:

    T_di = (T_d - sum_{k<=i-2} w_k - T_d(i-1)) / (Psi - Psi_i)
           + (T_d(i-1) - w_(i-1)),

where w_k is the wait actually suffered at hop k (beta_k t_k when only
relays are involved; c_k t'_k + (1-c_k) t''_k when a hop may instead pay
the reflector-decision delay t''). With no waiting at all the recursion
telescopes to the closed form

    T_di = T_d ( sum_{p=1..i} 1/(Psi-Psi_p) prod_{q=p+1..i} (1 - 1/(Psi-Psi_q))
                 + 1/Psi prod_{n=1..i} (1 - 1/(Psi-Psi_n)) ),

which increases monotonically in i. Leftover budget carries forward one
hop only; a negative budget is returned as-is so feasibility is decided
by the caller in one place.

The recursion holds only while Psi_i < Psi. A relay at or past the
nominal hop span lies at least Psi r, so at least l, from the source (a hop
must end closer to the destination, not between it and the source). No
nominal hop is left there to share the budget, and the step would divide by
zero or by a negative hop count, so the relay's limit is pinned to the
route's remaining budget instead (``DelayBudget.pin_next``).

With a first-hop wait in the small-T_s/mu regime, t_0 = mu ln(T_s/(mu p_th))
+ T_s (the Taylor form of the deferral wait), the first relay's budget is

    T_d1 = T_d ( (1/(Psi-Psi_1)) (1 - 1/Psi) + 1/Psi ) - t_0.

The router runs only the recursion (``DelayBudget``). A step reads the
last limit and the sum of the waits before it, so the budget keeps just
those two numbers. The sum is a running total, one addition per hop, left
to right: CPython's builtin ``sum`` compensates float sums from 3.12 on,
which would make the limits, and so the routes, depend on the Python
version. The closed form and the Taylor forms are analysis results; they
live in ``tests/test_delaymodel.py`` as oracles the recursion is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DelayBudget:
    """Running budget record for one route: the current position's limit T_di
    and the total of the waits w_k paid before it.

    w_k is whatever hop k paid (a relay deferral, or the reflector decision
    slot plus any deferral), so one recursion serves the relay-only, all-busy
    and mixed relay/reflector variants alike. Every hop adds one wait and sets
    one limit, recursed or pinned at an overshoot.
    """

    total: float
    psi: int
    current_limit: float  # T_di, the maximum acceptable wait at the current position
    waited: float = 0.0  # sum of the waits paid before the current position, left to right

    @classmethod
    def start(cls, total: float, psi: int) -> "DelayBudget":
        if total <= 0 or psi < 1:
            raise ValueError("total delay and Psi must be positive")
        return cls(total=total, psi=psi, current_limit=total / psi)

    def advance(self, wait_s: float, psi_next: int, remaining_s: float) -> float:
        """Record the wait paid at the current position and budget the next.

        Returns the new position's limit (may be negative; not clamped): one
        recursion step while psi_next < Psi, else ``pin_next(wait_s,
        remaining_s)``, the route's remaining budget (module docstring).
        """
        if psi_next >= self.psi:
            return self.pin_next(wait_s, remaining_s)
        if wait_s < 0:
            raise ValueError("wait must be nonnegative")
        prev = self.current_limit
        return self._record(wait_s, (self.total - self.waited - prev) / (self.psi - psi_next) + (prev - wait_s))

    def pin_next(self, wait_s: float, limit: float) -> float:
        """Record the wait and pin the next limit to ``limit``: ``advance`` at an overshoot."""
        if wait_s < 0:
            raise ValueError("wait must be nonnegative")
        return self._record(wait_s, limit)

    def _record(self, wait_s: float, limit: float) -> float:
        self.waited += wait_s
        self.current_limit = limit
        return limit
