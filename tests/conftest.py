"""Shared builders for constructed-topology router tests."""

import numpy as np

from risroute.config import SimConfig
from risroute.router import BASELINE_POLICIES, Router
from risroute.topology import Topology
from risroute.traffic import chain_law


def build_topology(iu_xy, ris_xy=(), src=(0.0, 200.0), dst=(400.0, 200.0), arena=(400.0, 400.0)):
    """The coverage radius and element count are the config's (60 m and 250 by default)."""
    return Topology(src, dst, np.array(iu_xy, dtype=float), np.array(ris_xy, dtype=float), arena)


def traffic_law(lambda_s, mu_s, cfg):
    """The chain law of per-IU mean OFF and ON lengths (seconds) at ``cfg``'s slot, delta and p_th."""
    return chain_law(lambda_s, mu_s, cfg.slot_s, cfg.delta, cfg.p_th)


def idle_law(count, cfg):
    """The chain law of ``count`` IUs whose stationary law is essentially always idle."""
    return traffic_law(np.full(count, 1e6), np.full(count, 4e-3), cfg)


def line_config(**overrides):
    base = dict(delta=0.3, packets=2, bits_per_packet=8)
    base.update(overrides)
    return SimConfig(**base)


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def route(topo, law, cfg, rng, variant="full", mobility=None):
    """One route under the policy ``variant`` names (see ``BASELINE_POLICIES``)."""
    return Router(topo, law, cfg, rng, BASELINE_POLICIES[variant], mobility).run()
