"""Discrete-event simulator for LoRa-based emergency message dissemination.

Implements the LOCATE scheme (distance-biased contention plus a DTN
carry-and-forward stage) alongside flooding and probabilistic-relay baselines,
with a deterministic kernel and a Monte Carlo experiment harness.
"""

from .experiments import (Aggregate, RunResult, ScenarioConfig, SweepRow, aggregate,
                          make_behavior, run_batch, run_once, sweep)
from .kernel import EventQueue, RandomStream
from .protocol import (FloodingBehavior, LocateBehavior, Message, ProtocolParams,
                       acceptance_window, distance_bias, dtn_forward_probability,
                       forwarding_window)
from .radio import RadioProfile, broadcast, collided, lora_profile, pdr, wifi_profile
from .world import World, distance, solver_count

__version__ = "0.1.0"

__all__ = [
    "Aggregate", "EventQueue", "FloodingBehavior", "LocateBehavior", "Message",
    "ProtocolParams", "RadioProfile", "RandomStream", "RunResult", "ScenarioConfig",
    "SweepRow", "World", "acceptance_window", "aggregate", "broadcast", "collided",
    "distance", "distance_bias", "dtn_forward_probability", "forwarding_window",
    "lora_profile", "make_behavior", "pdr", "run_batch", "run_once", "solver_count",
    "sweep", "wifi_profile",
]
