"""Discrete-event simulator for LoRa-based emergency message dissemination.

Implements the LOCATE scheme (distance-biased contention plus a DTN
carry-and-forward stage) alongside flooding and probabilistic-relay baselines,
with a deterministic kernel and a Monte Carlo experiment harness.
"""
