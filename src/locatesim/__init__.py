"""Discrete-event simulator for LoRa-based emergency message dissemination.

Implements the LOCATE scheme (distance-biased contention plus a DTN
carry-and-forward stage) alongside flooding and probabilistic-relay baselines,
with a deterministic kernel and a Monte Carlo experiment harness.

The package root exports nothing: import each name from its module. Importing
the package loads the standard-library modules every run uses (`dataclasses`,
`enum`, `heapq`, `math`, `random`, and `typing`, since `Event` and `Message`
are `typing.NamedTuple`s; `argparse` and `pathlib` for the CLI) and nothing
else. Two are loaded on first use: `statistics` with the first aggregate, and
the process pool with the first pooled batch (`experiments.__getattr__`).
"""
