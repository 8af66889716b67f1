"""Scalar verdicts as a report.Block: the one input assemble_report takes, so
a reference report can be assembled from classify_*_prime one prime at a time."""

from __future__ import annotations

import numpy as np

from unitscan.report import CODES, HIT, Block


def block_of(verdicts, denominators=None) -> Block:
    """The Block of a list of Verdicts in ascending prime order; denominators
    maps the int64 primes to each one's hit denominator (default: p)."""
    verdicts = list(verdicts)
    primes = np.array([v.p for v in verdicts], dtype=np.int64)
    return Block.of(
        primes,
        np.array([CODES.index(v.reason or v.status) for v in verdicts], dtype=np.int8),
        tuple(v.aux for v in verdicts if v.status == HIT),
        denominators=None if denominators is None else denominators(primes),
    )
