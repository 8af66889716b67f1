"""Scalar verdicts as a report.Block: the one input assemble_report takes, so
a reference report can be assembled from classify_*_prime one prime at a time."""

from __future__ import annotations

import numpy as np

from unitscan.report import CODES, HIT, Block


def block_of(verdicts) -> Block:
    """The Block of a list of Verdicts in ascending prime order."""
    verdicts = list(verdicts)
    return Block.of(
        np.array([v.p for v in verdicts], dtype=np.int64),
        np.array([CODES.index(v.reason or v.status) for v in verdicts], dtype=np.int8),
        tuple(v.aux for v in verdicts if v.status == HIT),
    )
