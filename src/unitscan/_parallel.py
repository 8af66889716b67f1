"""Deterministic partition-and-merge driver shared by the range scanners.

A scan range is cut at the multiples of the chunk width, 2^18 for every scan
(the scans take none), the first chunk starting at the range's low end.  Each
chunk is sieved to an int64 array in the process that classifies it, and a
scan family's lane classifier turns (args, primes) into a report.Block; the
blocks are joined in range order, so the result is identical for any worker
count.  A range within one chunk runs serially: a pool would cost more.  A
worker that dies (killed, crashed, unable to start) raises BrokenProcessPool.
"""

from __future__ import annotations

import os
from multiprocessing import get_context

from .primes import prime_array
from .report import Block


def _chunk(classify, args, a: int, b: int) -> Block:
    """One chunk: the primes in [a, b] classified; module-level, so a pool can pickle it."""
    return classify(args, prime_array(a, b))


def run_chunked(classify, args, lo: int, hi: int, workers: int = 1, chunk_span: int = 1 << 18):
    """Join the Blocks of classify(args, primes) over [lo, hi], chunk_span integers at a time."""
    if workers < 1 or chunk_span < 1:
        raise ValueError(f"workers={workers} and chunk_span={chunk_span} must be at least 1")
    # a power of two dividing 2^25 (MULMOD_PMAX) keeps a chunk's primes below it off the slower digit path
    chunks = [(classify, args, max(a, lo), min(a + chunk_span - 1, hi))
              for a in range(lo - lo % chunk_span, hi + 1, chunk_span)]
    size = min(workers, len(chunks), os.cpu_count() or 1)  # never more processes than cores
    if size <= 1:
        parts = [_chunk(*c) for c in chunks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # here, so a serial scan never loads it
        with ProcessPoolExecutor(size, mp_context=get_context()) as pool:
            parts = list(pool.map(_chunk, *zip(*chunks)))
    return Block.join(parts)
