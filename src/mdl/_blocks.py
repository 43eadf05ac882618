"""Deterministic parallel accumulation over integer ranges.

Floating-point addition is not associative, so a parallel sum must pin
its evaluation order to be reproducible.  The scheme here: the summation
range is cut into fixed-width blocks of the summation variable (the
partition never depends on the worker count), each block is accumulated
with compensated summation, and block results are combined in ascending
block order.  Any thread count then produces bit-identical output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .arith import stepped_powers
from .errors import PreconditionError

__all__ = [
    "BLOCK_WIDTH", "kahan_complex_sum", "split_blocks", "stepped_blocks", "ordered_block_map"
]

BLOCK_WIDTH = 1 << 16  # summation-variable values per block

_T = TypeVar("_T")
_R = TypeVar("_R")


def kahan_complex_sum(values: Iterable[complex]) -> complex:
    """Compensated (Kahan) sum, taken in the exact order of the input."""
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for value in values:
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def split_blocks(
    items: Sequence[_T],
    key: Callable[[_T], int],
    width: int = BLOCK_WIDTH,
) -> list[Sequence[_T]]:
    """Cut a key-ascending sequence into fixed-width key-space blocks.

    Block k holds the items whose key lies in [k*width, (k+1)*width);
    empty blocks are dropped.  The cut points depend only on the keys and
    the width, never on any worker count.
    """
    if width < 1:
        raise PreconditionError(f"width must be >= 1, got {width}")
    blocks: list[Sequence[_T]] = []
    i, n = 0, len(items)
    while i < n:
        upper = (key(items[i]) // width + 1) * width
        j = i
        while j < n and key(items[j]) < upper:
            j += 1
        blocks.append(items[i:j])
        i = j
    return blocks


def stepped_blocks(
    items: Sequence[_T], key: Callable[[_T], int], base: int, modulus: int
) -> Iterator[tuple[Sequence[_T], list[int]]]:
    """split_blocks(items, key), each block paired with its powers.

    The powers are base**key(item) mod modulus for the block's items, cut
    from one stepped_powers walk over all the keys.  The walk advances in
    the thread that iterates this stream, one block at a time, so only the
    block being handed out holds its powers.  Keys must strictly ascend.
    """
    powers = stepped_powers(base, map(key, items), modulus)
    for block in split_blocks(items, key):
        yield block, list(islice(powers, len(block)))


def ordered_block_map(
    work: Callable[[_T], _R], blocks: Iterable[_T], threads: int
) -> list[_R]:
    """Apply work to every block; results come back in block order.

    threads=1 is a plain loop that pulls one block at a time.  With more
    threads the pool takes every block up front (in this thread), runs
    them concurrently, and still returns results in submission order, so
    the caller's reduction sees the same sequence either way.
    """
    if threads < 1:
        raise PreconditionError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [work(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, blocks))
