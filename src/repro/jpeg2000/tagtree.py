"""Tag trees (ITU-T T.800, B.10.2).

A tag tree codes a 2D array of non-negative integers through a quad-tree of
running minima.  Packet headers use two per precinct/subband: one for
first-inclusion layers and one for the number of missing (all-zero)
bit-planes of each code block.

Encoder and decoder share the node structure.  On the encoder side node
values are the true quad-tree minima (built by :meth:`set_value`); on the
decoder side values start at "unknown" (infinity) and are pinned down by
the received threshold-comparison bits.  Bits flow through any object with
``put_bit(bit)`` / ``get_bit()`` (see ``repro.jpeg2000.bitio``).
"""

from __future__ import annotations

import math
from typing import Optional

#: Sentinel for decoder-side nodes whose value is not yet resolved.
UNKNOWN = 1 << 30


class _Node:
    __slots__ = ("value", "low", "known", "parent")

    def __init__(self, parent: Optional["_Node"]):
        self.value = UNKNOWN
        self.low = 0
        self.known = False
        self.parent = parent


class TagTree:
    """Quad-tree over a ``width x height`` grid of leaf values."""

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("tag tree dimensions must be positive")
        self.width = width
        self.height = height
        # Number of levels: enough halvings to reduce the grid to 1x1.
        levels = 1
        w, h = width, height
        while w > 1 or h > 1:
            w = math.ceil(w / 2)
            h = math.ceil(h / 2)
            levels += 1
        self.levels = levels
        # _grids[0] is the 1x1 root level; the last entry holds the leaves.
        self._grids: list[list[list[_Node]]] = []
        for level in range(levels):
            shrink = levels - 1 - level
            level_w = math.ceil(width / 2**shrink)
            level_h = math.ceil(height / 2**shrink)
            grid = []
            for y in range(level_h):
                row = []
                for x in range(level_w):
                    parent = self._grids[level - 1][y // 2][x // 2] if level > 0 else None
                    row.append(_Node(parent))
                grid.append(row)
            self._grids.append(grid)

    def _path(self, x: int, y: int) -> list[_Node]:
        """Nodes from root to leaf (x, y)."""
        node = self._grids[-1][y][x]
        path = [node]
        while node.parent is not None:
            node = node.parent
            path.append(node)
        path.reverse()
        return path

    # -- encoder side -------------------------------------------------------------

    def set_value(self, x: int, y: int, value: int) -> None:
        """Set a leaf value; ancestor minima update incrementally."""
        if value < 0:
            raise ValueError("tag tree values must be non-negative")
        node = self._grids[-1][y][x]
        node.value = value
        while node.parent is not None:
            node = node.parent
            if value < node.value:
                node.value = value

    def encode(self, writer, x: int, y: int, threshold: int) -> None:
        """Emit the bits that tell the decoder whether leaf(x,y) < threshold."""
        low = 0
        for node in self._path(x, y):
            if low > node.low:
                node.low = low
            else:
                low = node.low
            while low < threshold:
                if low >= node.value:
                    if not node.known:
                        writer.put_bit(1)
                        node.known = True
                    break
                writer.put_bit(0)
                low += 1
            node.low = low

    # -- decoder side -------------------------------------------------------------

    def decode(self, reader, x: int, y: int, threshold: int) -> bool:
        """Consume bits; return True iff leaf(x,y) < threshold."""
        low = 0
        leaf = self._grids[-1][y][x]
        for node in self._path(x, y):
            if low > node.low:
                node.low = low
            else:
                low = node.low
            while low < threshold and low < node.value:
                if reader.get_bit():
                    node.value = low
                else:
                    low += 1
            node.low = low
        return leaf.value < threshold

    def value_of(self, x: int, y: int) -> int:
        """The (resolved) value of a leaf."""
        value = self._grids[-1][y][x].value
        if value >= UNKNOWN:
            raise ValueError(f"leaf ({x},{y}) not determined yet")
        return value


class FlatTagTree:
    """Decoder-side tag tree over flat arrays (drop-in for :class:`TagTree`).

    Node state lives in two flat lists indexed level-major; the
    root-to-leaf path is pure index arithmetic (``x >> shift``,
    ``y >> shift``) instead of a linked-node walk, and ``reset()`` is two
    slice assignments instead of a full tree traversal.  Decode-side
    behaviour is bit-for-bit identical to :meth:`TagTree.decode`; the
    encoder half is intentionally absent (the encoder keeps the
    readable node tree).
    """

    __slots__ = ("width", "height", "levels", "_widths", "_offsets",
                 "_value", "_low", "_leaf_base")

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("tag tree dimensions must be positive")
        self.width = width
        self.height = height
        levels = 1
        w, h = width, height
        while w > 1 or h > 1:
            w = math.ceil(w / 2)
            h = math.ceil(h / 2)
            levels += 1
        self.levels = levels
        widths = []
        offsets = []
        total = 0
        for level in range(levels):
            shrink = levels - 1 - level
            level_w = math.ceil(width / 2**shrink)
            level_h = math.ceil(height / 2**shrink)
            widths.append(level_w)
            offsets.append(total)
            total += level_w * level_h
        self._widths = widths
        self._offsets = offsets
        self._leaf_base = offsets[-1]
        self._value = [UNKNOWN] * total
        self._low = [0] * total

    def decode(self, reader, x: int, y: int, threshold: int) -> bool:
        """Consume bits; return True iff leaf(x,y) < threshold."""
        values, lows = self._value, self._low
        widths, offsets = self._widths, self._offsets
        levels = self.levels
        get_bit = reader.get_bit
        low = 0
        node = 0
        for level in range(levels):
            shift = levels - 1 - level
            node = offsets[level] + (y >> shift) * widths[level] + (x >> shift)
            node_low = lows[node]
            if node_low > low:
                low = node_low
            value = values[node]
            while low < threshold and low < value:
                if get_bit():
                    values[node] = value = low
                else:
                    low += 1
            lows[node] = low
        return values[node] < threshold

    def value_of(self, x: int, y: int) -> int:
        """The (resolved) value of a leaf."""
        value = self._value[self._leaf_base + y * self.width + x]
        if value >= UNKNOWN:
            raise ValueError(f"leaf ({x},{y}) not determined yet")
        return value
