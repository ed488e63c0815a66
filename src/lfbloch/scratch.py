"""Whole samples of a batch that keeps some state columns.

``lfbloch.ode.solve`` with ``columns`` stores only those columns of its
samples, while dense output still computes every column.  Each pass
writes its samples whole to the scratch array of a :class:`Scratch`,
which, a few passes at a time, copies the kept columns to the batch's
samples and takes the ``measure`` of every sample.  ``solve`` imports
this module on first use, so that a solve that keeps every column
never compiles it.
"""

from __future__ import annotations

import math

import numpy as np

# Samples that the scratch array holds, a few passes' worth, before the
# kept columns are copied out (see CHANGES.md)
SAMPLES = 4096


class Scratch:
    """The scratch array of one solve.

    y_all holds the batch's samples, of the state columns kept, in that
    order; row b's start at ``offsets[b]``.  ``peak[b]`` is the largest
    measure of row b's samples copied out so far (None without a
    measure).
    """

    def __init__(self, y_all, kept, measure, offsets, n):
        self.y_all, self.kept, self.measure = y_all, kept, measure
        self.offsets = offsets
        self.peak = np.full(len(offsets) - 1, -math.inf) if measure \
            else None
        self.out = np.empty((SAMPLES, n))
        self.fill = 0
        self.spans = []  # (start, m, first) of each place call

    def place(self, start, m):
        """Room for jobs of m samples each whose rows of the batch's
        samples start at start: the scratch array and the first row in
        it of each job's samples."""
        size = int(m.sum())
        if self.fill + size > len(self.out):
            self.flush()
            if size > len(self.out):
                self.out = np.empty((size, self.out.shape[1]))
        first = np.cumsum(m) + (self.fill - m)
        self.spans.append((start, m, first))
        self.fill += size
        return self.out, first

    def views(self, jobs):
        """place for a few jobs (as for ``lfbloch.ode._dense_output``):
        the rows of the scratch array of each job's samples."""
        m = np.array([j - i_out for *_, i_out, j in jobs])
        out, first = self.place(
            np.array([row.lo + i_out for _, row, _, _, i_out, _ in jobs]),
            m)
        return [out[a:a + b] for a, b in zip(first.tolist(), m.tolist())]

    def flush(self):
        """Copy the kept columns out and take the measure."""
        if not self.spans:
            return
        start, m, first = (np.concatenate(a) for a in zip(*self.spans))
        out = self.out[:self.fill]
        at = np.repeat(start - first, m)  # each sample's row of y_all
        at += np.arange(self.fill)
        # a column at a time: numpy scatters 1-D arrays fastest
        for c, k in enumerate(self.kept):
            self.y_all[:, c][at] = out[:, k]
        if self.measure:
            with np.errstate(all="ignore"):
                top = np.maximum.reduceat(self.measure(out), first)
            np.maximum.at(self.peak,
                          np.searchsorted(self.offsets, start, "right") - 1,
                          top)
        self.spans, self.fill = [], 0
