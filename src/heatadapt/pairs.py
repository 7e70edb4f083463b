"""Two instants a product on the operator route: a block's pairs, and what they skip.

On a grid of at most ``scenarios._OPERATOR_MAX_N`` nodes a stabilize or
tracking run steps one product of ``scenarios._operator``'s matrix A an
instant.  Without ``diss_cum``, at an even sample stride,
``scenarios._run`` reads no row between two even instants, so
``scenarios._run_observer_loop`` steps each pair of them as one product
of A2 (:func:`two_steps`), whose state rows are those of A A.  A skipped
instant's row gets only what the update law, the quiet test and the
servo's tail check read: its m, u0 and zeta, and a tracking row's sin
and cos.

This lives apart from scenarios.py: without a bytecode cache, as the
benchmark runs, compiling scenarios.py sets the peak resident memory of
a CLI run, and each line of code there raises it by several KB.
"""

from __future__ import annotations

import math

import numpy as np


def two_steps(A: np.ndarray, A2: np.ndarray, at_m: int, at_x1: int, at_what1: int) -> float:
    """Write two steps of A into A2, stored as A is; return A's spread.

    A2's state rows are those of A A: the state two steps on, but for the
    skipped instant's ``m = zeta u0``, which A's m row leaves at 0, and
    which :meth:`Pairs.step` adds as ``A[:, at_m] m``.  Its m and zeta
    rows read the skipped instant out instead: its u0 (A's u0 row) and its
    innovation (A's rows of x1 and what(1), one less the other).  Each
    column is one matrix-vector product: a matrix-matrix one would fault in
    BLAS's level-3 work buffers.  The spread is ``||R||_1 ||R||_inf`` of
    A's rows but u0's, R (:meth:`Pairs.quiet`), taken in A2's buffer.
    """
    cols = A.shape[1]
    rest = np.abs(A[: cols - 1], out=A2[: cols - 1])
    spread = float(rest.sum(axis=0).max() * rest.sum(axis=1).max())
    square = A[:cols]
    for j in range(cols):
        square.dot(square[:, j], A2[:cols, j])
    A2[at_m], A2[cols] = A[cols - 1], A[at_x1] - A[at_what1]
    return spread


class Pairs:
    """The pairs of one run's operator blocks, over the rows of its slab.

    ``A`` is the run's operator and ``A2`` a buffer shaped and stored as
    it is; ``states`` is the slab, ``views`` its rows as memoryviews and
    ``ins`` the part of each row that A reads.  ``at`` holds a row's
    offsets of m, x1, what(1), u0 and zeta, ``limit`` the quiet test's
    bound on a sum of squares, and ``turn``, for a tracking run that
    checks its servo tail, the offset of sin (cos follows it) and
    omega dt.
    """

    def __init__(self, A: np.ndarray, A2: np.ndarray, states: np.ndarray, views: tuple,
                 ins: tuple, at: tuple[int, int, int, int, int], sgn: float, dt: float,
                 limit: float, turn: tuple[int, float] | None) -> None:
        at_m, at_x1, at_what1, _, _ = at
        self.spread = two_steps(A, A2, at_m, at_x1, at_what1)
        self.two, self.states, self.rows = A2.dot, states, tuple(states)
        self.views, self.ins = views, ins
        # the skipped instant's m enters the next state through A's m column
        self.enters = [(j, A[j, at_m].item()) for j in np.flatnonzero(A[:, at_m]).tolist()]
        self.at, self.sgn, self.dt, self.limit, self.turn = at, sgn, dt, limit, None
        if turn is not None:
            # (sin, cos) of omega dt earlier: (s, c) cos omega dt + (c, s) back
            at_sin, wdt = turn
            self.turn = at_sin, math.cos(wdt), np.array([-math.sin(wdt), math.sin(wdt)])

    def step(self, first: int, last: int, z: float, u: float) -> tuple[float, float]:
        """Step row ``first``, of zeta ``z`` and u0 ``u``, to row ``last``; return its zeta, u0.

        Each pair updates zeta from its first row, steps A2, writes the
        skipped instant's m, u0 and zeta into its row, adds that m through
        A's m column, updates zeta again and writes the landing row's m
        and zeta.  The update law is ``control.zeta_step``'s, bit for bit.
        """
        views, rows, ins, two, enters = self.views, self.rows, self.ins, self.two, self.enters
        at_m, at_x1, at_what1, at_u0, at_zeta = self.at
        sgn, dt, s = self.sgn, self.dt, views[first]
        for i in range(first, last, 2):
            x, y = views[i + 1], views[i + 2]
            z -= sgn * (s[at_x1] - s[at_what1]) * u * dt
            two(ins[i], rows[i + 2])
            # the skipped instant's u0 and innovation, in the m and zeta slots
            u, innov = y[at_m], y[at_zeta]
            m = z * u
            x[at_m], x[at_u0], x[at_zeta] = m, u, z
            for j, c in enters:
                y[j] += c * m
            z -= sgn * innov * u * dt
            u = y[at_u0]
            y[at_m], y[at_zeta] = z * u, z
            s = y
        return z, u

    def quiet(self, first: int, last: int, gain: float) -> bool:
        """Whether no state from row ``first`` to ``last``, a stepped pair's, can end a run.

        It tests the rows landed on, among them the row each skipped
        instant steps from, and the m, u0 and zeta of each skipped
        instant, as ``scenarios._quiet_states`` tests a block's rows.  A
        skipped state's other values are A's rows but u0's, R, times the
        row it steps from, so their squares sum to at most ``spread =
        ||R||_1 ||R||_inf``, which bounds ``||R||_2^2``, times that row's:
        the sum tested is ``(1 + spread)`` times the landed rows' plus the
        skipped m, u0 and zeta's, which bounds the sum over every instant.
        That is up to ``(1 + spread) / 2`` times the sum of the one-product
        route (about 1.2 for stabilize, 4 for ``sin:1,1`` tracking at
        n=51), so a run may hand over earlier in pairs.  A quiet tracking
        block then gives each skipped row its sin and cos, the next
        instant's rotated back, for the tail check.
        """
        states, (at_m, _, _, at_u0, at_zeta) = self.states, self.at
        flat = states[first : last + 1 : 2].reshape(-1)
        skipped = states[first + 1 : last : 2][:, [at_m, at_u0, at_zeta]].reshape(-1)
        sq = (1.0 + self.spread) * flat.dot(flat) + skipped.dot(skipped)
        quiet = sq < self.limit and gain * math.sqrt(sq) < math.inf
        if quiet and self.turn is not None and first < last:
            at_sin, cos_back, back = self.turn
            landed = states[first + 2 : last + 1 : 2, at_sin : at_sin + 2]
            between = states[first + 1 : last : 2, at_sin : at_sin + 2]
            np.multiply(landed, cos_back, out=between)
            between += landed[:, ::-1] * back
        return quiet
