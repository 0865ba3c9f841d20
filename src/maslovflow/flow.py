"""Spectral flow through a co-oriented line, with auditable windows.

The integer computed here is the net number of eigenvalue crossings through a
distinguished line in the spectral plane: the point 0 on the real axis for
Hermitian families, or the point 1 on the unit circle for unitary families
(co-oriented so that an eigenphase increasing through 0 counts +1).  In both
cases each sampled matrix is reduced to a list of real *crossing
coordinates* — eigenvalues, or eigenphases wrapped to (-pi, pi] — and the
flow is assembled segment by segment:

    flow = sum over segments of  n_minus(left) - n_minus(right),

where n_minus counts coordinates inside a symmetric window (-delta, delta)
that are below -tau_zero.  Coordinates within tau_zero of 0 at a segment
endpoint belong to the kernel and are not counted on either side; this is
what makes endpoints that sit exactly on the line (a common, deliberate
situation) unambiguous.

The only analytic input is continuity of the coordinates in s, so the window
half-width delta must be chosen so that nothing sits near its edges and the
same number of coordinates is inside at both endpoints.  The engine tries a
deterministic list of candidate widths (largest first) and bisects the
segment when none is admissible; if bisection hits its depth limit the
family is declared unresolved rather than silently miscounted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg as la

from .core import TAU_UNIT, require_hermitian
from .errors import NotUnitary, SpectrumOnBoundary, UnresolvedFamily


class LineKind(Enum):
    """The two co-oriented lines the engine understands."""

    REAL_AXIS_AT_ZERO = "real-axis-at-zero"
    UNIT_CIRCLE_AT_ONE = "unit-circle-at-one"


@dataclass
class FlowOpts:
    """Partition of the crossing engine: the number of uniform segments it
    starts from and how many times it may bisect one of them."""

    initial_segments: int = 16
    max_depth: int = 12


@dataclass(frozen=True)
class WindowCount:
    n_minus: int
    n_zero: int
    n_plus: int


def window_count(coords, delta, tau_zero):
    """Count window coordinates below / at / above zero.

    Only coordinates with ``|c| < delta`` participate; of those, the ones
    within ``tau_zero`` of 0 count as kernel (``n_zero``).
    """
    c = np.asarray(coords, dtype=float)
    inside = c[np.abs(c) < delta]
    n_zero = int(np.count_nonzero(np.abs(inside) <= tau_zero))
    n_minus = int(np.count_nonzero(inside < -tau_zero))
    n_plus = int(np.count_nonzero(inside > tau_zero))
    return WindowCount(n_minus=n_minus, n_zero=n_zero, n_plus=n_plus)


@dataclass(frozen=True)
class SegmentRecord:
    s_left: float
    s_right: float
    delta: float
    count_left: WindowCount
    count_right: WindowCount

    @property
    def contribution(self):
        return self.count_left.n_minus - self.count_right.n_minus


@dataclass
class CrossingReport:
    """Everything needed to audit a flow computation."""

    total: int = 0
    scale: float = 1.0
    segments: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # s -> coordinate array
    extras: dict = field(default_factory=dict)  # residuals etc., per computation

    @property
    def partition(self):
        pts = set()
        for seg in self.segments:
            pts.add(seg.s_left)
            pts.add(seg.s_right)
        return sorted(pts)

    def to_dict(self):
        return {
            "total": self.total,
            "scale": self.scale,
            "extras": dict(self.extras),
            "partition": self.partition,
            "segments": [
                {
                    "s_left": seg.s_left,
                    "s_right": seg.s_right,
                    "delta": seg.delta,
                    "n_minus_left": seg.count_left.n_minus,
                    "n_zero_left": seg.count_left.n_zero,
                    "n_minus_right": seg.count_right.n_minus,
                    "n_zero_right": seg.count_right.n_zero,
                    "contribution": seg.contribution,
                }
                for seg in self.segments
            ],
        }

    def write_trace(self, path, prefix="coord"):
        """Dump every sampled coordinate list as CSV: s, coord_1, ...

        (The eigenvalue-river variant uses ``prefix="lambda"``.)
        """
        items = sorted(self.samples.items())
        width = max((len(c) for _, c in items), default=0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s"] + [f"{prefix}_{i + 1}" for i in range(width)])
            for s, coords in items:
                row = [f"{s:.17g}"] + [f"{c:.17g}" for c in coords]
                row += [""] * (width - len(coords))
                writer.writerow(row)


def _sorted_movement(x, y, circular):
    """Worst displacement pairing two sorted coordinate lists of equal size.

    For circular coordinates (eigenphases) the pairing is the best cyclic
    shift with distances measured around the circle, so a family that winds
    through +-pi is matched correctly instead of tearing at the seam.
    """
    if x.size == 0:
        return 0.0
    if not circular:
        return float(np.max(np.abs(x - y)))
    n = x.size
    best = np.inf
    for k in range(n):
        yk = np.concatenate([y[k:], y[:k]])
        d = np.abs(np.mod(yk - x + np.pi, 2.0 * np.pi) - np.pi)
        best = min(best, float(d.max()))
    return best


def _station_movement(cl, cm, cr, circular, delta_max):
    """Estimated worst coordinate movement across half a segment, or None
    when the station lists cannot be matched (callers bisect then).

    Lists of unequal length can only come from samplers that truncate far
    coordinates; those are matched inside the largest count-stable horizon
    instead, which is safe because admissible windows sit well below it.
    """
    if cl.size == cm.size == cr.size:
        return max(
            _sorted_movement(cl, cm, circular), _sorted_movement(cm, cr, circular)
        )
    if circular:
        return None
    merged = np.abs(np.concatenate([cl, cm, cr]))
    lo = 1.4 * delta_max
    vals = np.unique(merged)
    cands = [lo] + [float(h) for h in 0.5 * (vals[1:] + vals[:-1]) if h > lo]
    best_h, best_clear = None, 0.0
    for h in cands:
        if len({int(np.count_nonzero(np.abs(c) < h)) for c in (cl, cm, cr)}) != 1:
            continue
        clear = float(np.min(np.abs(merged - h))) if merged.size else np.inf
        if clear > best_clear:
            best_h, best_clear = h, clear
    if best_h is None:
        return None
    zl, zm, zr = (c[np.abs(c) < best_h] for c in (cl, cm, cr))
    return max(_sorted_movement(zl, zm, False), _sorted_movement(zm, zr, False))


def _candidate_deltas(abs_coords, delta_max, floor):
    """Deterministic candidate list of window half-widths, largest first.

    Includes delta_max itself, midpoints of gaps between consecutive
    coordinate magnitudes, half the smallest magnitude (so a window can
    shrink below everything), and a geometric ladder delta_max / 2^k.  The
    ladder and the sub-smallest value matter: segments exist where every
    coordinate is tiny and only a window below all of them is admissible.
    """
    cands = {delta_max}
    vals = np.unique(abs_coords)
    if vals.size:
        mids = 0.5 * (vals[1:] + vals[:-1])
        for m in mids:
            if floor < m < delta_max:
                cands.add(float(m))
        smallest = float(vals[0])
        if floor < 0.5 * smallest < delta_max:
            cands.add(0.5 * smallest)
    for k in range(1, 9):
        d = delta_max / 2.0**k
        if d > floor:
            cands.add(d)
    return sorted(cands, reverse=True)


def flow_from_sampler(sampler, interval, opts=None, scale=None, circular=False):
    """Run the crossing engine over ``interval`` using ``sampler``.

    Parameters
    ----------
    sampler : callable
        Maps a parameter value s to a 1-D array of real crossing
        coordinates.  Must be deterministic; values are cached by s.
    interval : (float, float)
        Endpoints a < b.
    opts : FlowOpts, optional
    scale : float, optional
        Coordinate scale; measured from the initial samples when omitted.
        The largest window half-width, the smallest coordinate movement a
        window wall must clear, and the kernel tolerance are 0.25, 1e-6
        and 1e-9 times the scale.
    circular : bool
        True when the coordinates are angles on (-pi, pi] (eigenphases), so
        that coordinate movement is measured around the circle.

    Returns
    -------
    (int, CrossingReport)
    """
    opts = opts or FlowOpts()
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    cache: dict[float, np.ndarray] = {}

    def coords_at(s):
        if s not in cache:
            c = np.sort(np.asarray(sampler(s), dtype=float))
            cache[s] = c
        return cache[s]

    grid = np.linspace(a, b, opts.initial_segments + 1)
    for s in grid:
        coords_at(float(s))
    if scale is None:
        top = max((float(np.abs(c).max()) for c in cache.values() if c.size), default=0.0)
        scale = top if top > 0 else 1.0
    delta_max = 0.25 * scale
    eta = 1e-6 * scale
    tau_zero = 1e-9 * scale
    floor = max(4.0 * eta, 10.0 * tau_zero)

    report = CrossingReport(scale=scale, samples=cache)
    total = 0
    # LIFO stack, pushed right-then-left so work proceeds left to right.
    stack = [
        (float(grid[i]), float(grid[i + 1]), 0)
        for i in range(opts.initial_segments - 1, -1, -1)
    ]
    while stack:
        left, right, depth = stack.pop()
        mid = 0.5 * (left + right)
        cl, cr, cm = coords_at(left), coords_at(right), coords_at(mid)
        merged = (
            np.abs(np.concatenate([cl, cr, cm]))
            if cl.size + cr.size + cm.size
            else np.empty(0)
        )
        # Window walls must clear every sampled coordinate by more than the
        # coordinates move across half the segment; otherwise a pair can
        # trade places across the walls, which keeps the station totals
        # equal while silently breaking the count bookkeeping.
        movement = _station_movement(cl, cm, cr, circular, delta_max)
        delta = None
        if movement is not None:
            clearance = max(eta, 1.5 * movement)
            for cand in _candidate_deltas(merged, delta_max, floor):
                if merged.size and np.min(np.abs(merged - cand)) < clearance:
                    continue  # a coordinate could reach the window edge
                counts = {int(np.count_nonzero(np.abs(c) < cand)) for c in (cl, cm, cr)}
                if len(counts) != 1:
                    continue  # window contents changed across the segment
                delta = cand
                break
        if delta is None:
            if depth >= opts.max_depth:
                raise UnresolvedFamily(
                    f"no admissible window on [{left:.17g}, {right:.17g}] "
                    f"at depth {depth}; family varies too fast near this segment",
                    s_left=left,
                    s_right=right,
                )
            stack.append((mid, right, depth + 1))
            stack.append((left, mid, depth + 1))
            continue
        wl = window_count(cl, delta, tau_zero)
        wr = window_count(cr, delta, tau_zero)
        seg = SegmentRecord(s_left=left, s_right=right, delta=delta,
                            count_left=wl, count_right=wr)
        report.segments.append(seg)
        total += seg.contribution
    report.segments.sort(key=lambda seg: seg.s_left)
    report.total = total
    return total, report


# ---------------------------------------------------------------------------
# Coordinate extraction for the two line kinds
# ---------------------------------------------------------------------------

def eigenphases(u):
    """Eigenphases of a unitary matrix, wrapped to (-pi, pi], ascending.

    Eigenvalues come from the complex Schur form, which stays backward
    stable even when the matrix is a hair away from normal.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    resid = float(np.abs(u.conj().T @ u - np.eye(n)).max()) if n else 0.0
    if resid > TAU_UNIT:
        raise NotUnitary(f"unitarity residual {resid:.3e} exceeds {TAU_UNIT:.3e}")
    if n == 0:
        return np.empty(0)
    t, _ = la.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    phases[phases <= -np.pi + 1e-12] += 2.0 * np.pi
    return np.sort(phases)


def unit_circle_residual(u):
    """max | |eig| - 1 | over the spectrum; a health metric for reports."""
    u = np.asarray(u, dtype=complex)
    if u.shape[0] == 0:
        return 0.0
    t, _ = la.schur(u, output="complex")
    return float(np.abs(np.abs(np.diag(t)) - 1.0).max())


def spectral_flow(family, kind, interval, opts=None):
    """Spectral flow of a matrix family through the chosen line.

    Parameters
    ----------
    family : callable
        s -> square matrix; Hermitian for ``REAL_AXIS_AT_ZERO``, unitary for
        ``UNIT_CIRCLE_AT_ONE``.  Validated at every sample.
    kind : LineKind
    interval : (float, float)
    opts : FlowOpts, optional

    Returns
    -------
    (int, CrossingReport)
    """
    kind = LineKind(kind)
    if kind is LineKind.REAL_AXIS_AT_ZERO:
        def sampler(s):
            m = require_hermitian(family(s), name=f"family({s:.6g})")
            return la.eigvalsh(m)
    else:
        def sampler(s):
            return eigenphases(family(s))
    return flow_from_sampler(
        sampler, interval, opts, circular=kind is LineKind.UNIT_CIRCLE_AT_ONE
    )


# ---------------------------------------------------------------------------
# Spectral projections
# ---------------------------------------------------------------------------

def spectral_projection(a, center, radius):
    """Spectral projector onto the eigenvalues inside a circle.

    Built from a sorted complex Schur form plus a Sylvester solve, so it
    remains accurate for defective matrices where naive eigenvector bases
    fall apart.  Raises :class:`SpectrumOnBoundary` if an eigenvalue lies
    within ``1e-8 * max(radius, 1)`` of the circle itself.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    t, z, sdim = la.schur(a, output="complex",
                          sort=lambda x: abs(x - center) < radius)
    dist = np.abs(np.abs(np.diag(t) - center) - radius)
    margin = 1e-8 * max(radius, 1.0)
    if dist.min(initial=np.inf) < margin:
        raise SpectrumOnBoundary(
            f"eigenvalue within {margin:.3e} of the circle |z - center| = {radius}"
        )
    if sdim == 0:
        return np.zeros_like(a)
    if sdim == n:
        return np.eye(n, dtype=complex)
    t11 = t[:sdim, :sdim]
    t12 = t[:sdim, sdim:]
    t22 = t[sdim:, sdim:]
    # Invariant complement is {(X w, w)} with T11 X - X T22 = -T12; the
    # spectral projector in Schur coordinates is then [[I, -X], [0, 0]].
    x = la.solve_sylvester(t11, -t22, -t12)
    phat = np.zeros((n, n), dtype=complex)
    phat[:sdim, :sdim] = np.eye(sdim)
    phat[:sdim, sdim:] = -x
    return z @ phat @ z.conj().T
