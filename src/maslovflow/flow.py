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

import numpy as np
import scipy.linalg as la

from .core import require_count, require_hermitian, require_unitary, stacked
from .errors import DimensionMismatch, NotUnitary, SpectrumOnBoundary, UnresolvedFamily


@dataclass(frozen=True)
class FlowOpts:
    """Partition of the crossing engine: the number of uniform segments it
    starts from and how many times it may bisect one of them.  Frozen, so
    the check at construction holds for the object's life."""

    initial_segments: int = 16
    max_depth: int = 12

    def __post_init__(self):
        require_count(self.initial_segments, "initial_segments", 1)
        require_count(self.max_depth, "max_depth", 0)


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
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n  # row k: y rolled by k
    d = np.abs(np.mod(y[shifts] - x + np.pi, 2.0 * np.pi) - np.pi)
    return float(d.max(axis=1).min())


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


def _admissible_delta(cl, cm, cr, circular, delta_max, eta, floor):
    """The largest candidate window half-width that is admissible on a
    segment with station coordinates ``cl``, ``cm``, ``cr`` (left, middle,
    right), or None when the segment must be bisected."""
    merged = np.abs(np.concatenate([cl, cr, cm]))
    # Window walls must clear every sampled coordinate by more than the
    # coordinates move across half the segment; otherwise a pair can
    # trade places across the walls, which keeps the station totals
    # equal while silently breaking the count bookkeeping.
    movement = _station_movement(cl, cm, cr, circular, delta_max)
    if movement is None:
        return None
    clearance = max(eta, 1.5 * movement)
    for cand in _candidate_deltas(merged, delta_max, floor):
        if merged.size and np.min(np.abs(merged - cand)) < clearance:
            continue  # a coordinate could reach the window edge
        counts = {int(np.count_nonzero(np.abs(c) < cand)) for c in (cl, cm, cr)}
        if len(counts) != 1:
            continue  # window contents changed across the segment
        return cand
    return None


def flow_from_sampler(sampler, interval, opts=None, scale=None, circular=False):
    """Run the crossing engine over ``interval`` using ``sampler``.

    The engine refines a partition one depth at a time.  Every segment is
    accepted or bisected from its own three stations (endpoints and
    midpoint), so a whole depth can be sampled at once without changing any
    decision.  The first sampler call takes the ``initial_segments + 1``
    grid points and the midpoints of the grid's segments; each later call
    takes the midpoints of the segments bisected at the depth before.  No
    s is sent twice.

    Parameters
    ----------
    sampler : callable
        Maps a 1-D array of parameter values s to a sequence of 1-D arrays
        of real crossing coordinates, one per s.  Must be deterministic, and
        an s must get the same coordinates whatever else is in its batch.
    interval : (float, float)
        Endpoints a < b.
    opts : FlowOpts, optional
    scale : float, optional
        Coordinate scale; when omitted, the largest coordinate magnitude
        over the grid points (not their midpoints).  The largest window
        half-width, the smallest coordinate movement a window wall must
        clear, and the kernel tolerance are 0.25, 1e-6 and 1e-9 times the
        scale.
    circular : bool
        True when the coordinates are angles on (-pi, pi] (eigenphases), so
        that coordinate movement is measured around the circle.

    Returns
    -------
    (int, CrossingReport)
        The report's segments run left to right.
    """
    opts = opts or FlowOpts()
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    cache: dict[float, np.ndarray] = {}

    def sample(points):
        new = sorted({s for s in points if s not in cache})
        if new:
            for s, c in zip(new, sampler(np.array(new)), strict=True):
                cache[s] = np.sort(np.asarray(c, dtype=float))

    grid = [float(s) for s in np.linspace(a, b, opts.initial_segments + 1)]
    level = list(zip(grid[:-1], grid[1:]))
    sample(grid + [0.5 * (left + right) for left, right in level])
    if scale is None:
        top = max((float(np.abs(cache[s]).max()) for s in grid if cache[s].size), default=0.0)
        scale = top if top > 0 else 1.0
    delta_max = 0.25 * scale
    eta = 1e-6 * scale
    tau_zero = 1e-9 * scale
    floor = max(4.0 * eta, 10.0 * tau_zero)

    report = CrossingReport(samples=cache)
    total = 0
    depth = 0
    while level:
        sample(0.5 * (left + right) for left, right in level)
        bisected = []
        for left, right in level:
            mid = 0.5 * (left + right)
            cl, cm, cr = cache[left], cache[mid], cache[right]
            delta = _admissible_delta(cl, cm, cr, circular, delta_max, eta, floor)
            if delta is None:
                if depth >= opts.max_depth:
                    raise UnresolvedFamily(
                        f"no admissible window on [{left:.17g}, {right:.17g}] "
                        f"at depth {depth}; family varies too fast near this segment",
                        s_left=left,
                        s_right=right,
                    )
                bisected += [(left, mid), (mid, right)]
                continue
            wl = window_count(cl, delta, tau_zero)
            wr = window_count(cr, delta, tau_zero)
            seg = SegmentRecord(s_left=left, s_right=right, delta=delta,
                                count_left=wl, count_right=wr)
            report.segments.append(seg)
            total += seg.contribution
        level = bisected
        depth += 1
    report.segments.sort(key=lambda seg: seg.s_left)
    return total, report


# ---------------------------------------------------------------------------
# Coordinate extraction for the two line kinds
# ---------------------------------------------------------------------------

def eigenphases(u):
    """Eigenphases of a unitary matrix, wrapped to (-pi, pi], ascending.

    A stack ``(..., n, n)`` gives the stack ``(..., n)`` of each member's
    phases.  The eigenvalues come from LAPACK's general eigensolver, whose
    Hessenberg QR iteration is backward stable even when a matrix is a hair
    away from normal.
    """
    u = np.asarray(u, dtype=complex)
    require_unitary(u, NotUnitary, "matrix")
    if u.shape[-1] == 0:
        return np.empty(u.shape[:-1])
    phases = np.angle(np.linalg.eigvals(u))
    phases = np.where(phases <= -np.pi + 1e-12, phases + 2.0 * np.pi, phases)
    return np.sort(phases, axis=-1)


def unit_circle_residual(u):
    """max | |eig| - 1 | over the spectrum (of every member of a stack); a
    health metric for reports."""
    u = np.asarray(u, dtype=complex)
    if u.size == 0:
        return 0.0
    return float(np.abs(np.abs(np.linalg.eigvals(u)) - 1.0).max())


def spectral_flow(family, interval, opts=None):
    """Spectral flow through 0 of ``family``, s -> Hermitian matrix
    (validated at every sample); returns ``(int, CrossingReport)``.

    The eigenvalues of one engine batch come from one stacked call, so its
    matrices must share a size (``DimensionMismatch`` otherwise).  A unitary
    family's flow through 1 is :func:`flow_from_sampler` on the
    :func:`eigenphases` of its batch with ``circular=True``.
    """

    def sampler(ss):
        mats = [require_hermitian(family(s), name=f"family({s:.6g})") for s in ss]
        return np.linalg.eigvalsh(stacked(mats, DimensionMismatch, "the family"))

    return flow_from_sampler(sampler, interval, opts)


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
