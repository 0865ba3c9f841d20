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
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .core import require_count, require_hermitian, require_unitary, stacked
from .errors import NonFinite, NotUnitary, SpectrumOnBoundary, UnresolvedFamily


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
    """Count the sorted ``coords`` below / at / above zero in a window.

    Only coordinates with ``|c| < delta`` participate; of those, the ones
    within ``tau_zero`` of 0 count as kernel (``n_zero``).
    """
    lo = bisect_right(coords, -delta)
    hi = max(lo, bisect_left(coords, delta))  # no coordinate is inside a window delta <= 0
    n_minus = max(0, bisect_left(coords, -tau_zero) - lo)
    n_plus = max(0, hi - bisect_right(coords, tau_zero))
    return WindowCount(n_minus=n_minus, n_zero=hi - lo - n_minus - n_plus, n_plus=n_plus)


def _inside(coords, h):
    """How many of the sorted ``coords`` have ``|c| < h``."""
    return bisect_left(coords, h) - bisect_right(coords, -h)


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
    """Everything needed to audit a flow computation.  ``coordinate`` names
    what the samples are: ``"lambda"`` for eigenvalues, else ``"coord"``."""

    segments: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # s -> coordinate array
    extras: dict = field(default_factory=dict)  # residuals etc., per computation
    coordinate: str = "coord"

    @property
    def partition(self):
        return sorted({s for seg in self.segments for s in (seg.s_left, seg.s_right)})

    def write_trace(self, path):
        """Dump every sampled coordinate list as CSV: s, coord_1, ...,
        the columns named after ``coordinate``."""
        items = sorted(self.samples.items())
        width = max((len(c) for _, c in items), default=0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s"] + [f"{self.coordinate}_{i + 1}" for i in range(width)])
            for s, coords in items:
                row = [f"{s:.17g}"] + [f"{c:.17g}" for c in coords]
                row += [""] * (width - len(coords))
                writer.writerow(row)


def _sorted_movement(x, y, circular):
    """Worst displacement pairing two sorted coordinate lists of equal size.

    For circular coordinates (eigenphases) the pairing is the best cyclic
    shift with distances measured around the circle, so a family that winds
    through +-pi is matched correctly instead of tearing at the seam.  A
    shift is dropped as soon as its worst distance reaches the best so far,
    which leaves the minimum over shifts unchanged.
    """
    if not circular:
        return max((abs(a - b) for a, b in zip(x, y)), default=0.0)
    best = math.inf if x else 0.0
    for k in range(len(x)):
        worst = 0.0
        for a, b in zip(x, y[k:] + y[:k]):
            worst = max(worst, abs((b - a + math.pi) % (2.0 * math.pi) - math.pi))
            if worst >= best:
                break
        else:
            best = worst
    return best


def _station_movement(cl, cm, cr, circular, delta_max, mags):
    """Estimated worst coordinate movement across half a segment, or None
    when the station lists cannot be matched (callers bisect then).
    ``mags`` are the stations' distinct coordinate magnitudes, ascending.

    Lists of unequal length can only come from samplers that truncate far
    coordinates; those are matched inside the largest count-stable horizon
    instead, and any two adjacent lists of equal length are matched whole
    as well, so a coordinate that stays outside the horizon at both
    stations still shows the distance it moved between them.  A coordinate
    that enters or leaves the truncated range between two stations of
    different lengths, or crosses the whole range within half a segment,
    is still not seen: S1's family with a boundary condition that turns six
    or more times over [0, 1] gets a wrong spectral flow here, and only a
    speed bound from the sampler can refuse such a segment.
    """
    if len(cl) == len(cm) == len(cr):
        return max(_sorted_movement(cl, cm, circular), _sorted_movement(cm, cr, circular))
    if circular:
        return None
    lo = 1.4 * delta_max
    cands = [lo] + [h for h in (0.5 * (a + b) for a, b in zip(mags, mags[1:])) if h > lo]
    best_h, best_clear = None, 0.0
    for h in cands:
        if not _inside(cl, h) == _inside(cm, h) == _inside(cr, h):
            continue
        clear = min(abs(m - h) for m in mags)
        if clear > best_clear:
            best_h, best_clear = h, clear
    if best_h is None:
        return None
    zl, zm, zr = ([x for x in c if abs(x) < best_h] for c in (cl, cm, cr))
    pairs = [(zl, zm), (zm, zr)] + [(a, b) for a, b in ((cl, cm), (cm, cr)) if len(a) == len(b)]
    return max(_sorted_movement(a, b, False) for a, b in pairs)


def _candidate_deltas(mags, delta_max, floor):
    """Deterministic window half-widths to try, largest first, from the
    distinct coordinate magnitudes ``mags`` (ascending).

    delta_max comes first; the rest, built only when it is refused, are the
    midpoints of gaps between consecutive magnitudes, half the smallest
    magnitude (so a window can shrink below everything), and a geometric
    ladder delta_max / 2^k.  The ladder and the sub-smallest value matter:
    segments exist where every coordinate is tiny and only a window below
    all of them is admissible.
    """
    yield delta_max
    cands = {m for m in (0.5 * (a + b) for a, b in zip(mags, mags[1:])) if floor < m < delta_max}
    if mags and floor < 0.5 * mags[0] < delta_max:
        cands.add(0.5 * mags[0])
    cands.update(d for d in (delta_max / 2.0**k for k in range(1, 9)) if d > floor)
    yield from sorted(cands, reverse=True)


def _admissible_delta(cl, cm, cr, circular, delta_max, eta, floor):
    """The largest candidate window half-width that is admissible on a
    segment with sorted station coordinates ``cl``, ``cm``, ``cr`` (left,
    middle, right), or None when the segment must be bisected."""
    mags = sorted({abs(c) for c in (*cl, *cm, *cr)})
    # Window walls must clear every sampled coordinate by more than the
    # coordinates move across half the segment; otherwise a pair can
    # trade places across the walls, which keeps the station totals
    # equal while silently breaking the count bookkeeping.
    movement = _station_movement(cl, cm, cr, circular, delta_max, mags)
    if movement is None:
        return None
    clearance = max(eta, 1.5 * movement)
    for cand in _candidate_deltas(mags, delta_max, floor):
        if any(abs(m - cand) < clearance for m in mags):
            continue  # a coordinate could reach the window edge
        if not _inside(cl, cand) == _inside(cm, cand) == _inside(cr, cand):
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
    s is sent twice.  Each s's coordinates are sorted once; the report keeps
    the array and every window is decided and counted on it as Python floats.

    Parameters
    ----------
    sampler : callable
        Maps a 1-D array of parameter values s to a sequence of 1-D arrays
        of real, finite crossing coordinates, one per s (``NonFinite`` names
        the first s otherwise).  Must be deterministic, and an s must get the
        same coordinates whatever else is in its batch.
    interval : (float, float)
        Finite endpoints a < b (``ValueError`` otherwise).
    opts : FlowOpts, optional
    scale : float, optional
        Coordinate scale, finite and positive (``ValueError`` otherwise);
        when omitted, the largest coordinate magnitude over the grid points
        (not their midpoints).  The largest window half-width, the smallest
        coordinate movement a window wall must clear, and the kernel
        tolerance are 0.25, 1e-6 and 1e-9 times the scale.
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
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise ValueError(f"interval must be finite with a < b, got ({a}, {b})")
    if scale is not None and (isinstance(scale, bool) or not (np.isfinite(scale) and scale > 0)):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    cache, stations = {}, {}  # s -> sorted coordinates, as an array and as Python floats

    def sample(points):
        new = sorted({s for s in points if s not in cache})
        if new:
            for s, c in zip(new, sampler(np.array(new)), strict=True):
                cache[s] = np.sort(np.asarray(c, dtype=float))
                if not np.isfinite(cache[s]).all():
                    raise NonFinite(f"crossing coordinates at s = {s:.17g} are not finite")
                stations[s] = cache[s].tolist()

    grid = [float(s) for s in np.linspace(a, b, opts.initial_segments + 1)]
    level = list(zip(grid[:-1], grid[1:]))
    sample(grid + [0.5 * (left + right) for left, right in level])
    if scale is None:
        top = max((max(abs(c[0]), abs(c[-1])) for c in map(stations.get, grid) if c), default=0.0)
        scale = top if top > 0 else 1.0
    delta_max, eta, tau_zero = 0.25 * scale, 1e-6 * scale, 1e-9 * scale
    floor = max(4.0 * eta, 10.0 * tau_zero)

    report = CrossingReport(samples=cache)
    total = 0
    depth = 0
    while level:
        sample(0.5 * (left + right) for left, right in level)
        bisected = []
        for left, right in level:
            mid = 0.5 * (left + right)
            cl, cm, cr = stations[left], stations[mid], stations[right]
            delta = _admissible_delta(cl, cm, cr, circular, delta_max, eta, floor)
            if delta is None:
                if depth >= opts.max_depth:
                    raise UnresolvedFamily(
                        f"no admissible window on [{left:.17g}, {right:.17g}] "
                        f"at depth {depth}; family varies too fast near this segment",
                        s_left=left, s_right=right)
                bisected += [(left, mid), (mid, right)]
                continue
            seg = SegmentRecord(s_left=left, s_right=right, delta=delta,
                                count_left=window_count(cl, delta, tau_zero),
                                count_right=window_count(cr, delta, tau_zero))
            report.segments.append(seg)
            total += seg.contribution
        level, depth = bisected, depth + 1
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
        return np.linalg.eigvalsh(stacked(mats, "the family"))

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
