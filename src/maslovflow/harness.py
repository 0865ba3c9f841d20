"""Scenario registry, dual-pipeline verification, and seeded property sweeps.

A scenario bundles a coefficient family, a boundary condition path, and
numerical options.  Running one computes the spectral flow of the eigenvalue
families and the Maslov index of the boundary pair path through two code
paths that share nothing beyond the generic crossing engine, then reports
whether the integers agree.

The property sweep draws randomized inputs from a counter-based generator
(Philox keyed by seed, with the suite and trial indices in counter words its
draws never advance), so every (suite, trial) pair has its own stream, and a
run with the same seed reproduces each trial's draws exactly, whichever
suites are selected.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np
import numpy.linalg as nla

from . import core, flow, maslov, odebvp
from .errors import MaslovFlowError
from .odebvp import TOL_ODE


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """Pinned integer verdicts together with a note saying where they come
    from.  Pinned values are re-derived on every run; a mismatch is recorded
    loudly in the report.  ``sf`` is None for pair paths, which have no
    differential equation."""

    sf: Optional[int]
    mas: int
    provenance: str


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # "first_order" | "second_order" | "pair_path"
    build: Callable[[], object]
    opts: Optional[object] = None
    expected: Optional[Expected] = None
    description: str = ""


@dataclass
class VerificationReport:
    """Outcome of one scenario: each pipeline's integer and crossing report,
    keyed as in :func:`pipelines`, off which ``sf`` (None for a pair path),
    ``mas``, ``agree`` and the ``"mas"`` pipeline's residuals are read."""

    name: str
    kind: str
    wall_ms: float = 0.0
    error: Optional[str] = None
    integers: dict = field(default_factory=dict)
    flow_reports: dict = field(default_factory=dict, repr=False)

    @property
    def sf(self):
        return self.integers.get("sf")

    @property
    def mas(self):
        return self.integers.get("mas")

    @property
    def agree(self):
        return len(set(self.integers.values())) == 1

    @property
    def residuals(self):
        extras = self.flow_reports["mas"].extras if "mas" in self.flow_reports else {}
        return {"transport": float(extras.get("transport_residual", 0.0)),
                "lagrangian": float(extras.get("isotropy_residual", 0.0)),
                "unitary": float(extras.get("unit_circle_residual", 0.0))}

    @property
    def partitions(self):
        return {k: list(rep.partition) for k, rep in self.flow_reports.items()}

    def to_dict(self):
        d = {
            "name": self.name,
            "kind": self.kind,
            "sf": self.sf,
            "mas": self.mas,
            "agree": self.agree,
            "residuals": self.residuals,
            "partitions": {k: [float(s) for s in v] for k, v in self.partitions.items()},
            "wall_ms": self.wall_ms,
        }
        if self.error is not None:
            d["error"] = self.error
        return d


def doubled_opts(opts):
    """The same options with every grid halved in step size: twice the time
    steps and twice the initial partition."""
    return replace(opts, steps=2 * opts.steps, initial_segments=2 * opts.initial_segments)


def pipelines(sc):
    """The scenario's two independent index computations, keyed by report
    name, as thunks returning ``(int, CrossingReport)``: spectral flow
    ``"sf"`` and Maslov index ``"mas"`` for a boundary value problem; for a
    pair path, which has no differential equation, the product-formula
    ``"mas"`` and the block-formula ``"mas_block"`` Maslov indices."""
    built = sc.build()
    if sc.kind == "pair_path":
        return {
            "mas": lambda: maslov.maslov_index(built, sc.opts),
            "mas_block": lambda: maslov.maslov_index_block(built, sc.opts),
        }
    fam, w_path = built
    return {
        "sf": lambda: odebvp.sf_bvp(fam, w_path, sc.opts),
        "mas": lambda: odebvp.mas_bvp(fam, w_path, sc.opts),
    }


def run_scenario(sc):
    """Run both of the scenario's :func:`pipelines` and report whether their
    integers agree, with the residuals of the ``"mas"`` pipeline.

    Exceptions from the pipelines are recorded in the report instead of
    propagating, so batch runs always produce one report per scenario.
    """
    start = time.perf_counter()
    report = VerificationReport(name=sc.name, kind=sc.kind)
    try:
        results = {key: run() for key, run in pipelines(sc).items()}
        report.integers = {key: value for key, (value, _) in results.items()}
        report.flow_reports = {key: rep for key, (_, rep) in results.items()}
        exp = sc.expected
        if exp is not None and (report.sf, report.mas) != (exp.sf, exp.mas):
            report.error = (
                f"pinned values ({exp.sf}, {exp.mas}) [{exp.provenance}] "
                f"were not reproduced: got ({report.sf}, {report.mas})"
            )
    except Exception as exc:  # noqa: BLE001 -- recorded, not raised: batches must finish
        report.error = f"{type(exc).__name__}: {exc}"
    report.wall_ms = 1000.0 * (time.perf_counter() - start)
    return report


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

def _rotating_boundary(s):
    return core.subspace_from_span(
        np.array([[1.0], [np.exp(2j * np.pi * s)]], dtype=complex)
    )


def _stock_first_order(b, j=lambda s, t: np.full((1, 1), 1j)):
    """A first-order stock family with m = 1 on [0, 1], j = i unless given."""
    return odebvp.FirstOrderFamily(m=1, T=1.0, j=j, b=b)


def _s1_build():
    return _stock_first_order(lambda s, t: np.full((1, 1), 0.0)), _rotating_boundary


def _s2_build():
    fam = odebvp.SecondOrderFamily(
        m=1,
        T=float(np.pi),
        p=lambda s, t: np.full((1, 1), 1.0),
        q=lambda s, t: np.full((1, 1), 0.0),
        r=lambda s, t: np.full((1, 1), -1.5 * s),
    )
    return fam, odebvp.w_of_r(None, m=1)


def _s3_build():
    fam = _stock_first_order(
        j=lambda s, t: (1j * (1.0 + 0.5 * s * np.sin(np.pi * t)))[:, None, None],
        b=lambda s, t: (s * np.cos(t))[:, None, None])
    return fam, _rotating_boundary


def _s4_build():
    return _stock_first_order(lambda s, t: np.full((1, 1), 1.0)), core.diagonal_subspace(1)


def _s5_build():
    fam = _stock_first_order(
        lambda s, t: ((s - 1.0 / 3.0) * (1.0 + np.cos(2.0 * np.pi * t)))[:, None, None])
    return fam, core.diagonal_subspace(1)


def builtin_scenarios():
    """The five stock verification problems.

    S1  rotating boundary condition against a frozen propagator; one branch
        arrives at the crossing exactly at the end of the parameter range.
    S2  softening oscillator with Dirichlet conditions; the lowest
        eigenvalue 1 - 1.5 s crosses zero downward at s = 2/3.
    S3  both the structure matrix and the potential move with s and t; for
        m = 1 and j = i g^2 the eigenvalues have a closed form, whose n = 0
        branch leaves the kernel at s = 0 upward while no branch reaches 0
        on (0, 1] (the n = -1 branch ends at -0.84), so both integers
        vanish.
    S4  constant invertible problem: nothing crosses, both integers vanish.
    S5  periodic boundary conditions with a zero-mean-in-t potential whose
        average moves with s; the branch 1/3 - s crosses downward at s = 1/3
        (the other periodic branches sit 2 pi away, outside every window).
    """
    return [
        Scenario(
            name="S1",
            kind="first_order",
            build=_s1_build,
            opts=odebvp.BvpOpts(),
            expected=Expected(1, 1, "closed form: boundary rotation meets the graph once, upward"),
            description="rotating boundary pair over a constant transport",
        ),
        Scenario(
            name="S2",
            kind="second_order",
            build=_s2_build,
            opts=odebvp.BvpOpts(),
            expected=Expected(-1, -1, "closed form: Dirichlet eigenvalue 1 - 1.5 s crosses at s = 2/3"),
            description="softening oscillator, Dirichlet conditions",
        ),
        Scenario(
            name="S3",
            kind="first_order",
            build=_s3_build,
            opts=odebvp.BvpOpts(),
            expected=Expected(0, 0, "closed form: the n = 0 branch leaves the kernel at s = 0 "
                                    "upward, the n = -1 branch ends at -0.84"),
            description="structure matrix varying in both s and t, rotating boundary pair",
        ),
        Scenario(
            name="S4",
            kind="first_order",
            build=_s4_build,
            opts=odebvp.BvpOpts(),
            expected=Expected(0, 0, "constant family: no crossings"),
            description="constant invertible problem, periodic-type boundary",
        ),
        Scenario(
            name="S5",
            kind="first_order",
            build=_s5_build,
            opts=odebvp.BvpOpts(),
            expected=Expected(-1, -1, "closed form: periodic branch 1/3 - s crosses at s = 1/3"),
            description="periodic conditions, potential with s-moving mean",
        ),
    ]


# ---------------------------------------------------------------------------
# Randomized property sweep
# ---------------------------------------------------------------------------

def _rng_for(seed, trial, suite):
    # Philox advances counter word 0 for every block it emits, so the trial
    # sits in word 2: trial streams never run into each other.
    bitgen = np.random.Philox(counter=[0, SUITE_STREAMS[suite], trial, 0],
                              key=np.array([seed, 0], dtype=np.uint64))
    return np.random.Generator(bitgen)


def _pick_dim(rng, dims):
    return int(dims[int(rng.integers(len(dims)))])


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = nla.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_hermitian(rng, n, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (z + z.conj().T) / np.sqrt(n)


def _random_space(rng, n):
    """A symplectic form i K with K Hermitian of balanced signature and
    eigenvalues bounded away from zero."""
    half = n // 2
    vals = np.concatenate([rng.uniform(0.5, 2.0, half), -rng.uniform(0.5, 2.0, half)])
    u = _random_unitary(rng, n)
    k = (u * vals) @ u.conj().T
    return core.make_space(1j * k)


def _lagrangian_from_unitary(splitting, u):
    """The graph of u (or of each member of a stack of them) in the
    splitting's frames."""
    return core.subspace_from_span(splitting.hframe_plus + splitting.hframe_minus @ u)


def _unitary_path(rng, m):
    """s -> u0 exp(i s H): one unitary at a float s, and the stack
    ``(S, m, m)`` of them at an s-array, from one broadcast ``exp``."""
    u0 = _random_unitary(rng, m)
    w, v = nla.eigh(_random_hermitian(rng, m, scale=2.0))

    def at(s):
        phases = np.exp(1j * np.asarray(s)[..., None] * w)
        return u0 @ (v * phases[..., None, :]) @ v.conj().T

    return at


def _random_pair_path(rng, n):
    """A constant random form with two Lagrangians moving as graphs of
    unitary paths; the sampler builds both Lagrangian stacks by one QR."""
    space = _random_space(rng, n)
    splitting = core.make_splitting(space)
    ua = _unitary_path(rng, n // 2)
    ub = _unitary_path(rng, n // 2)

    def sampler(ss):
        both = _lagrangian_from_unitary(splitting, np.concatenate([ua(ss), ub(ss)])).frame
        return space, core.Subspace(frame=both[:len(ss)]), core.Subspace(frame=both[len(ss):])

    return maslov.PairPath(sampler=sampler, interval=(0.0, 1.0))


def _random_hermitian_family(rng, n):
    """s -> a + s b + sin(pi s) c for random Hermitian a, b, c; an array of
    s gives the stack of its matrices."""
    a = _random_hermitian(rng, n)
    b = _random_hermitian(rng, n)
    c = _random_hermitian(rng, n)

    def fam(s):
        s = np.asarray(s)[..., None, None]
        return a + s * b + np.sin(np.pi * s) * c

    return fam


def _random_first_order(rng, m):
    """Smooth family with an invertible skew-Hermitian structure matrix."""
    g1 = _random_hermitian(rng, m, 0.3)
    g2 = _random_hermitian(rng, m, 0.2)
    b1 = _random_hermitian(rng, m, 0.5)
    b2 = _random_hermitian(rng, m, 0.5)
    eye = np.eye(m)

    def j(s, t):
        return 1j * (eye + s * g1 + np.sin(2.0 * np.pi * np.asarray(t))[..., None, None] * g2)

    def b(s, t):
        return b1 + s * np.cos(np.asarray(t))[..., None, None] * b2

    return odebvp.FirstOrderFamily(m=m, T=1.0, j=j, b=b)


def _random_second_order(rng, m):
    p1 = _random_hermitian(rng, m, 0.4)
    q1 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r1 = _random_hermitian(rng, m, 1.0)
    r2 = _random_hermitian(rng, m, 1.0)
    eye = np.eye(m)

    def p(s, t):
        return eye + np.sin(np.asarray(t))[..., None, None] * p1

    def q(s, t):
        return 0.4 * s * q1

    def r(s, t):
        return r1 + s * np.cos(2.0 * np.asarray(t))[..., None, None] * r2

    return odebvp.SecondOrderFamily(m=m, T=1.0, p=p, q=q, r=r)


def _real_lagrangian_frame(u):
    """Orthonormal real frame of the Lagrangian attached to a unitary u for
    the standard structure [[0, -I], [I, 0]]."""
    return np.vstack([u.real, u.imag])


def _branch_crossings(values, tau):
    """Signed zero crossings of one continuous branch sampled on a grid,
    with endpoint zeros belonging to neither side."""
    total = 0
    prev = 0 if abs(values[0]) <= tau else (1 if values[0] > 0 else -1)
    for v in values[1:]:
        cur = 0 if abs(v) <= tau else (1 if v > 0 else -1)
        if cur != prev:
            total += (1 if prev < 0 else 0) - (1 if cur < 0 else 0)
            prev = cur
    return total


def _branch_oracle(eigval_fun, rep):
    """Brute-force flow over the interval of the engine's report ``rep``:
    follow sorted eigenvalue branches on a uniform grid ten times finer than
    its partition (161 points at least) and add up their signed crossings
    of zero.  ``eigval_fun`` takes the whole grid and returns the real
    eigenvalues at each point, ``(len(grid), n)``."""
    cuts = rep.partition
    grid = np.linspace(cuts[0], cuts[-1], 10 * max(len(cuts) - 1, 16) + 1)
    branches = np.sort(eigval_fun(grid), axis=-1)
    scale = max(np.abs(branches).max(), 1.0)
    tau = 1e-9 * scale
    return sum(
        _branch_crossings(branches[:, k], tau) for k in range(branches.shape[1])
    )


# --- suite bodies -----------------------------------------------------------

def _suite_fredholm_index_zero(rng, dims):
    n = _pick_dim(rng, dims)
    space = _random_space(rng, n)
    splitting = core.make_splitting(space)
    lam = _lagrangian_from_unitary(splitting, _random_unitary(rng, n // 2))
    mu = _lagrangian_from_unitary(splitting, _random_unitary(rng, n // 2))
    pi = core.pair_index(space, lam, mu)
    ok = pi.index == 0
    return ok, float(abs(pi.index)), f"dim {n}: intersection {pi.dim_intersection}, codim {pi.codim_sum}"


def _suite_unitary_counting(rng, dims):
    n = _pick_dim(rng, dims)
    m = n // 2
    space = _random_space(rng, n)
    splitting = core.make_splitting(space)
    k = int(rng.integers(0, m + 1))
    phases = np.concatenate([np.zeros(k), rng.uniform(0.3, np.pi - 0.3, m - k)])
    p = _random_unitary(rng, m)
    u = _random_unitary(rng, m)
    v = u @ (p * np.exp(1j * phases)) @ p.conj().T
    lam = _lagrangian_from_unitary(splitting, u)
    mu = _lagrangian_from_unitary(splitting, v)
    w = core.pair_unitary(splitting, lam, mu)
    theta = flow.eigenphases(w)
    counted = int(np.sum(np.abs(theta) < 1e-7))
    dim_int = core.intersection_dim(lam, mu)
    ok = counted == k and dim_int == k
    zero_resid = float(np.abs(theta)[np.abs(theta) < 1e-7].max()) if counted else 0.0
    return ok, zero_resid, f"planted {k}, eigenphases {counted}, intersection {dim_int}"


def _suite_boxplus_index(rng, dims):
    n1 = _pick_dim(rng, dims)
    n2 = _pick_dim(rng, dims)
    sp1, sp2 = _random_space(rng, n1), _random_space(rng, n2)
    s1, s2 = core.make_splitting(sp1), core.make_splitting(sp2)
    lam1 = _lagrangian_from_unitary(s1, _random_unitary(rng, n1 // 2))
    mu1 = _lagrangian_from_unitary(s1, _random_unitary(rng, n1 // 2))
    lam2 = _lagrangian_from_unitary(s2, _random_unitary(rng, n2 // 2))
    mu2 = _lagrangian_from_unitary(s2, _random_unitary(rng, n2 // 2))
    big = core.boxplus(sp1, sp2)
    lam = core.boxplus_subspace(lam1, lam2)
    mu = core.boxplus_subspace(mu1, mu2)
    pi = core.pair_index(big, lam, mu)
    d1 = core.pair_index(sp1, lam1, mu1).dim_intersection
    d2 = core.pair_index(sp2, lam2, mu2).dim_intersection
    ok = pi.index == 0 and pi.dim_intersection == d1 + d2
    return ok, float(abs(pi.index)), f"dims {n1}+{n2}: intersections {d1}+{d2} -> {pi.dim_intersection}"


def _suite_product_identities(rng, dims):
    n = _pick_dim(rng, dims)
    path = _random_pair_path(rng, n)
    # Mas{lambda, mu} in (H, omega), Mas{lambda x mu, diag} in (H, omega) (+)
    # (H, -omega), Mas{mu, lambda} in (H, -omega) and Mas{diag, lambda x mu}
    # in (H, -omega) (+) (H, omega) agree; the flipped ones run the
    # complementary splitting projection, as K changes sign with the form.
    flipped = path.flipped_swapped()
    direct, boxed, flip, flip_boxed = (
        maslov.maslov_index(p)[0]
        for p in (path, path.boxplus_diagonal(), flipped, flipped.boxplus_diagonal()))
    note = f"dim {n}: direct {direct}, boxplus {boxed}, flipped {flip}, flipped boxplus {flip_boxed}"
    return direct == boxed == flip == flip_boxed, 0.0, note


def _suite_flipping(rng, dims):
    n = _pick_dim(rng, dims)
    path = _random_pair_path(rng, n)
    fwd, _ = maslov.maslov_index(path)
    swp, _ = maslov.maslov_index(path.swapped())
    _, lam, mu = path.sampler(np.array(path.interval))
    da, db = (core.intersection_dim(core.member(lam, i), core.member(mu, i)) for i in (0, 1))
    ok = fwd + swp == da - db
    return ok, 0.0, f"dim {n}: {fwd} + {swp} vs {da} - {db}"


def _suite_maslov_catenation(rng, dims):
    n = _pick_dim(rng, dims)
    path = _random_pair_path(rng, n)
    c = float(rng.uniform(0.25, 0.75))
    whole, _ = maslov.maslov_index(path)
    left, _ = maslov.maslov_index(maslov.PairPath(path.sampler, (0.0, c)))
    right, _ = maslov.maslov_index(maslov.PairPath(path.sampler, (c, 1.0)))
    ok = left + right == whole
    return ok, 0.0, f"dim {n}: {left} + {right} vs {whole} (cut {c:.3f})"


def _suite_naturality(rng, dims):
    n = _pick_dim(rng, dims)
    path = _random_pair_path(rng, n)
    u = _random_unitary(rng, n)
    v = _random_unitary(rng, n)
    l = u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v.conj().T
    base, _ = maslov.maslov_index(path)
    moved, _ = maslov.maslov_index(path.pushforward(l))
    return base == moved, 0.0, f"dim {n}: {base} vs {moved} after pushforward"


def _suite_splitting_independence(rng, dims):
    n = _pick_dim(rng, dims)
    path = _random_pair_path(rng, n)
    u = _random_unitary(rng, n)
    metric = u @ np.diag(rng.uniform(0.4, 2.5, n)) @ u.conj().T
    canonical, _ = maslov.maslov_index(path)
    deformed, _ = maslov.maslov_index(path, metric=metric)
    return canonical == deformed, 0.0, f"dim {n}: {canonical} vs {deformed}"


def _suite_real_comparison(rng, dims):
    m = max(1, _pick_dim(rng, dims) // 2)
    jstd = odebvp.std_j(m).real
    o, _ = nla.qr(rng.standard_normal((2 * m, 2 * m)))
    j = o @ jstd @ o.T
    lam = o @ _real_lagrangian_frame(_random_unitary(rng, m))
    upath = _unitary_path(rng, m)

    def mu_path(s):
        return o @ _real_lagrangian_frame(upath(s))

    cmpr = maslov.complexify_and_compare(j, lam, mu_path, (0.0, 1.0))
    ok = cmpr.agree and cmpr.residual <= 1e-9
    return ok, float(cmpr.residual), f"m {m}: {cmpr.mas} vs -({cmpr.mas_bf})"


def _suite_flow_catenation(rng, dims):
    n = _pick_dim(rng, dims)
    fam = _random_hermitian_family(rng, n)
    c = float(rng.uniform(0.3, 0.7))
    whole, _ = flow.spectral_flow(fam, (0.0, 1.0))
    left, _ = flow.spectral_flow(fam, (0.0, c))
    right, _ = flow.spectral_flow(fam, (c, 1.0))
    ok = left + right == whole
    return ok, 0.0, f"dim {n}: {left} + {right} vs {whole}"


def _suite_flow_reparam(rng, dims):
    n = _pick_dim(rng, dims)
    fam = _random_hermitian_family(rng, n)

    def smooth(s):
        return fam(s * s * (3.0 - 2.0 * s))

    base, _ = flow.spectral_flow(fam, (0.0, 1.0))
    warped, _ = flow.spectral_flow(smooth, (0.0, 1.0))
    return base == warped, 0.0, f"dim {n}: {base} vs {warped}"


def _suite_flow_oracle(rng, dims):
    n = _pick_dim(rng, dims)
    fam = _random_hermitian_family(rng, n)
    engine, rep = flow.spectral_flow(fam, (0.0, 1.0))
    oracle = _branch_oracle(lambda grid: nla.eigvalsh(fam(grid)), rep)
    return engine == oracle, 0.0, f"dim {n}: engine {engine}, oracle {oracle}"


def _suite_flow_conjugation(rng, dims):
    n = _pick_dim(rng, dims)
    fam = _random_hermitian_family(rng, n)
    t = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    tinv = nla.inv(t)
    engine, rep = flow.spectral_flow(fam, (0.0, 1.0))

    oracle = _branch_oracle(lambda grid: nla.eigvals(t @ fam(grid) @ tinv).real, rep)
    return engine == oracle, 0.0, f"dim {n}: engine {engine}, conjugated oracle {oracle}"


def _suite_flow_embedding(rng, dims):
    n = _pick_dim(rng, dims)
    fam = _random_hermitian_family(rng, n)
    k = int(rng.integers(1, 4))
    u = _random_unitary(rng, k)
    signs = np.where(rng.uniform(size=k) < 0.5, -1.0, 1.0)
    c = (u * (signs * rng.uniform(0.5, 2.0, k))) @ u.conj().T

    def block(s):
        a = fam(s)
        out = np.zeros((n + k, n + k), dtype=complex)
        out[:n, :n] = a
        out[n:, n:] = c
        return out

    base, _ = flow.spectral_flow(fam, (0.0, 1.0))
    emb, _ = flow.spectral_flow(block, (0.0, 1.0))
    return base == emb, 0.0, f"dim {n}+{k}: {base} vs {emb}"


def _suite_contour_projection(rng, dims):
    n = _pick_dim(rng, dims)
    center = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    radius = float(rng.uniform(0.5, 1.5))
    k_in = int(rng.integers(1, n))
    inner = center + 0.15 * radius * (rng.uniform(-1, 1, k_in) + 1j * rng.uniform(-1, 1, k_in))
    outer_r = radius * rng.uniform(4.0, 6.0, n - k_in)
    outer_a = rng.uniform(0.0, 2.0 * np.pi, n - k_in)
    outer = center + outer_r * np.exp(1j * outer_a)
    vals = np.concatenate([inner, outer])
    v = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    a = v @ np.diag(vals) @ nla.inv(v)
    p = flow.spectral_projection(a, center, radius)
    nodes = center + radius * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    quad = np.zeros_like(a)
    for z in nodes:
        quad += nla.inv(z * np.eye(n) - a) * (z - center)
    quad /= 16.0
    resid = float(np.abs(p - quad).max())
    return resid <= 1e-8, resid, f"dim {n}: quadrature deviation {resid:.2e}"


def _suite_transport(draw, label, rng, dims):
    """Symplectic transport of a family ``draw(rng, m)`` at one random
    (s, lambda), within TOL_ODE at 1024 steps."""
    m = 1 + int(rng.integers(0, 2))
    fam = draw(rng, m)
    s = float(rng.uniform(0.0, 1.0))
    gamma = odebvp.transfer_matrix(fam, s, lam=float(rng.uniform(-0.5, 0.5)), steps=1024)
    resid = odebvp.transport_residual(fam, s, gamma)
    return resid <= TOL_ODE, resid, f"m {m}: {label} {resid:.2e}"


def _suite_graph_lagrangian(rng, dims):
    m = 1 + int(rng.integers(0, 2))
    fam = _random_first_order(rng, m)
    s = float(rng.uniform(0.0, 1.0))
    gamma = odebvp.transfer_matrix(fam, s, lam=0.0, steps=512)
    bspace = odebvp.boundary_space(fam, s)
    graph = odebvp.graph_subspace(gamma)
    cls = core.classify(bspace, graph)
    resid = core.isotropy_residual(bspace, graph)
    return cls is core.SubspaceClass.LAGRANGIAN, resid, f"m {m}: classified {cls.name}"


def _suite_double_annihilator(rng, dims):
    n = _pick_dim(rng, dims)
    space = _random_space(rng, n)
    k = int(rng.integers(1, n))
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    sub = core.subspace_from_span(z)
    dd = core.annihilator(space, core.annihilator(space, sub))
    ok = core.equal_subspaces(dd, sub)
    return ok, 0.0, f"dim {n}, subspace dim {sub.dim}"


def _suite_graph_reconstruction(rng, dims):
    n = _pick_dim(rng, dims)
    space = _random_space(rng, n)
    splitting = core.make_splitting(space)
    u = _random_unitary(rng, n // 2)
    lam = _lagrangian_from_unitary(splitting, u)
    rec = core.graph_rep(splitting, lam)
    resid = float(np.abs(rec - u).max())
    cls = core.classify(space, lam)
    ok = resid <= 1e-8 and cls is core.SubspaceClass.LAGRANGIAN
    return ok, resid, f"dim {n}: reconstruction error {resid:.2e}"


def _suite_normalize_metric(rng, dims):
    n = _pick_dim(rng, dims)
    space = _random_space(rng, n)
    metric, jnorm = core.normalize_metric(space)
    eye = np.eye(n)
    r1 = np.abs(metric @ jnorm - space.form).max()
    r2 = np.abs(jnorm @ jnorm + eye).max()
    r3 = np.abs(jnorm.conj().T @ jnorm - eye).max()
    resid = float(max(r1 / max(np.abs(space.form).max(), 1.0), r2, r3))
    return resid <= 1e-10, resid, f"dim {n}: worst factorization residual {resid:.2e}"


# One row per suite: its name, its Philox counter word and its body.  The
# word is fixed by name, so adding or deleting a suite redraws no other: a
# new suite takes a fresh word, and a deleted one leaves its word unused.
ALL_SUITES = (
    ("fredholm_index_zero", 0, _suite_fredholm_index_zero),
    ("unitary_counting", 1, _suite_unitary_counting),
    ("boxplus_index", 2, _suite_boxplus_index),
    ("product_identities", 3, _suite_product_identities),
    ("flipping", 4, _suite_flipping),
    ("catenation", 5, _suite_maslov_catenation),
    ("naturality", 6, _suite_naturality),
    ("splitting_independence", 7, _suite_splitting_independence),
    ("real_comparison", 8, _suite_real_comparison),
    ("flow_catenation", 9, _suite_flow_catenation),
    ("flow_reparam", 10, _suite_flow_reparam),
    ("flow_oracle", 11, _suite_flow_oracle),
    ("flow_conjugation", 12, _suite_flow_conjugation),
    ("flow_embedding", 13, _suite_flow_embedding),
    ("contour_projection", 14, _suite_contour_projection),
    ("transport_invariant", 15,
     partial(_suite_transport, _random_first_order, "transport residual")),
    ("graph_lagrangian", 16, _suite_graph_lagrangian),
    ("second_order_sp", 17,
     partial(_suite_transport, _random_second_order, "structure transport residual")),
    ("double_annihilator", 18, _suite_double_annihilator),
    ("graph_reconstruction", 19, _suite_graph_reconstruction),
    ("normalize_metric", 20, _suite_normalize_metric),
)

SUITE_NAMES = tuple(name for name, _, _ in ALL_SUITES)
SUITE_STREAMS = {name: word for name, word, _ in ALL_SUITES}


@dataclass
class SuiteSummary:
    name: str
    trials: int
    passed: int
    failed: int
    worst_residual: float
    first_failure: Optional[str] = None


@dataclass
class SweepSummary:
    seed: int
    trials: int
    dims: tuple
    suites: list

    @property
    def all_passed(self):
        return all(s.failed == 0 for s in self.suites)

    def to_dict(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "dims": list(self.dims),
            "all_passed": self.all_passed,
            "suites": [asdict(s) for s in self.suites],
        }


def check_sweep(seed, trials, dims, suites):
    """The set of suite names :func:`property_sweep` runs for ``suites``
    (every suite when None), once ``seed`` is an integer in [0, 2**64), the
    range of a Philox key word, ``trials`` a count of at least 1 and
    ``dims`` even integers of at least 2; ``ValueError`` otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    core.require_count(trials, "trials", 1)
    for d in dims:
        core.require_count(d, "dims", 2)
    if not dims or any(d % 2 for d in dims):
        raise ValueError(f"dims must be positive even ambient dimensions, got {list(dims)}")
    selected = set(SUITE_NAMES if suites is None else suites)
    unknown = selected - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    if not selected:
        raise ValueError("no suites selected")
    return selected


def property_sweep(seed, trials, dims=(2, 4, 6, 8), suites=None):
    """Run the randomized invariant suites and summarize pass/fail counts.

    Each (suite, trial) pair gets its own generator stream, so the draws for
    trial k of suite j do not depend on how many trials ran before or which
    suites were selected.  Failures never raise: a failed check, a typed
    error or a ``LinAlgError`` in a trial is counted as a failed trial, and
    the first failing note per suite is kept.
    """
    selected = check_sweep(seed, trials, dims, suites)
    trials, dims = int(trials), tuple(int(d) for d in dims)  # NumPy integers become plain ints
    results = []
    for name, _, fn in ALL_SUITES:
        if name not in selected:
            continue
        failures, worst = [], 0.0
        for trial in range(trials):
            try:
                ok, resid, note = fn(_rng_for(seed, trial, name), dims)
            except (MaslovFlowError, nla.LinAlgError) as exc:
                ok, resid, note = False, float("inf"), f"{type(exc).__name__}: {exc}"
            worst = max(worst, float(resid))
            if not ok:
                failures.append(f"trial {trial}: {note}")
        results.append(SuiteSummary(name=name, trials=trials, passed=trials - len(failures),
                                    failed=len(failures), worst_residual=worst,
                                    first_failure=failures[0] if failures else None))
    return SweepSummary(seed=int(seed), trials=trials, dims=dims, suites=results)
