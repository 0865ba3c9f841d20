"""maslovflow: spectral flow and Maslov indices for families of symplectic
boundary value problems.

The package computes two independent integers for a one-parameter family of
self-adjoint boundary value problems — the spectral flow of the eigenvalue
families and the Maslov index of the induced path of boundary Lagrangian
pairs — and verifies that they agree.  All index computations reduce to
counting unitary eigenvalues crossing a co-oriented line, which keeps every
answer an exact integer with an auditable crossing report.

Every name lives in its module and is imported from there:
``from maslovflow import odebvp``, then ``odebvp.sf_bvp``.
"""

from . import core, flow, maslov, odebvp, harness

__version__ = "0.1.0"

__all__ = ["core", "flow", "maslov", "odebvp", "harness"]
