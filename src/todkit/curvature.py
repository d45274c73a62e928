"""Curvature of a metric jet and the derived spectral checks.

Everything is evaluated pointwise from a tod.JetMatrix whose components
are 2-jets in the two essential coordinates; derivatives along the Killing
directions are structurally zero, so arrays are padded accordingly.

Conventions: R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + ..., Ricci is
the (a, bad) trace, the scalar Laplacian is minus the metric trace of
the Hessian (positive spectrum on compact sets), and the volume form
carries the orientation flag of the chart so that duality statements are
chart independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import SignatureError

_EPS4 = np.zeros((4, 4, 4, 4))
for _p in permutations(range(4)):
    _sign = 1
    _q = list(_p)
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _q[_i] > _q[_j]:
                _sign = -_sign
    _EPS4[_p] = _sign
del _p, _q, _i, _j, _sign


@dataclass(frozen=True)
class CurvaturePack:
    coords: tuple
    base: tuple
    orientation: int
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    weyl: np.ndarray
    sqrtg: float


def _pad_first(arr):
    """Prepend zero Killing slots: (2, ...) -> (4, ...)."""
    out = np.zeros((4,) + arr.shape[1:])
    out[2:] = arr
    return out


def curvature_pack(metric):
    """Riemann, Ricci, scalar and Weyl at the base point of a metric jet."""
    g = metric.values()
    if np.max(np.abs(g - g.T)) > 0:
        raise SignatureError("metric components are not symmetric")
    det = np.linalg.det(g)
    if not det > 0:
        raise SignatureError(f"metric determinant {det} is not positive")
    ginv = np.linalg.inv(g)
    dg = _pad_first(metric.d1())
    ddg = np.zeros((4, 4, 4, 4))
    ddg[2:, 2:] = metric.d2()
    dginv = -np.einsum("ae,cef,fb->cab", ginv, dg, ginv)

    gamma = 0.5 * np.einsum(
        "ad,bdc->abc", ginv, dg + np.einsum("cdb->bdc", dg) - np.einsum("dbc->bdc", dg)
    )
    sym = ddg + np.einsum("ecdb->ebdc", ddg) - np.einsum("edbc->ebdc", ddg)
    dgamma = 0.5 * (
        np.einsum("ead,bdc->eabc", dginv,
                  dg + np.einsum("cdb->bdc", dg) - np.einsum("dbc->bdc", dg))
        + np.einsum("ad,ebdc->eabc", ginv, sym)
    )

    riem_up = (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )
    riemann = np.einsum("ae,ebcd->abcd", g, riem_up)
    ricci = np.einsum("abad->bd", riem_up)
    scalar = float(np.einsum("bd,bd->", ginv, ricci))

    weyl = (
        riemann
        - 0.5 * (
            np.einsum("ac,bd->abcd", g, ricci)
            - np.einsum("ad,bc->abcd", g, ricci)
            + np.einsum("bd,ac->abcd", g, ricci)
            - np.einsum("bc,ad->abcd", g, ricci)
        )
        + (scalar / 6.0) * (
            np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g)
        )
    )
    return CurvaturePack(
        coords=metric.coords,
        base=metric.base,
        orientation=metric.orientation,
        g=g,
        ginv=ginv,
        dg=dg,
        gamma=gamma,
        riemann=riemann,
        ricci=ricci,
        scalar=scalar,
        weyl=weyl,
        sqrtg=float(np.sqrt(det)),
    )


def _raise_all(gi, T):
    """T^abcd = g^ae g^bf g^cg g^dh T_efgh, one index at a time.

    Each pass is one matrix product that raises the leading index, which
    the transpose then moves to the back; four passes restore the order.
    """
    up = T
    for _ in range(4):
        up = (gi @ up.reshape(4, 64)).reshape(4, 4, 4, 4).transpose(1, 2, 3, 0)
    return up


def invariant_norms(pack):
    """Frobenius norms of Riemann, Ricci and Weyl with indices raised."""
    gi = pack.ginv

    def norm4(T):
        up = _raise_all(gi, T)
        return float(np.sqrt(abs(np.einsum("abcd,abcd->", up, T))))

    ric2 = np.einsum("ae,bf,ef,ab->", gi, gi, pack.ricci, pack.ricci)
    return {
        "riemann": norm4(pack.riemann),
        "weyl": norm4(pack.weyl),
        "ricci": float(np.sqrt(abs(ric2))),
        "scalar": abs(pack.scalar),
    }


def volume_form(pack):
    """epsilon_abcd with the chart orientation folded in."""
    return pack.orientation * pack.sqrtg * _EPS4


def hodge_star(pack, two_form):
    """Dual of an antisymmetric (0,2) component array."""
    eps = volume_form(pack)
    up = np.einsum("ac,bd,cd->ab", pack.ginv, pack.ginv, two_form)
    return 0.5 * np.einsum("abcd,cd->ab", eps, up)


def orthonormal_coframe(pack):
    """Rows are coframe covectors; positively oriented for the convention.

    Cholesky of g is Gram-Schmidt on the coordinate coframe in chart
    order; the last covector is flipped on negatively oriented charts so
    the coframe volume always matches the convention volume form.
    """
    try:
        L = np.linalg.cholesky(pack.g)
    except np.linalg.LinAlgError as exc:
        raise SignatureError(f"metric is not positive definite: {exc}") from exc
    E = L.T.copy()
    if pack.orientation < 0:
        E[3] = -E[3]
    return E


def dual_bases(pack):
    """Self-dual and anti-self-dual two-form triples, norm squared 4."""
    E = orthonormal_coframe(pack)

    def wedge(i, j):
        return np.outer(E[i], E[j]) - np.outer(E[j], E[i])

    plus = np.array([
        wedge(0, 1) + wedge(2, 3),
        wedge(1, 2) + wedge(0, 3),
        wedge(1, 3) - wedge(0, 2),
    ])
    minus = np.array([
        wedge(0, 1) - wedge(2, 3),
        wedge(1, 2) - wedge(0, 3),
        wedge(1, 3) + wedge(0, 2),
    ])
    return plus, minus


@dataclass(frozen=True)
class WeylSplit:
    m_plus: np.ndarray
    m_minus: np.ndarray
    eigs_plus: np.ndarray
    eigs_minus: np.ndarray
    lam: float | None


def weyl_split(pack):
    """Duality blocks of the Weyl operator on unit-normalized two-forms.

    The matrices represent F -> (1/2) C F; with the basis normalization
    |sigma|^2 = 4 the matrix element is sigma C sigma / 8.  lam is the
    simple eigenvalue of the self-dual block when the other two form a
    pair, else None.
    """
    cup = _raise_all(pack.ginv, pack.weyl).reshape(16, 16)
    plus, minus = (basis.reshape(3, 16) for basis in dual_bases(pack))
    m_plus = plus @ cup @ plus.T / 8.0
    m_minus = minus @ cup @ minus.T / 8.0
    eigs_plus = np.linalg.eigvalsh(0.5 * (m_plus + m_plus.T))
    eigs_minus = np.linalg.eigvalsh(0.5 * (m_minus + m_minus.T))
    lam = _simple_eigenvalue(eigs_plus)
    return WeylSplit(m_plus=m_plus, m_minus=m_minus, eigs_plus=eigs_plus,
                     eigs_minus=eigs_minus, lam=lam)


def _simple_eigenvalue(eigs):
    """The eigenvalue separated from the other two by at least 20 times
    their spread, or None."""
    scale = float(np.max(np.abs(eigs)))
    if scale == 0.0:
        return None
    gap_low = eigs[1] - eigs[0]
    gap_high = eigs[2] - eigs[1]
    if gap_low > gap_high:
        simple, spread, sep = eigs[0], gap_high, gap_low
    else:
        simple, spread, sep = eigs[2], gap_low, gap_high
    if sep <= 0 or spread > 0.05 * sep:
        return None
    return float(simple)


def scalar_laplacian(pack, f_jet):
    """Minus the metric trace of the Hessian of a scalar 2-jet."""
    df = np.zeros(4)
    df[2] = f_jet.partial(1, 0)
    df[3] = f_jet.partial(0, 1)
    ddf = np.zeros((4, 4))
    ddf[2, 2] = f_jet.partial(2, 0)
    ddf[2, 3] = ddf[3, 2] = f_jet.partial(1, 1)
    ddf[3, 3] = f_jet.partial(0, 2)
    hess = ddf - np.einsum("cab,c->ab", pack.gamma, df)
    return -float(np.einsum("ab,ab->", pack.ginv, hess))


def covariant_two_form_derivative(pack, form):
    """nabla_a Z_bc from a two-form JetMatrix, shape (4, 4, 4)."""
    Z = form.values()
    dZ = _pad_first(form.d1())
    return (
        dZ
        - np.einsum("eab,ec->abc", pack.gamma, Z)
        - np.einsum("eac,be->abc", pack.gamma, Z)
    )


def cky_residual(pack, form):
    """Deviation of a two-form jet from the conformal Killing-Yano equation.

    Returns the invariant norm of the residual and the associated vector
    xi^a = (1/3) g^{ab} nabla^c Z_bc wired into the equation.
    """
    g, gi = pack.g, pack.ginv
    covd = covariant_two_form_derivative(pack, form)
    asym = (covd + np.einsum("bca->abc", covd) + np.einsum("cab->abc", covd)) / 3.0
    xi_low = np.einsum("bc,cab->a", gi, covd) / 3.0
    L = (
        covd
        - asym
        + np.einsum("ab,c->abc", g, xi_low)
        - np.einsum("ac,b->abc", g, xi_low)
    )
    n2 = np.einsum("ad,be,cf,abc,def->", gi, gi, gi, L, L)
    xi_up = gi @ xi_low
    return float(np.sqrt(abs(n2))), xi_up


def killing_residual(pack, xi_up):
    """Invariant norm of the symmetrized derivative of a vector field.

    The components of xi_up are taken constant in this chart, which is
    the case of interest: candidate Killing fields built from the torus
    directions.
    """
    xi_up = np.asarray(xi_up, dtype=float)
    xi_low = pack.g @ xi_up
    dxi = np.einsum("abc,c->ab", pack.dg, xi_up)
    K = 0.5 * (dxi + dxi.T) - np.einsum("cab,c->ab", pack.gamma, xi_low)
    n2 = np.einsum("ac,bd,ab,cd->", pack.ginv, pack.ginv, K, K)
    return float(np.sqrt(abs(n2)))
