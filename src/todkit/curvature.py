"""Curvature of a metric jet and the derived spectral checks.

Everything is evaluated from tod.JetMatrix jets in the two essential
coordinates, one jet per matrix with (*points, 4, 4) coefficient arrays
(order 2 for a metric); derivatives along the Killing directions are
structurally zero, so arrays are padded accordingly.  The matrix may
hold a point set: every array then carries the point axes in front, and
one pass evaluates the whole set: two-operand einsums ("...ab"
subscripts) for the curvature contractions, broadcasts and transposed
views where nothing is summed, stacked matrix products for the tensor
norms (norm_squared raises one index per product) and batched LAPACK
calls.  A single point is the same code with no point axis, and its
scalars come back as floats.  Each point gets the bits of its own
evaluation: the one contraction where numpy's einsum rounds differently
once a point axis is added (the trace in cky_residual) is summed in a
fixed order instead.  A point set that fails raises the exception and
message of its first failing point.

Conventions: R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + ..., Ricci is
the (a, bad) trace, the scalar Laplacian is minus the metric trace of
the Hessian (positive spectrum on compact sets), and the volume form
carries the orientation flag of the chart so that duality statements are
chart independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SignatureError

EPS = np.finfo(float).eps
# weyl_split reads no lam where the self-dual block's largest |eigenvalue|
# is at most WEYL_FLOOR * EPS * summand_norm(pack): the spectrum is then
# rounding noise.  Against a 50-digit evaluation of the same float jets
# (tests/test_weyl_floor.py), over verify's 25 points at seeds 0-3, the
# float eigenvalues are off by at most 0.51 of EPS * summand_norm on the
# two-nut file, 0.29 on the skew file and 0.31 on a 16-nut file, and by
# 0.18 on flat packs, whose exact spectrum (of the rounded inputs) is
# below 0.012; the curved files' exact spectra reach at least 5.7e10 of
# it, also with the nuts scaled by 4^+-64 and 4^+-66.  64 sits more than
# 100 times above that noise and 10^8 times below that curvature.
WEYL_FLOOR = 64.0

@dataclass(frozen=True)
class CurvaturePack:
    coords: tuple
    base: tuple
    orientation: int
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    weyl: np.ndarray
    sqrtg: float


def _float(x):
    """A no-batch result as a float; a point set keeps its array."""
    return float(x) if np.ndim(x) == 0 else x


def _pad_first(arr):
    """Prepend zero Killing slots to the derivative axis:
    (..., 2, 4, 4) -> (..., 4, 4, 4)."""
    out = np.zeros(arr.shape[:-3] + (4,) + arr.shape[-2:])
    out[..., 2:, :, :] = arr
    return out


def _transpose(T, src, dst):
    """The view einsum("..." + src + "->..." + dst, T) names: the
    trailing index axes of T reordered, no copy."""
    lead = T.ndim - len(src)
    return T.transpose(tuple(range(lead)) + tuple(lead + src.index(i) for i in dst))


def _outer(A, a, B, b):
    """The outer product einsum("..." + a + ",..." + b + "->..." + out, A, B)
    with out the letters of a and b in order, each of a and b in that order
    too.  Each entry is one product, so the broadcast has einsum's bits,
    except that a zero product keeps its sign, which einsum's zero start
    drops."""
    out = "".join(sorted(a + b))
    return (A[(...,) + tuple(slice(None) if i in a else None for i in out)]
            * B[(...,) + tuple(slice(None) if i in b else None for i in out)])


def curvature_pack(metric):
    """Riemann, Ricci, scalar and Weyl at the base points of a metric jet.

    Reads the metric's values, first and second derivatives only, so an
    order-2 jet suffices and higher coefficients change nothing.  A
    point set fails at its first point with an asymmetric metric or a
    determinant that is not positive, with that point's own message.
    """
    g = metric.values()
    asym = np.asarray(np.max(np.abs(g - np.swapaxes(g, -1, -2)), axis=(-2, -1)))
    det = np.asarray(np.linalg.det(g))
    bad = (asym > 0) | ~(det > 0)
    if bad.any():
        k = bad.argmax()
        if asym.flat[k] > 0:
            raise SignatureError("metric components are not symmetric")
        raise SignatureError(f"metric determinant {det.flat[k]} is not positive")
    ginv = np.linalg.inv(g)
    dg = _pad_first(metric.d1())
    ddg = np.zeros(g.shape[:-2] + (4, 4, 4, 4))
    ddg[..., 2:, 2:, :, :] = metric.d2()
    dginv = -np.einsum("...ae,...cef,...fb->...cab", ginv, dg, ginv)

    christoffel = dg + _transpose(dg, "cdb", "bdc") - _transpose(dg, "dbc", "bdc")
    gamma = 0.5 * np.einsum("...ad,...bdc->...abc", ginv, christoffel)
    # the rank-4 arrays are summed in place, in the order of the written
    # sums, so that fewer of them are alive at once over a point set
    sym = ddg + _transpose(ddg, "ecdb", "ebdc")
    sym -= _transpose(ddg, "edbc", "ebdc")
    del ddg
    dgamma = np.einsum("...ead,...bdc->...eabc", dginv, christoffel)
    dgamma += np.einsum("...ad,...ebdc->...eabc", ginv, sym)
    dgamma *= 0.5
    del sym

    riem_up = _transpose(dgamma, "cadb", "abcd") - _transpose(dgamma, "dacb", "abcd")
    riem_up += np.einsum("...ace,...edb->...abcd", gamma, gamma)
    riem_up -= np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    riemann = np.einsum("...ae,...ebcd->...abcd", g, riem_up)
    ricci = np.einsum("...abad->...bd", riem_up)
    del riem_up
    scalar = np.einsum("...bd,...bd->...", ginv, ricci)

    # riemann - (g ricci terms) / 2 + (scalar / 6) (g g terms)
    trace = _outer(g, "ac", ricci, "bd")
    trace -= _outer(g, "ad", ricci, "bc")
    trace += _outer(g, "bd", ricci, "ac")
    trace -= _outer(g, "bc", ricci, "ad")
    trace *= 0.5
    # in C order, the layout the written sum gave: einsum's summation
    # order over weyl (in the norms and the split) follows its layout
    weyl = np.subtract(riemann, trace, order="C")
    del trace
    gg = _outer(g, "ac", g, "bd")
    gg -= _outer(g, "ad", g, "bc")
    gg *= (scalar / 6.0)[..., None, None, None, None]
    weyl += gg
    return CurvaturePack(
        coords=metric.coords,
        base=metric.base,
        orientation=metric.orientation,
        g=g,
        ginv=ginv,
        dg=dg,
        gamma=gamma,
        dgamma=dgamma,
        riemann=riemann,
        ricci=ricci,
        scalar=_float(scalar),
        weyl=weyl,
        sqrtg=_float(np.sqrt(det)),
    )


def _raise_all(gi, T):
    """T with every index raised by the inverse metric gi, one index at
    a time: T^abc = g^ad g^be g^cf T_def for rank 3, and so on.

    Each pass is one matrix product per point that raises the leading
    index, which the transpose then moves to the back; one pass per
    index restores the order.  Each point gets the bits of its own call.
    """
    rank = T.ndim - (gi.ndim - 2)
    flat = gi.shape[:-2] + (4, 4 ** (rank - 1))
    up = T
    for _ in range(rank):
        up = np.moveaxis((gi @ up.reshape(flat)).reshape(T.shape), -rank, -1)
    return up


def norm_squared(gi, T):
    """T^ab.. T_ab.., every index of the covariant tensor T raised by the
    inverse metric gi, per point: a float64 array over a point set, a
    numpy float at one point.

    The raised tensor times T is summed over the index axes in C order
    (numpy's pairwise sum).  As for any sum, the rounding error is a few
    ulps of the sum of the absolute terms (Higham 2002, ch. 3), which is
    many ulps of the norm where the coordinate terms cancel.
    """
    rank = T.ndim - (gi.ndim - 2)
    return np.multiply(_raise_all(gi, T), T, order="C").sum(axis=tuple(range(-rank, 0)))


def invariant_norms(pack):
    """Frobenius norms of Riemann, Ricci and Weyl with indices raised."""
    gi = pack.ginv

    def norm(T):
        return _float(np.sqrt(np.abs(norm_squared(gi, T))))

    return {
        "riemann": norm(pack.riemann),
        "weyl": norm(pack.weyl),
        "ricci": norm(pack.ricci),
        "scalar": abs(pack.scalar),
    }


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
    E = np.swapaxes(L, -1, -2).copy()
    if pack.orientation < 0:
        E[..., 3, :] = -E[..., 3, :]
    return E


def dual_bases(pack):
    """Self-dual and anti-self-dual two-form triples, norm squared 4,
    shape (*points, 3, 4, 4) each."""
    E = orthonormal_coframe(pack)

    def wedge(i, j):
        u, v = E[..., i, :], E[..., j, :]
        return u[..., :, None] * v[..., None, :] - v[..., :, None] * u[..., None, :]

    plus = np.stack([
        wedge(0, 1) + wedge(2, 3),
        wedge(1, 2) + wedge(0, 3),
        wedge(1, 3) - wedge(0, 2),
    ], axis=-3)
    minus = np.stack([
        wedge(0, 1) - wedge(2, 3),
        wedge(1, 2) - wedge(0, 3),
        wedge(1, 3) + wedge(0, 2),
    ], axis=-3)
    return plus, minus


@dataclass(frozen=True)
class WeylSplit:
    m_plus: np.ndarray
    m_minus: np.ndarray
    eigs_plus: np.ndarray
    eigs_minus: np.ndarray
    lam: float | None | list


def weyl_split(pack):
    """Duality blocks of the Weyl operator on unit-normalized two-forms.

    The matrices represent F -> (1/2) C F; with the basis normalization
    |sigma|^2 = 4 the matrix element is sigma C sigma / 8.  lam is the
    simple eigenvalue of the self-dual block when the other two form a
    pair and the block is above the rounding floor (WEYL_FLOOR), else
    None; on a point set, a list of those over the points.
    """
    lead = pack.ginv.shape[:-2]
    cup = _raise_all(pack.ginv, pack.weyl).reshape(lead + (16, 16))
    plus, minus = (basis.reshape(lead + (3, 16)) for basis in dual_bases(pack))
    m_plus = plus @ cup @ np.swapaxes(plus, -1, -2) / 8.0
    m_minus = minus @ cup @ np.swapaxes(minus, -1, -2) / 8.0
    eigs_plus = np.linalg.eigvalsh(0.5 * (m_plus + np.swapaxes(m_plus, -1, -2)))
    eigs_minus = np.linalg.eigvalsh(0.5 * (m_minus + np.swapaxes(m_minus, -1, -2)))
    return WeylSplit(m_plus=m_plus, m_minus=m_minus, eigs_plus=eigs_plus,
                     eigs_minus=eigs_minus,
                     lam=_simple_eigenvalue(eigs_plus, WEYL_FLOOR * EPS * summand_norm(pack)))


def summand_norm(pack):
    """The invariant norm of the Riemann tensor's summands in absolute
    value, per point.

    R^a_bcd is d_c Gamma^a_db + Gamma^a_ce Gamma^e_db less the same with
    c and d swapped, so the tensor S^a_cdb = |d_c Gamma^a_db| +
    sum_e |Gamma^a_ce| |Gamma^e_db| holds every summand once.  Its norm
    lowers a with |g| and raises c, d and b with |g^-1|.  The curvature
    is what is left where these summands cancel, so its rounding error
    scales with this norm (WEYL_FLOOR gives the measured ratio), and the
    norm scales as the curvature does under a homothety and under a
    rescaling of each coordinate.  Each contraction is a stacked matrix
    product on a reshaped view: b, the last axis, and a, the first, in
    one product each, then c and d per leading index.
    """
    lead = pack.g.shape[:-2]
    gi = np.abs(pack.ginv)
    gamma = np.abs(pack.gamma)
    S = (gamma.reshape(lead + (16, 4)) @ gamma.reshape(lead + (4, 16))).reshape(lead + (4,) * 4)
    S += np.swapaxes(np.abs(pack.dgamma), -4, -3)
    T = (S.reshape(lead + (64, 4)) @ gi).reshape(lead + (4, 64))
    T = (np.abs(pack.g) @ T).reshape(lead + (4, 4, 16))
    T = (gi[..., None, :, :] @ T).reshape(lead + (16, 4, 4))
    T = gi[..., None, :, :] @ T
    return np.sqrt(np.sum(T.reshape(lead + (256,)) * S.reshape(lead + (256,)), axis=-1))


def _simple_eigenvalue(eigs, floor):
    """Per point, the eigenvalue separated from the other two by at least
    20 times their spread, or None, also where no eigenvalue exceeds the
    floor in size; a list (nested lists) over a point set."""
    gap_low = eigs[..., 1] - eigs[..., 0]
    gap_high = eigs[..., 2] - eigs[..., 1]
    low = gap_low > gap_high
    simple = np.where(low, eigs[..., 0], eigs[..., 2])
    spread = np.where(low, gap_high, gap_low)
    sep = np.where(low, gap_low, gap_high)
    none = (np.max(np.abs(eigs), axis=-1) <= floor) | (sep <= 0) | (spread > 0.05 * sep)
    return np.where(none, None, simple.astype(object)).tolist()


def scalar_laplacian(pack, f_jet):
    """Minus the metric trace of the Hessian of a scalar 2-jet."""
    lead = pack.ginv.shape[:-2]
    df = np.zeros(lead + (4,))
    df[..., 2] = f_jet.partial(1, 0)
    df[..., 3] = f_jet.partial(0, 1)
    ddf = np.zeros(lead + (4, 4))
    ddf[..., 2, 2] = f_jet.partial(2, 0)
    ddf[..., 2, 3] = ddf[..., 3, 2] = f_jet.partial(1, 1)
    ddf[..., 3, 3] = f_jet.partial(0, 2)
    hess = ddf - np.einsum("...cab,...c->...ab", pack.gamma, df)
    return _float(-np.einsum("...ab,...ab->...", pack.ginv, hess))


def _apply(m, v):
    """m @ v for matrices m and vectors v over the same points."""
    return (m @ v[..., None])[..., 0]


def covariant_two_form_derivative(pack, form):
    """nabla_a Z_bc from a two-form JetMatrix, shape (*points, 4, 4, 4)."""
    Z = form.values()
    dZ = _pad_first(form.d1())
    return (
        dZ
        - np.einsum("...eab,...ec->...abc", pack.gamma, Z)
        - np.einsum("...eac,...be->...abc", pack.gamma, Z)
    )


def cky_residual(pack, form):
    """Deviation of a two-form jet from the conformal Killing-Yano equation.

    Returns the invariant norm of the residual and the associated vector
    xi^a = (1/3) g^{ab} nabla^c Z_bc wired into the equation.  Reads the
    form's values and first derivatives only, so an order-1 form
    suffices, and the pack's metric, inverse and Christoffel symbols.
    """
    g, gi = pack.g, pack.ginv
    covd = covariant_two_form_derivative(pack, form)
    asym = (covd + _transpose(covd, "bca", "abc")
            + _transpose(covd, "cab", "abc")) / 3.0
    # xi_low = g^bc nabla_c Z_ab / 3 in one fixed order, the order of the
    # no-batch einsum: for each b the c terms from 0.0, then the b sums
    # from 0.0.  Given a point axis, einsum picks another inner loop for
    # this contraction, which rounds differently.
    terms = gi[..., :, :, None] * np.moveaxis(covd, (-3, -2, -1), (-2, -1, -3))
    xi_low = 0.0
    for b in range(4):
        part = 0.0
        for c in range(4):
            part = part + terms[..., b, c, :]
        xi_low = xi_low + part
    xi_low = xi_low / 3.0
    L = covd - asym + _outer(g, "ab", xi_low, "c") - _outer(g, "ac", xi_low, "b")
    return _float(np.sqrt(np.abs(norm_squared(gi, L)))), _apply(gi, xi_low)


def killing_residual(pack, xi_up):
    """Invariant norm of the symmetrized derivative of a vector field.

    The components of xi_up are taken constant in this chart, which is
    the case of interest: candidate Killing fields built from the torus
    directions.  Over a point set xi_up has shape (*points, 4).
    """
    xi_up = np.asarray(xi_up, dtype=float)
    xi_low = _apply(pack.g, xi_up)
    dxi = np.einsum("...abc,...c->...ab", pack.dg, xi_up)
    K = (0.5 * (dxi + np.swapaxes(dxi, -1, -2))
         - np.einsum("...cab,...c->...ab", pack.gamma, xi_low))
    return _float(np.sqrt(np.abs(norm_squared(pack.ginv, K))))
