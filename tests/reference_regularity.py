"""The scalar corner regularity: one root set, one branch per condition.

Reference for ``pd.pd_regularity`` and ``pd._regularity_rows``, which
compute the same relations as masks over a root array (float64 rows for
float roots, object rows for exact roots): both must give the same
values, bit for bit, and raise the same CertificateError.  The closed
forms are looked up through the ``todkit.pd`` module, so a test that
patches ``pd._closed_forms`` reaches this path too.
"""

from __future__ import annotations

from todkit import pd
from todkit.errors import CertificateError
from todkit.pd import PdRegularity, _det2, _roots_text, _solve, pd_rod_vectors


def _is_integer(x, tol=1e-9):
    return abs(x - round(x)) <= tol * max(1.0, abs(x))


def pd_regularity(params):
    """Solve both corner relations and cross-check the closed forms.

    Collinear basis pairs leave the affected relation unsolved (None);
    either way the data fails unless eps = epsbar = 1 with integer m, n.
    """
    p1, p2, p3, _ = params.roots
    vecs = pd_rod_vectors(params)
    l1, l2, l3, l4 = vecs
    scale = max(abs(c) for v in vecs for c in v)
    d12 = _det2(l1, l2)
    d23 = _det2(l2, l3)
    d34 = _det2(l3, l4)

    def _zero(d):
        return abs(d) <= params.slack * 1e-14 * scale * scale

    eps = m_raw = None
    if not _zero(d12):
        eps, m_raw = _solve(l1, l2, l3, d12)
    epsbar = n_raw = None
    if not _zero(d23):
        epsbar, n_raw = _solve(l2, l3, l4, d23)

    def _ratio(num, den):
        return num / den if abs(den) > params.slack * 1e-12 * max(1.0, abs(num)) else None

    # the closed forms lose meaning exactly where the relation basis
    # degenerates (reciprocal root pairs)
    m_form, n_form = pd._closed_forms(p1, p2, p3)
    m_simp = _ratio(*m_form)
    n_simp = _ratio(*n_form)

    def _certify_closed(name, solved, closed):
        if not abs(solved - closed) <= params.slack * 1e-8 * max(1.0, abs(closed)):
            raise CertificateError(f"{name} = {solved} disagrees with its closed form "
                                   f"{closed} for roots {_roots_text(params.roots)}")

    if m_simp is not None and not _zero(d34) and eps is not None \
            and epsbar is not None and abs(float(eps * epsbar)) > 1e-12:
        _certify_closed("m / (eps epsbar)", m_raw / (eps * epsbar), m_simp)
    if n_simp is not None and eps is not None and n_raw is not None:
        _certify_closed("n eps", n_raw * eps, n_simp)

    tol = 1e-9 * params.slack

    def _is_one(x):
        return x is not None and abs(x - 1) <= tol
    ok = (_is_one(eps) and _is_one(epsbar)
          and m_raw is not None and _is_integer(m_raw, tol)
          and n_raw is not None and _is_integer(n_raw, tol))
    return PdRegularity(vectors=vecs, eps=eps, epsbar=epsbar,
                        m_raw=m_raw, n_raw=n_raw, m=m_simp, n=n_simp,
                        collinear_12=_zero(d12), collinear_34=_zero(d34),
                        end_det=_det2(l4, l1), ok=ok)
