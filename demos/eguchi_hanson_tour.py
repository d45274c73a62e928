"""Tour of the two-nut instanton: build, benchmark, regularity, decay.

Run with: python3 demos/eguchi_hanson_tour.py
"""

import math

import numpy as np

from todkit import curvature, harmonic, rods, tod


def main():
    data = tod.eh_rod_data(a=1.0)
    print("rod data:", data)
    print(f"  weighted nut centre {data.nut_center:.3f}, "
          f"scale {data.scale:.3f}")

    # Worked interior point: all five fields in one call.
    rho, zeta = math.sqrt(3.0) / 4.0, 0.0
    f = tod.tod_fields(data, rho, zeta, order=2)
    print(f"\nworked point (rho, zeta) = ({rho:.4f}, {zeta:.1f}):")
    print(f"  W = {f.W.value:.12f}   (exact 8/3)")
    print(f"  e2nu = {f.e2nu.value:.12f}   (exact 2)")
    print(f"  F = {f.F.value:.3e}   (odd in zeta, vanishes here)")
    print(f"  z = {f.z.value:.12f}, x = {f.x.value:.3e}")

    # Same metric through the closed-form chart: pull back and compare.
    r, theta = 1.3, 0.7
    rj, zj = tod.eh_coords(1.0, r, theta, order=1)
    fb = tod.tod_fields(data, rj.value, zj.value, order=4)
    g = tod.tod_metric(fb)
    jac = np.eye(4)
    jac[2, 2], jac[2, 3] = rj.partial(1, 0), rj.partial(0, 1)
    jac[3, 2], jac[3, 3] = zj.partial(1, 0), zj.partial(0, 1)
    pulled = jac.T @ g.values() @ jac
    want = tod.eh_closed_form(1.0, r, theta).values()
    dev = np.max(np.abs(pulled - want)) / np.max(np.abs(want))
    print(f"\nclosed-form benchmark at (r, theta) = ({r}, {theta}): "
          f"relative deviation {dev:.2e}")

    # Curvature: Ricci-flat, one-sided Weyl tensor with a simple eigenvalue.
    pack = curvature.curvature_pack(g)
    norms = curvature.invariant_norms(pack)
    split = curvature.weyl_split(pack)
    print(f"\ncurvature at the same point:")
    print(f"  |Ric|/|Riem| = {norms['ricci'] / norms['riemann']:.2e}")
    print(f"  self-dual Weyl eigenvalues {np.sort(split.eigs_plus)}")
    print(f"  lam z^3 = {split.lam * fb.z.value ** 3:.12f}   (exact -2c = 1/8)")

    # Rod-by-rod regularity: each conical limit is 1, ends give a lens.
    print("\nconical limits:")
    for rep in rods.conical_check(data):
        print(f"  rod {rep.rod}: limit = {rep.limit:.12f}")
    vs = data.vectors
    print(f"  rod vectors {vs} with v_0 + v_2 = 2 v_1")
    print(f"  asymptotic lattice {rods.asymptotic_class(data).label}")

    # Far field along a ray: W falls off at the flat-model rate.
    theta = 1.0
    rs = np.logspace(2.0, 4.0, 9)
    ws = []
    for r in rs:
        big_r = r * r / 4.0
        f = tod.tod_fields(data, big_r * math.sin(theta),
                           big_r * math.cos(theta), order=0)
        ws.append(f.W.value)
    slope = np.polyfit(np.log(rs), np.log(ws), 1)[0]
    print(f"\nfar-field W slope against the flat radius: {slope:.6f}")

    # the single-nut model: one nut of weight 1 at the centroid 0
    model = harmonic.RodData(c=data.c, zs=(0.0,), weights=(1.0,))
    v = harmonic.potentials(tod.tod_fields(data, 1e4, 0.3, order=0))[0].value
    v0 = harmonic.potentials(tod.tod_fields(model, 1e4, 0.3, order=0))[0].value
    print(f"potential minus single-nut model at rho = 1e4: {abs(v - v0):.2e}")


if __name__ == "__main__":
    main()
