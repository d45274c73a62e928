"""Walk through the slope-pattern search and its single surviving family.

Run with: python3 demos/classification_walkthrough.py
"""

from fractions import Fraction as F

from todkit import classify, rods


def main():
    res = classify.search_admissible(n_max=4, l_bound=12)
    print(f"searched nut counts up to {res.n_max} "
          f"(junction levels bounded by {res.l_bound}):")
    for br in res.branches:
        tag = "ADMISSIBLE" if br.status == "admissible" else br.status
        print(f"  n={br.n} pattern={br.pattern}: {tag}")
        print(f"      {br.certificate}")
    print(f"\nsurvivors: {len(res.survivors)}")

    # The lone survivor, as exact rod data.
    member = classify.admissible_family_member(gap=F(1, 2))
    print(f"\nfamily member at gap 1/2: {member}")
    print(f"  exact arithmetic: {member.is_exact}")

    sd = classify.slope_data(member)
    print(f"  junction levels {sd.levels}, signs {sd.signs}")

    # Numerical cross-checks on the member: conical limits and the lens.
    for rep in rods.conical_check(member):
        print(f"  rod {rep.rod}: conical limit {rep.limit:.12f}")
    gl = rods.gl2z_compatibility(member)
    print(f"  junction matrices integral: {all(r.ok for r in gl)}")
    print(f"  asymptotic lattice {rods.asymptotic_class(member).label}")

    # Why nothing else survives: the two standard failure modes.
    n1 = classify.verify_n1_degenerate()
    print(f"\nsingle nut: max |W| over a grid of {n1['points']} jets "
          f"= {n1['max_abs_w_jet']:.1f} (degenerate: {n1['degenerate']})")
    for br in res.branches:
        if br.n == 3 and br.pattern == (-1, 1):
            print(f"three nuts, pattern (-1, 1): {br.details['ends']}")


if __name__ == "__main__":
    main()
