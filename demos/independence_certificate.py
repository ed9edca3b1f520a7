"""Certify linear independence of three pretzel knots in the concordance group.

The truncation order omega is additive-in-the-max under connected sums for
this family, so three knots with pairwise distinct positive omega cannot
satisfy any two-term relation.  It then prints omega of the sum of all
three (3, the largest) and of the third knot plus its mirror (0).  The CLI
certifies in one call:

    branchfloer independence "pretzel(7,-3,5)" "pretzel(11,-5,9)" "pretzel(15,-7,13)"
"""

from branchfloer import knots as kn

GENERATORS = ["pretzel(7,-3,5)", "pretzel(11,-5,9)", "pretzel(15,-7,13)"]


def omega_of(text):
    return kn.invariants(kn.parse_spec(text)).omega


def main():
    singles = {t: omega_of(t) for t in GENERATORS}
    for t, w in singles.items():
        print(f"omega({t}) = {w}")

    print()
    distinct = len(set(singles.values())) == len(singles)
    all_positive = all(w > 0 for w in singles.values())
    maxes_hold = True
    for i, a in enumerate(GENERATORS):
        for b in GENERATORS[i + 1:]:
            w = omega_of(f"sum({a},{b})")
            expected = max(singles[a], singles[b])
            print(f"omega({a} # {b}) = {w}  (max of factors: {expected})")
            maxes_hold = maxes_hold and w == expected

    print()
    if distinct and all_positive and maxes_hold:
        print("certificate: the three knots span a rank-3 free subgroup")
    else:
        print("certificate: FAILED")

    k1, k2, k3 = GENERATORS
    print()
    for text in (f"sum({k1},{k2},{k3})", f"sum({k3},mirror({k3}))"):
        print(f"omega({text}) = {omega_of(text)}")


if __name__ == "__main__":
    main()
