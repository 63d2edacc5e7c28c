"""Classifying every permutation of small dimensions by entangling power.

All 24 permutations at d=2 and all 362880 at d=3 fall into a handful of
exact rational classes.  Higher dimensions are sampled: the observed class
list is then a lower bound and the mean comes with a standard error.
"""

from permupower import class_bound, classify_exhaustive, classify_sampled, e0_stats

for d in (2, 3):
    hist = classify_exhaustive(d)
    print("=" * 52)
    print(f"d = {d}: {hist.total} permutations, {len(hist.classes)} classes "
          f"(bound {class_bound(d)})")
    print("=" * 52)
    print(f"{'power':>10s} {'':>10s} {'count':>10s}")
    for eps, count in hist.classes:
        print(f"{str(eps):>10s} {float(eps):10.6f} {count:10d}")
    mean = hist.mean()
    count0, frac0 = e0_stats(d)
    print(f"mean power: {mean} = {float(mean):.6f}")
    print(f"non-entangling: {count0} = 2(d!)^2, a fraction {frac0} of all")
    print()

print("=" * 52)
print("Sampled estimates for d = 4, 5 (100k permutations each)")
print("=" * 52)
for d in (4, 5):
    hist = classify_sampled(d, 100_000, seed=42)
    print(f"d = {d}: mean {float(hist.mean()):.4f} +- {hist.std_error():.4f}, "
          f">= {len(hist.classes)} classes observed (bound {class_bound(d)})")
print()
print("The exact means at d=2 and d=3 are 8/27 and 31/56; the sampled")
print("means above approach the d/(d+1) ceiling from below as d grows.")
