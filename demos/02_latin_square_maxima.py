"""Maximum entangling permutations from orthogonal Latin squares.

Superimposing two orthogonal Latin squares of side d gives a permutation
whose entangling power hits d/(d+1), the ceiling for any unitary of that
size.  Pairs exist for every side except 2 and 6; side 6 gets an explicit
embedded permutation that is best-possible among permutations.
"""

from fractions import Fraction

from permupower import (
    UnsupportedOrder,
    construct_mols,
    entangling_power,
    is_latin,
    special_d6_perm,
    superimpose,
)

print("=" * 64)
print("Constructed orthogonal pairs and their induced permutations")
print("=" * 64)

for d in range(2, 13):
    try:
        pair = construct_mols(d)
    except UnsupportedOrder as exc:
        print(f"d={d:2d}  -- {exc}")
        continue
    perm = superimpose(pair)
    report = entangling_power(perm)
    # the paper's four block conditions on the matrix of P say exactly
    # that K and L are Latin
    blocks = is_latin(perm.k) and is_latin(perm.l)
    assert report.epsilon == Fraction(d, d + 1)
    print(f"d={d:2d}  power {str(report.epsilon):>6s}  "
          f"block conditions all hold: {blocks}")

print()
print("The d=3 pair, superimposed (cell = k then l):")
pair = construct_mols(3)
perm = superimpose(pair)
for i in range(3):
    print("   " + "  ".join(f"{perm.k[i][j]}{perm.l[i][j]}" for j in range(3)))

print()
print("Side 6 has no orthogonal pair (Euler's order), but this permutation")
print("is the best possible among all 36-cell permutations:")
p6 = special_d6_perm()
for i in range(6):
    print("   " + " ".join(f"{p6.k[i][j]}{p6.l[i][j]}" for j in range(6)))
r6 = entangling_power(p6)
print(f"Q_P={r6.q_p}, Q_PS={r6.q_ps}, power {r6.epsilon} = {float(r6.epsilon):.6f}")
print(f"(the unreachable unitary ceiling at d=6 would be 6/7 = {6 / 7:.6f})")
