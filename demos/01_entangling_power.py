"""How much entanglement does a basis permutation create?

A permutation of the d x d product basis acts as a unitary on two d-level
systems.  Feeding it random product states produces, on average, a fixed
amount of linear entropy: its entangling power.  For permutations this is
an exact rational, computed by counting the axis-aligned rectangles of the
grid that the permutation maps onto rectangles of the same orientation.
"""

from permupower import (
    builtin_perm,
    entangling_power,
    identity_perm,
    swap_perm,
)

print("=" * 64)
print("Entangling power of named permutations")
print("=" * 64)

for name, perm in [
    ("identity (d=3)", identity_perm(3)),
    ("swap (d=3)", swap_perm(3)),
    ("controlled-not (d=2)", builtin_perm("cnot")),
    ("cnot * swap (d=2)", builtin_perm("m")),
    ("Latin-square maximum (d=3)", builtin_perm("r9")),
    ("minimal nonzero family at d=4", builtin_perm("min:4")),
    ("the side-6 extremum", builtin_perm("d6hat")),
]:
    report = entangling_power(perm)
    eps = report.epsilon
    print(f"{name:32s}  Q_P={report.q_p:5d}  Q_PS={report.q_ps:5d}  "
          f"power = {str(eps):>8s} = {float(eps):.4f}")

print()
print("Identity has every rectangle preserved (Q_P = d^4), swap has only")
print("the degenerate one-cell rectangles (Q_P = d^2).  Lower Q totals")
print("mean more entangling.")

print()
print("A single rectangle, cell by cell (cnot, rows 1,2 x columns 1,2):")
# 0-based rows i, j and columns m, n: P keeps the rectangle when l agrees
# down both columns and k along both rows
cnot = builtin_perm("cnot")
i, j, m, n = 0, 1, 0, 1
a_ijm = int(cnot.l[i][m] == cnot.l[j][m])
a_ijn = int(cnot.l[i][n] == cnot.l[j][n])
b_imn = int(cnot.k[i][m] == cnot.k[i][n])
b_jmn = int(cnot.k[j][m] == cnot.k[j][n])
print(f"  column agreements a_ijm={a_ijm} a_ijn={a_ijn}, "
      f"row agreements b_imn={b_imn} b_jmn={b_jmn} "
      f"-> preserved: {bool(a_ijm and a_ijn and b_imn and b_jmn)}")
