"""A first tour: labelings, toggles, and solving on a 3-cycle.

Run with: python3 demos/01_play_the_game.py
"""

from klights import (
    Labeling,
    ToggleVector,
    apply_toggles,
    brute_force_solve,
    from_arcs,
    is_k_aw,
    neighborhood_matrix,
    solve_labeling,
    unwinnable_certificate,
)

# The directed triangle: 0 beats 1, 1 beats 2, 2 beats 0.
c3 = from_arcs(3, [(0, 1), (1, 2), (2, 0)])

print("== the board ==")
print("arcs:", sorted(c3.arcs))
print("neighborhood matrix rows:", neighborhood_matrix(c3).rows)
print()

# Start with every light at 1 (mod 3) and press vertex 0 once:
# vertex 0 bumps itself and vertex 1.
lam = Labeling((1, 1, 1), 3)
after = apply_toggles(c3, lam, ToggleVector((1, 0, 0), 3))
print("labels (1,1,1), press vertex 0 once ->", after.values)

# Solving asks: how many times should each vertex be pressed so that
# everything lands on 0?  Here pressing everything once works, because
# each vertex is bumped twice: once by itself, once by its dominator.
x = solve_labeling(c3, lam)
print("winning presses for (1,1,1) mod 3:", x.values)
print("check:", apply_toggles(c3, lam, x).values)
print()

# Not every labeling is winnable.  With k=2 the triangle gets stuck:
# every press bumps exactly two lights, so the total parity of the
# board never changes, and (1,0,0) has odd total.
stuck = Labeling((1, 0, 0), 2)
print("winning presses for (1,0,0) mod 2:", solve_labeling(c3, stuck))
print("exhaustive search agrees:", brute_force_solve(c3, stuck))
# The solver proves it too: weights y, summing to 0 over every vertex
# and the vertex it beats, so no press changes the weighted label sum.
# Here y = (1,1,1) is that parity argument, and (1,0,0) has sum 1.
print("certificate weights:", unwinnable_certificate(c3, stuck).values)
print()

# "k-AW" (k-Always-Winnable) means every starting labeling can be won.
# For the triangle that depends on k: the neighborhood determinant is 2,
# so exactly the odd k work.
for k in range(2, 8):
    print(f"triangle is {k}-AW: {is_k_aw(c3, k)}")
