import random
from itertools import product
from math import gcd, prod

import pytest

from klights import (
    InputError,
    IntMatrix,
    ModMatrix,
    ModVector,
    det_int,
    is_invertible_mod,
    is_unit_mod,
    smith_normal_form,
    solve_mod,
    unsolvable_certificate,
)

from oracles import det_cofactor

C3_NEIGHBORHOOD = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
C3_SYSTEM_ROWS = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]


def mat_mul(a, b):
    return [
        [sum(a.rows[i][t] * b.rows[t][j] for t in range(a.ncols)) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


class TestDetInt:
    def test_banded_2x2(self):
        assert det_int(IntMatrix.from_rows([[1, 1], [-1, 2]])) == 3

    def test_identity(self):
        assert det_int(IntMatrix.identity(4)) == 1

    def test_banded_3x3(self):
        m = IntMatrix.from_rows([[1, 1, 0], [-1, 1, 1], [0, -1, 2]])
        assert det_int(m) == 5

    def test_empty_matrix(self):
        assert det_int(IntMatrix.from_rows([])) == 1

    def test_singular(self):
        assert det_int(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            det_int(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_against_cofactor_expansion(self):
        rng = random.Random(4021)
        for _ in range(250):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert det_int(IntMatrix.from_rows(rows)) == det_cofactor(rows)

    def test_zero_pivots_singular_and_negative_against_cofactor(self):
        """Sparse rows force row swaps and skipped rows; every third matrix is singular."""
        rng = random.Random(5180)
        entries = (0, 0, 0, 0, -3, -1, 1, 2, 7)
        for case in range(300):
            n = rng.randint(1, 7)
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if case % 3 == 0 and n >= 2:
                i, j = rng.sample(range(n), 2)
                c = rng.choice((-2, -1, 1, 3))
                rows[j] = [c * x for x in rows[i]]
            if case % 5 == 0:
                rows[0][0] = 0
            assert det_int(IntMatrix.from_rows(rows)) == det_cofactor(rows)

    def test_pivot_swap_changes_sign(self):
        assert det_int(IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])) == -1
        assert det_int(IntMatrix.from_rows([[0, 2, 1], [0, 3, 4], [0, -1, 5]])) == 0

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError):
            IntMatrix.from_rows([[1, 2], [3]])


class TestUnits:
    def test_is_unit_mod(self):
        assert not is_unit_mod(2, 4)
        assert is_unit_mod(3, 4)
        assert is_unit_mod(-5, 3)
        assert not is_unit_mod(0, 7)

    def test_bad_modulus(self):
        with pytest.raises(InputError):
            is_unit_mod(1, 1)

    def test_invertible_identity(self):
        for k in range(2, 7):
            assert is_invertible_mod(ModMatrix.from_rows([[1, 0], [0, 1]], k))

    def test_invertible_c3(self):
        assert not is_invertible_mod(C3_NEIGHBORHOOD.reduce(2))
        assert is_invertible_mod(C3_NEIGHBORHOOD.reduce(3))


class TestValidation:
    def test_mod_matrix_unreduced_entry(self):
        with pytest.raises(InputError):
            ModMatrix.from_rows([[3]], 3)
        with pytest.raises(InputError):
            ModMatrix.from_rows([[-1]], 3)

    def test_mod_vector_unreduced_entry(self):
        with pytest.raises(InputError):
            ModVector((2,), 2)

    def test_modulus_lower_bound(self):
        with pytest.raises(InputError):
            ModVector((0,), 1)

    def test_reduce_wraps(self):
        assert ModVector.reduce([-1, 7], 5).values == (4, 2)
        assert IntMatrix.from_rows([[-1, 7]]).reduce(5).rows == ((4, 2),)

    def test_matmul_shape_checks(self):
        m = ModMatrix.from_rows([[1, 0], [0, 1]], 3)
        with pytest.raises(InputError):
            m @ ModVector((1,), 3)
        with pytest.raises(InputError):
            m @ ModVector((1, 1), 4)


class TestSmithNormalForm:
    def check(self, m):
        u, d, v = smith_normal_form(m)
        assert mat_mul(IntMatrix.from_rows(mat_mul(u, m)), v) == [list(r) for r in d.rows]
        assert det_int(u) in (1, -1)
        assert det_int(v) in (1, -1)
        diag = [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        for i in range(d.nrows):
            for j in range(d.ncols):
                if i != j:
                    assert d.rows[i][j] == 0
        return diag

    def test_already_diagonal(self):
        assert self.check(IntMatrix.from_rows([[2, 0], [0, 2]])) == [2, 2]
        assert self.check(IntMatrix.from_rows([[1, 0], [0, 6]])) == [1, 6]

    def test_upper_triangular(self):
        assert self.check(IntMatrix.from_rows([[2, 1], [0, 2]])) == [1, 4]

    def test_det_is_diagonal_product(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            )
            diag = self.check(m)
            assert abs(det_int(m)) == prod(diag)

    def test_rectangular(self):
        rng = random.Random(78)
        for _ in range(100):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
            )
            self.check(m)

    def test_zero_matrix(self):
        assert self.check(IntMatrix.from_rows([[0, 0], [0, 0]])) == [0, 0]


class TestSolveMod:
    def test_identity_system(self):
        m = ModMatrix.from_rows([[1, 0], [0, 1]], 5)
        assert solve_mod(m, ModVector((3, 4), 5)).values == (3, 4)

    def test_c3_mod3(self):
        m = ModMatrix.from_rows(C3_SYSTEM_ROWS, 3)
        x = solve_mod(m, ModVector((2, 2, 2), 3))
        assert x is not None
        assert (m @ x).values == (2, 2, 2)
        assert x.values == (1, 1, 1)

    def test_c3_mod2_unsolvable(self):
        m = ModMatrix.from_rows(C3_SYSTEM_ROWS, 2)
        assert solve_mod(m, ModVector((1, 0, 0), 2)) is None

    def test_soundness_random(self):
        rng = random.Random(911)
        for _ in range(300):
            n = rng.randint(1, 4)
            k = rng.randint(2, 9)
            m = ModMatrix.from_rows(
                [[rng.randrange(k) for _ in range(n)] for _ in range(n)], k
            )
            c = ModVector(tuple(rng.randrange(k) for _ in range(n)), k)
            x = solve_mod(m, c)
            if x is not None:
                assert (m @ x).values == c.values

    def test_completeness_exhaustive(self):
        """None is returned only when no vector at all solves the system."""
        rng = random.Random(912)
        for _ in range(150):
            n = rng.randint(1, 3)
            k = rng.randint(2, 4)
            m = ModMatrix.from_rows(
                [[rng.randrange(k) for _ in range(n)] for _ in range(n)], k
            )
            c = ModVector(tuple(rng.randrange(k) for _ in range(n)), k)
            exists = any(
                (m @ ModVector(cand, k)).values == c.values
                for cand in product(range(k), repeat=n)
            )
            assert (solve_mod(m, c) is not None) == exists

    def test_invertible_iff_always_solvable(self):
        rng = random.Random(913)
        for _ in range(60):
            n = rng.randint(1, 3)
            k = rng.randint(2, 4)
            m = ModMatrix.from_rows(
                [[rng.randrange(k) for _ in range(n)] for _ in range(n)], k
            )
            always = all(
                solve_mod(m, ModVector(c, k)) is not None
                for c in product(range(k), repeat=n)
            )
            assert is_invertible_mod(m) == always

    def test_deterministic(self):
        m = ModMatrix.from_rows([[2, 4], [4, 2]], 6)
        c = ModVector((0, 0), 6)
        assert solve_mod(m, c) == solve_mod(m, c)

    def test_non_square_system(self):
        m = ModMatrix.from_rows([[1, 1, 0], [0, 1, 1]], 4)
        c = ModVector((2, 3), 4)
        x = solve_mod(m, c)
        assert x is not None and (m @ x).values == c.values

    def test_mismatch_errors(self):
        m = ModMatrix.from_rows([[1, 0], [0, 1]], 3)
        with pytest.raises(InputError):
            solve_mod(m, ModVector((1,), 3))
        with pytest.raises(InputError):
            solve_mod(m, ModVector((1, 1), 5))

    def test_singular_but_solvable(self):
        m = ModMatrix.from_rows([[2, 0], [0, 3]], 6)
        x = solve_mod(m, ModVector((4, 3), 6))
        assert x is not None
        assert (m @ x).values == (4, 3)
        assert solve_mod(m, ModVector((1, 0), 6)) is None


def check_certificate(m, c, y):
    """y m == 0 and y . c != 0 (mod k): no x can solve m x == c."""
    k = m.modulus
    assert len(y.values) == m.nrows and y.modulus == k
    for j in range(m.ncols):
        assert sum(y.values[i] * m.rows[i][j] for i in range(m.nrows)) % k == 0
    assert sum(a * b for a, b in zip(y.values, c.values)) % k != 0


class TestUnsolvableCertificate:
    def test_c3_mod2(self):
        m = ModMatrix.from_rows(C3_SYSTEM_ROWS, 2)
        c = ModVector((1, 0, 0), 2)
        check_certificate(m, c, unsolvable_certificate(m, c))

    def test_none_when_solvable(self):
        m = ModMatrix.from_rows(C3_SYSTEM_ROWS, 3)
        assert unsolvable_certificate(m, ModVector((2, 2, 2), 3)) is None

    def test_pivot_row_needs_scaling(self):
        """2 x == 1 mod 4 fails on a pivot row: y = 2, not 1."""
        m = ModMatrix.from_rows([[2]], 4)
        c = ModVector((1,), 4)
        assert solve_mod(m, c) is None
        assert unsolvable_certificate(m, c).values == (2,)

    def test_zero_row(self):
        m = ModMatrix.from_rows([[3, 0], [0, 0]], 6)
        c = ModVector((0, 5), 6)
        assert solve_mod(m, c) is None
        check_certificate(m, c, unsolvable_certificate(m, c))

    def test_scaled_to_k_from_failing_prime_power(self):
        """Solvable mod 4, not mod 9: y is 4 times a certificate mod 9."""
        m = ModMatrix.from_rows([[3, 0], [0, 6]], 36)
        c = ModVector((1, 4), 36)
        y = unsolvable_certificate(m, c)
        check_certificate(m, c, y)
        assert all(v % 4 == 0 for v in y.values)

    def test_no_columns(self):
        m = ModMatrix.from_rows([[], []], 12)
        assert solve_mod(m, ModVector((0, 0), 12)).values == ()
        c = ModVector((0, 8), 12)
        assert solve_mod(m, c) is None
        check_certificate(m, c, unsolvable_certificate(m, c))

    def test_mismatch_errors(self):
        m = ModMatrix.from_rows([[1, 0], [0, 1]], 3)
        with pytest.raises(InputError):
            unsolvable_certificate(m, ModVector((1,), 3))


class TestPrimePowerSweeps:
    """solve_mod and its certificates against brute force, k a prime power or not."""

    @staticmethod
    def entry(rng, k):
        # Multiples of a divisor of k make the pivots of higher p-valuation.
        scale = rng.choice([d for d in range(1, k + 1) if k % d == 0])
        return rng.randrange(k) * scale % k

    @pytest.mark.parametrize("k", [4, 8, 9, 12, 36])
    def test_against_brute_force(self, k):
        rng = random.Random(1000 + k)
        outcomes = set()
        for _ in range(120):
            nc = rng.randint(1, 3)
            while k**nc > 2000:
                nc -= 1
            nr = rng.randint(1, 3)
            m = ModMatrix.from_rows(
                [[self.entry(rng, k) for _ in range(nc)] for _ in range(nr)], k
            )
            c = ModVector(tuple(self.entry(rng, k) for _ in range(nr)), k)
            exists = any(
                (m @ ModVector(cand, k)).values == c.values
                for cand in product(range(k), repeat=nc)
            )
            x = solve_mod(m, c)
            y = unsolvable_certificate(m, c)
            assert (x is not None) == exists
            assert (y is None) == exists
            if exists:
                assert (m @ x).values == c.values
            else:
                check_certificate(m, c, y)
            outcomes.add(exists)
        assert outcomes == {True, False}
