from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpt import (Polynomial, RationalFunction, as_fraction, exact_div,
                 format_rational, poly_gcd, solve_pgf)
from fpt.exact import (GCD_PRIME, MAX_DECIMAL_EXPONENT, ONE, Z, ZERO,
                       decimal_string, solve_linear_system)

from conftest import (PSI13_DEN, PSI13_NUM, fresh_rng, outcome, random_fraction,
                      random_polynomial, random_stochastic, reference_as_fraction)

F = Fraction

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=50)
polys_st = st.lists(fractions_st, max_size=6).map(Polynomial)


def poly(*cs):
    return Polynomial([as_fraction(c) for c in cs])


class TestFractionCoercion:
    def test_decimal_string_is_exact(self):
        assert as_fraction("0.4") == F(2, 5)
        assert as_fraction("0.0186624") == F(186624, 10 ** 7)

    def test_fraction_string(self):
        assert as_fraction("2/5") == F(2, 5)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(0.4)

    def test_exponent_beyond_cap_rejected(self):
        assert as_fraction(f"1e-{MAX_DECIMAL_EXPONENT}") == F(1, 10 ** MAX_DECIMAL_EXPONENT)
        for text in (f"1e{MAX_DECIMAL_EXPONENT + 1}", "2.5E-999999999",
                     "1e+1_000_000", "1e" + "9" * 50):
            with pytest.raises(ValueError, match="exponent"):
                as_fraction(text)


digit_runs = st.text("0123456789", min_size=1, max_size=6)
# plain ints, p/q and a.b, with signs, spaces, underscores, exponents and
# non-ASCII digits mixed in; the fast path must take only the plain forms
entry_texts = st.one_of(
    digit_runs,
    st.tuples(digit_runs, st.sampled_from("./"), digit_runs).map("".join),
    st.from_regex(r"\A\s?[+-]?[0-9_٣१²]{0,4}(\s?[./]\s?[0-9_٣]{0,4})?"
                  r"([eE][+-]?[0-9_]{1,7})?\s?\Z"),
    st.text(max_size=6),
)


class TestFastPathAgainstFraction:
    @settings(max_examples=600, deadline=None)
    @given(entry_texts)
    @example("1/0")
    @example("0/0")
    @example("")
    @example("1_000/3")
    @example("2 / 3")
    @example("٣/4")
    @example("²")
    @example("12.")
    @example(".5")
    @example("1" * 5000)
    @example("1/" + "3" * 5000)
    @example("0." + "3" * 5000)
    def test_same_value_or_same_error(self, text):
        assert outcome(as_fraction, text) == outcome(reference_as_fraction, text)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0).coeffs == (F(1), F(2))
        assert poly(0, 0).is_zero()
        assert poly().degree == -1

    def test_mul_identity(self):
        assert PSI13_DEN * ONE == PSI13_DEN

    def test_add_psi13_numerator_pieces(self):
        assert poly(0, "0.4") + poly(0, 0, "0.04") == PSI13_NUM

    def test_mul_matches_schoolbook_convolution(self):
        def convolve(a, b):
            out = [F(0)] * (len(a.coeffs) + len(b.coeffs))
            for i, ca in enumerate(a.coeffs):
                for j, cb in enumerate(b.coeffs):
                    out[i + j] += ca * cb
            return Polynomial(out)

        assert PSI13_DEN * PSI13_DEN == convolve(PSI13_DEN, PSI13_DEN)
        rng = fresh_rng(7)
        for _ in range(50):
            a, b = random_polynomial(rng), random_polynomial(rng)
            assert a * b == convolve(a, b)

    def test_divmod_roundtrip(self):
        rng = fresh_rng(11)
        for _ in range(50):
            a = random_polynomial(rng)
            b = random_polynomial(rng)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ArithmeticError):
            exact_div(poly(1, 1), poly(0, 1))

    def test_eval_and_derivative(self):
        p = poly(1, -2, 3)
        assert p.eval(F(1, 2)) == 1 - 1 + F(3, 4)
        assert p.derivative() == poly(-2, 6)

    @given(polys_st, polys_st)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys_st, polys_st, polys_st)
    @settings(max_examples=50)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(fractions_st, fractions_st, fractions_st)
    def test_fraction_arithmetic_associates_exactly(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)


class TestPolyGcd:
    def test_shared_linear_factor(self):
        assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)

    def test_gcd_with_zero_is_monic_input(self):
        p = poly(2, 4)
        assert poly_gcd(p, ZERO) == poly("1/2", 1)
        assert poly_gcd(ZERO, p) == poly("1/2", 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="gcd undefined"):
            poly_gcd(ZERO, ZERO)

    def test_planted_factor(self):
        rng = fresh_rng(3)
        for _ in range(25):
            g = (random_polynomial(rng, max_degree=2) + poly(0, 0, 0, 1)).monic()
            a = g * random_polynomial(rng, max_degree=3)
            b = g * random_polynomial(rng, max_degree=3)
            if a.is_zero() and b.is_zero():
                continue
            d = poly_gcd(a, b)
            # planted factor divides the gcd, and the gcd divides both inputs
            assert divmod(d, g)[1].is_zero()
            for p in (a, b):
                if not p.is_zero():
                    assert divmod(p, d)[1].is_zero()


def euclid_gcd(a, b):
    """Reference: monic gcd by the plain Euclidean algorithm over Q."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


gcd_factors_st = st.lists(fractions_st, min_size=1, max_size=4).map(Polynomial)


class TestPolyGcdAgainstEuclid:
    """poly_gcd proves most coprime pairs mod GCD_PRIME and runs Euclid on
    the rest; both paths must agree with plain Euclid over Q."""

    @given(polys_st, polys_st, gcd_factors_st, st.booleans(), st.booleans())
    @example(Z, Z + poly(GCD_PRIME), ONE, False, False)  # coprime, not mod p
    @example(poly(1, 1), poly(2, 1), ONE, True, False)
    @example(poly(2, 1), poly(3, 1), poly(1, GCD_PRIME), True, False)  # factor vanishes mod p
    @example(poly(1, F(1, GCD_PRIME)), poly(2, 1), ONE, False, False)  # denominator p
    @settings(max_examples=200, deadline=None)
    def test_matches_euclid(self, a, b, g, share, lead_divisible):
        if share:
            a, b = a * g, b * g
        if lead_divisible and a:
            a = Polynomial(a.coeffs[:-1] + (a.coeffs[-1] * GCD_PRIME,))
        if a.is_zero() and b.is_zero():
            return
        assert poly_gcd(a, b) == euclid_gcd(a, b)


class TestRationalFunctionNormalization:
    def test_constant_denominator_scaling(self):
        rf = RationalFunction(poly(0, "0.8"), poly(2))
        assert rf.numerator == poly(0, "0.4")
        assert rf.denominator == ONE

    def test_paper_pair_reduces_consistently(self, psi13):
        # the displayed numerator/denominator share (1 + z/10); canonical
        # form strips it, so verify by cross-multiplication instead
        assert psi13.numerator * PSI13_DEN == psi13.denominator * PSI13_NUM

    def test_planted_common_factor(self):
        common = poly(-1, 1)
        rf = RationalFunction(common * poly(0, "0.4"), common * poly(1, "-0.5"))
        assert rf == RationalFunction(poly(0, "0.4"), poly(1, "-0.5"))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError, match="zero polynomial"):
            RationalFunction(ONE, ZERO)

    def test_denominator_root_at_zero_rejected(self):
        with pytest.raises(ValueError, match="non-expandable"):
            RationalFunction(ONE, Z)

    def test_zero_numerator_canonical(self):
        rf = RationalFunction(ZERO, poly(5, 7))
        assert rf.numerator == ZERO and rf.denominator == ONE

    def test_common_factor_invariance(self):
        rng = fresh_rng(23)
        for _ in range(30):
            a, b = random_polynomial(rng), random_polynomial(rng)
            q = random_polynomial(rng, max_degree=2)
            if b.is_zero() or q.is_zero() or q.coeff(0) == 0 or b.coeff(0) == 0:
                continue
            assert RationalFunction(a * q, b * q) == RationalFunction(a, b)


class TestPower:
    def test_power_equals_repeated_product(self):
        # random canonical quotients and passage PGFs of random chains,
        # the zero function included
        rng = fresh_rng(89)
        fs = [RationalFunction(ZERO), RationalFunction(ONE)]
        while len(fs) < 14:
            a, b = random_polynomial(rng), random_polynomial(rng, max_degree=3)
            if b.coeff(0) != 0:
                fs.append(RationalFunction(a, b))
        for _ in range(6):
            m = random_stochastic(rng, rng.randint(1, 4))
            fs.append(solve_pgf(m, rng.randint(1, m.n), rng.randint(1, m.n)).pgf)
        for f in fs:
            product = RationalFunction(ONE)
            for k in range(7):
                assert f ** k == product
                product = product * f

    def test_negative_power_rejected(self, psi13):
        with pytest.raises(ValueError, match="negative"):
            psi13 ** -1


class TestSeries:
    def test_psi13_golden_prefix(self, psi13):
        expect = [F(0)] + [as_fraction(s) for s in
                           ["0.4", "0.24", "0.144", "0.0864",
                            "0.05184", "0.031104", "0.0186624"]]
        assert psi13.series(8) == expect

    def test_geometric_series(self):
        rf = RationalFunction(ONE, poly(1, -1))
        assert rf.series(5) == [F(1)] * 5

    def test_matches_long_division_oracle(self):
        def long_division(rf, terms):
            # ascending-power schoolbook division on mutable lists
            rem = list(rf.numerator.coeffs) + [F(0)] * (terms + len(rf.denominator.coeffs))
            den = rf.denominator.coeffs
            out = []
            for k in range(terms):
                c = rem[k]
                out.append(c)
                if c != 0:
                    for m, d in enumerate(den):
                        rem[k + m] -= c * d
            return out

        rng = fresh_rng(5)
        for _ in range(20):
            num = random_polynomial(rng)
            den = random_polynomial(rng, max_degree=3)
            den = den + ONE - Polynomial([den.coeff(0)])  # force constant term 1
            rf = RationalFunction(num, den)
            assert rf.series(12) == long_division(rf, 12)

    def test_prefix_stability(self, psi33):
        long = psi33.series(30)
        for k in range(30):
            assert psi33.series(k) == long[:k]

    def test_reconstruction_leaves_high_order_terms_only(self, psi13):
        K = 10
        trunc = Polynomial(psi13.series(K))
        residue = psi13.numerator - psi13.denominator * trunc
        for k in range(K):
            assert residue.coeff(k) == 0

    def test_negative_terms_rejected(self, psi13):
        with pytest.raises(ValueError):
            psi13.series(-1)


class TestDerivativeAndEval:
    def test_derivative_of_constant_is_zero(self):
        rf = RationalFunction(poly(7), poly(3))
        assert rf.derivative() == RationalFunction(ZERO)

    def test_psi13_mean_via_derivative(self, psi13):
        assert psi13.derivative().eval(1) == F(5, 2)

    def test_derivative_matches_central_difference(self):
        rng = fresh_rng(17)
        h = F(1, 10 ** 5)
        for _ in range(15):
            num = random_polynomial(rng, max_degree=3)
            den = random_polynomial(rng, max_degree=2)
            den = den + ONE - Polynomial([den.coeff(0)])
            rf = RationalFunction(num, den)
            x = F(1, 2)
            if rf.denominator.eval(x) == 0 or \
               rf.denominator.eval(x - h) == 0 or rf.denominator.eval(x + h) == 0:
                continue
            deriv = rf.derivative().eval(x)
            central = (rf.eval(x + h) - rf.eval(x - h)) / (2 * h)
            assert abs(float(central - deriv)) < 1e-8 * max(1.0, abs(float(deriv)))

    def test_eval_at_one_is_total_mass(self, psi13):
        assert psi13.eval(1) == 1

    def test_eval_at_zero_is_constant_term(self, psi33):
        assert psi33.eval(0) == psi33.numerator.coeff(0)

    def test_pole_detected(self):
        rf = RationalFunction(ONE, poly(1, -1))
        with pytest.raises(ZeroDivisionError, match="pole"):
            rf.eval(1)

    def test_eval_agrees_with_partial_sums(self, psi13):
        x = F(1, 2)
        partial = sum(c * x ** k for k, c in enumerate(psi13.series(40)))
        value = psi13.eval(x)
        assert partial <= value
        # tail of a pmf-weighted power series at 1/2 is below 2^-39
        assert value - partial < F(1, 2 ** 39)


class TestRendering:
    def test_decimal_render(self):
        rf = RationalFunction(poly(0, "0.4"), poly(1, "-0.6"))
        assert rf.render(decimal=True) == "(0.4*z) / (1 - 0.6*z)"

    def test_exact_render(self):
        rf = RationalFunction(poly(0, "0.4"), poly(1, "-0.6"))
        assert rf.render(decimal=False) == "(2/5*z) / (1 - 3/5*z)"

    def test_unit_coefficients_and_powers(self):
        rf = RationalFunction(poly(0, 0, 1), poly(1, 0, "0.25"))
        assert rf.render(decimal=True) == "(z^2) / (1 + 0.25*z^2)"

    def test_zero_renders(self):
        assert RationalFunction(ZERO).render() == "(0) / (1)"

    def test_decimal_string(self):
        assert decimal_string(F(1872, 10 ** 4)) == "0.1872"
        assert decimal_string(F(-5, 2)) == "-2.5"
        assert decimal_string(F(3)) == "3"
        assert decimal_string(F(1, 3)) is None

    def test_format_rational_fallback_never_looks_exact(self):
        assert format_rational(F(1, 3), decimal=True) == "1/3 (~0.333333)"
        assert format_rational(F(1, 3), decimal=False) == "1/3"
        assert format_rational(F(5, 2), decimal=True) == "2.5"

    def test_hint_beyond_the_float_range(self):
        big = F(10 ** 400, 3)
        assert format_rational(big, decimal=True).endswith("/3 (~3.33333e+399)")
        assert format_rational(-big, decimal=True).endswith("/3 (~-3.33333e+399)")
        assert format_rational(F(1, 3 * 10 ** 400), decimal=True).endswith(" (~3.33333e-401)")
        # 9.999999e+400 + 1/3 rounds up to one significant digit
        assert format_rational(F(29999997 * 10 ** 394 + 1, 3), decimal=True) \
            .endswith("/3 (~1e+401)")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10 ** 320, 10 ** 320), st.integers(1, 10 ** 320))
    def test_hint_matches_float_where_a_float_holds_the_value(self, p, q):
        x = F(p, q)
        try:
            f = float(x)
        except OverflowError:
            return
        if decimal_string(x) is None and f != 0:
            assert format_rational(x, decimal=True).endswith(f" (~{f:.6g})")


class TestLinearSolve:
    def test_small_system(self):
        sol = solve_linear_system([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
        assert sol == [F(1), F(3)]

    def test_singular_rejected(self):
        with pytest.raises(ArithmeticError, match="singular"):
            solve_linear_system([[F(1), F(1)], [F(2), F(2)]], [F(1), F(1)])

    def test_pivoting_handles_zero_leading_entry(self):
        sol = solve_linear_system([[F(0), F(1)], [F(1), F(0)]], [F(4), F(9)])
        assert sol == [F(9), F(4)]


def reference_solve(rows, rhs):
    """Gaussian elimination with partial pivoting over Fraction, kept as
    the reference for the integer Bareiss kernel of solve_linear_system."""
    m = len(rows)
    aug = [list(rows[r]) + [rhs[r]] for r in range(m)]
    for k in range(m):
        piv = next((r for r in range(k, m) if aug[r][k] != 0), None)
        if piv is None:
            raise ArithmeticError("singular linear system")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        for r in range(k + 1, m):
            f = aug[r][k] / pk
            if f == 0:
                continue
            for c in range(k, m + 1):
                aug[r][c] -= f * aug[k][c]
    sol = [Fraction(0)] * m
    for k in range(m - 1, -1, -1):
        s = aug[k][m] - sum(aug[k][c] * sol[c] for c in range(k + 1, m))
        sol[k] = s / aug[k][k]
    return sol


entries_st = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9,
                                                   max_denominator=12))


@st.composite
def linear_systems(draw):
    """(rows, rhs, singular): an m x m system, m = 1..6, with independent
    denominators per entry and zero entries.  Half the draws zero the
    leading entry, which forces a row swap; when singular is drawn the last
    row is a combination of the others."""
    m = draw(st.integers(1, 6))
    vec = st.lists(entries_st, min_size=m, max_size=m)
    rows = draw(st.lists(vec, min_size=m, max_size=m))
    rhs = draw(vec)
    if draw(st.booleans()):
        rows[0][0] = F(0)
    singular = draw(st.booleans())
    if singular:
        coefs = draw(st.lists(entries_st, min_size=m - 1, max_size=m - 1))
        rows[-1] = [sum((c * r[k] for c, r in zip(coefs, rows)), F(0))
                    for k in range(m)]
    return rows, rhs, singular


class TestLinearSolveAgainstReference:
    @given(linear_systems())
    # row swap at step 0, then a negative pivot
    @example(([[F(0), F(1, 2), F(-1)], [F(-3, 4), F(0), F(2)],
               [F(1, 3), F(1), F(0)]], [F(1), F(-2, 7), F(5, 3)], False))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_elimination(self, system):
        rows, rhs, singular = system
        try:
            want = reference_solve(rows, rhs)
        except ArithmeticError:
            want = None
        assert want is None or not singular
        if want is None:
            with pytest.raises(ArithmeticError, match="singular"):
                solve_linear_system(rows, rhs)
        else:
            assert solve_linear_system(rows, rhs) == want
