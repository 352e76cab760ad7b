"""Polynomial identities behind the closed forms, proved symbolically.

The other tests check these formulas on finitely many integer points; here
sympy proves them as identities in all variables.  Each formula is written
out from its docstring and first checked against the library on integer
points, so a proof is about the code and not about a transcription of it.
Needs sympy, which the ``test`` extra installs, so Tier-1 runs these proofs
locally and in CI; sympy is no runtime dependency, and the module skips
without it.
"""

from __future__ import annotations

import random

import pytest

sp = pytest.importorskip("sympy")

from ulrich_lab import (  # noqa: E402  (after the importorskip)
    CUBIC_SURFACE,
    BundleNumerics,
    DivisorClass,
    NumericClassData,
    cubic_moduli_pair,
    discriminant,
    discriminant_drift,
    dual,
    euler_char,
    expected_moduli_dim,
    intersect,
    is_ulrich_candidate,
    iterate_syzygy,
    make_surface,
    rank_by_recurrence,
    syzygy_numerics,
    tensor,
    tensor_line,
    twist_by_h,
    twisted_cubics,
    ulrich_c2,
)
from ulrich_lab.checks import default_seeds  # noqa: E402
from ulrich_lab.chern import _chi, _chi_dual_product, _twist  # noqa: E402
from ulrich_lab.picard import _classes_with  # noqa: E402
from ulrich_lab.syzygy import _closed_core  # noqa: E402

d, r, k, n_prev, n_k = sp.symbols("d r k N_prev N_k")
q, p, c2 = sp.symbols("q p c2")  # c1^2, c1.H and c2 of one bundle
s, t, A, B, X, cf, cg = sp.symbols("s t A B X c_F c_G")


def is_zero(expr) -> bool:
    return sp.simplify(sp.expand(expr)) == 0


class TestClosedCore:
    """m_k and sum_{i<k} sign_i m_i of :func:`syzygy._closed_core`.

    With sign_i = (-1)^{i+1}, m_0 = 0 and m_{i+1} = -(m_i + N_i), the core
    uses m_k = -sign_k r - (N_k + N_{k-1})/d and
    sum_{i<k} sign_i m_i = -k r + (r + sign_k N_{k-1})/d.
    """

    @staticmethod
    def m(sign, prev, cur):
        return -sign * r - (cur + prev) / d

    @staticmethod
    def signed_sum(kk, sign, prev):
        return -kk * r + (r + sign * prev) / d

    def test_forms_match_the_core(self):
        # The two forms as written here are the ones _closed_core evaluates.
        for dd in range(4, 9):
            for rr in (1, 2, 3):
                m_i, total = 0, 0
                for kk in range(12):
                    sign = 1 if kk % 2 else -1
                    prev, cur = (rank_by_recurrence(dd, rr, kk - 1),
                                 rank_by_recurrence(dd, rr, kk))
                    values = {d: dd, r: rr}
                    assert self.m(sign, prev, cur).subs(values) == m_i
                    assert self.signed_sum(kk, sign, prev).subs(values) == total
                    core_sign, core_m, *_ = _closed_core(dd, rr, 0, 0, 0, kk, prev, cur)
                    assert (core_sign, core_m) == (sign, m_i)
                    total += sign * m_i
                    m_i = -(m_i + cur)

    def test_base_case(self):
        # k = 0: sign_0 = -1, N_{-1} = r, N_0 = r(d-1); m_0 = 0, empty sum.
        assert is_zero(self.m(-1, r, r * (d - 1)))
        assert is_zero(self.signed_sum(0, -1, r))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_induction_step(self, sign):
        # From k to k+1 under N_{k+1} = (d-2) N_k - N_{k-1}; sign_{k+1} = -sign_k.
        n_next = (d - 2) * n_k - n_prev
        m_k = self.m(sign, n_prev, n_k)
        assert is_zero(-(m_k + n_k) - self.m(-sign, n_k, n_next))
        step = self.signed_sum(k, sign, n_prev) + sign * m_k
        assert is_zero(step - self.signed_sum(k + 1, -sign, n_k))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_divisions_stay_exact(self, sign):
        # The step sends N_k + N_{k-1} to d N_k - (N_k + N_{k-1}), and moves
        # r + sign_k N_{k-1} by -sign_k (N_k + N_{k-1}).  Both numerators are
        # multiples of d at k = 0 (r d and 0), so they stay so for every k.
        n_next = (d - 2) * n_k - n_prev
        assert is_zero((n_next + n_k) - (d * n_k - (n_k + n_prev)))
        assert is_zero((r - sign * n_k) - (r + sign * n_prev) + sign * (n_k + n_prev))


class TestTensorC2:
    """The c2 formula of :func:`chern.tensor` from ch(F(x)G) = ch(F) ch(G)."""

    @staticmethod
    def from_chern_character():
        # ch = (rk, c1, (c1^2 - 2 c2)/2); c1(F(x)G) = t c1(F) + s c1(G).
        ch2_f, ch2_g = (A - 2 * cf) / 2, (B - 2 * cg) / 2
        ch2 = s * ch2_g + X + t * ch2_f  # degree-2 part of ch(F) ch(G)
        c1_sq = t * t * A + 2 * s * t * X + s * s * B
        return c1_sq / 2 - ch2  # c2 = c1^2/2 - ch_2

    def test_general_formula(self):
        code = (sp.binomial(s, 2) * B + s * cg + (s * t - 1) * X
                + t * cf + sp.binomial(t, 2) * A)
        assert is_zero(sp.expand_func(code) - self.from_chern_character())

    def test_line_bundle_formulas(self):
        # A line bundle has c2 = 0.
        line = self.from_chern_character().subs({t: 1, cg: 0})
        assert is_zero(sp.expand_func(sp.binomial(s, 2) * B + (s - 1) * X + cf) - line)
        assert is_zero(line.subs({s: 1, cf: 0}))

    @pytest.mark.parametrize("ranks", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 2), (2, 4)])
    def test_matches_tensor(self, ranks):
        rng = random.Random(7)
        expr = self.from_chern_character()
        for _ in range(6):
            classes = [DivisorClass(rng.randint(-5, 5),
                                    tuple(rng.randint(-5, 5) for _ in range(4)))
                       for _ in range(2)]
            c2s = [rng.randint(-9, 9) for _ in ranks]  # rank-1 c2 counts too
            f, g = (BundleNumerics(*data) for data in zip(ranks, classes, c2s))
            values = {s: f.rank, t: g.rank, A: f.c1_sq, B: g.c1_sq,
                      X: f.c1.dot(g.c1), cf: f.c2, cg: g.c2}
            assert tensor(f, g).c2 == expr.subs(values)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_tensor_line(self, rank):
        # The line case t = 1, c2(G) = 0, including the rank-1 twist of a line.
        rng = random.Random(rank)
        expr = self.from_chern_character().subs({t: 1, cg: 0})
        for _ in range(6):
            c1_f, line = (DivisorClass(rng.randint(-5, 5),
                                       tuple(rng.randint(-5, 5) for _ in range(4)))
                          for _ in range(2))
            f = BundleNumerics(rank, c1_f, rng.randint(-9, 9))
            values = {s: rank, A: f.c1_sq, B: line.self_intersection,
                      X: c1_f.dot(line), cf: f.c2}
            twisted = tensor_line(f, line)
            assert twisted.rank == rank
            assert twisted.c1 == c1_f + rank * line
            assert twisted.c2 == expr.subs(values)


class TestChiDualProduct:
    """chi(F* (x) G) of :func:`chern._chi_dual_product` from ch(F*) ch(G)."""

    hf, hg = sp.symbols("h_F h_G")  # c1(F).H and c1(G).H

    @classmethod
    def kernel(cls):
        # As the kernel evaluates it: c1^2 and c1.H of -t c1(F) + s c1(G),
        # the all-ranks c2 at the pairing -X, Riemann-Roch with chi(O) = 1.
        c1_sq = t * t * A - 2 * s * t * X + s * s * B
        c1_h = s * cls.hg - t * cls.hf
        c2_code = (sp.binomial(s, 2) * B + s * cg + (s * t - 1) * (-X)
                   + t * cf + sp.binomial(t, 2) * A)
        return s * t + (c1_sq + c1_h) / 2 - c2_code

    @classmethod
    def from_chern_character(cls):
        # ch(F*) = (s, -c1(F), ch_2(F)) and ch(F* (x) G) = ch(F*) ch(G); on a
        # surface with K = -H and chi(O) = 1, chi = rk + ch_2 + c1.H/2.
        ch2 = s * (B - 2 * cg) / 2 - X + t * (A - 2 * cf) / 2
        return s * t + ch2 + (s * cls.hg - t * cls.hf) / 2

    def test_kernel_is_riemann_roch(self):
        assert is_zero(sp.expand_func(self.kernel() - self.from_chern_character()))

    @pytest.mark.parametrize("width", [1, 4, 6])
    def test_matches_the_kernel(self, width):
        rng = random.Random(width)
        surface = make_surface(9 - width)
        expr = sp.expand_func(self.kernel())
        for _ in range(8):
            f, g = (BundleNumerics(rng.randint(1, 6),
                                   DivisorClass(rng.randint(-9, 9),
                                                tuple(rng.randint(-9, 9) for _ in range(width))),
                                   rng.randint(-50, 50))
                    for _ in range(2))
            values = {s: f.rank, t: g.rank, A: f.c1_sq, B: g.c1_sq, X: f.c1.dot(g.c1),
                      cf: f.c2, cg: g.c2, self.hf: f.c1_dot_h, self.hg: g.c1_dot_h}
            chi = _chi_dual_product(f, g)
            assert chi == expr.subs(values) == euler_char(tensor(dual(f), g), surface)


class TestDriftStep:
    """Delta(S) - (rk^2 - 1) is the same for E and for S = M_E(H)."""

    @staticmethod
    def chi(rank, c1_sq, c1_h, second):
        return rank + (c1_sq + c1_h) / 2 - second  # Riemann-Roch, K = -H

    @staticmethod
    def delta(rank, c1_sq, second):
        return 2 * rank * second - (rank - 1) * c1_sq

    @staticmethod
    def twist(rank, c1_sq, c1_h, second, m):
        # twist_by_h in the reduced data.
        return (rank, c1_sq + 2 * rank * m * c1_h + rank * rank * m * m * d,
                c1_h + rank * m * d,
                sp.binomial(rank, 2) * m * m * d + (rank - 1) * m * c1_h + second)

    def syzygy(self, rank, c1_sq, c1_h, second):
        # Kernel of H^0(E) (x) O -> E with h^0 = chi(E).
        h0 = self.chi(rank, c1_sq, c1_h, second)
        return h0 - rank, c1_sq, -c1_h, c1_sq - second

    def drift(self, rank, c1_sq, c1_h, second):
        return self.delta(rank, c1_sq, second) - (rank * rank - 1)

    def linear_form(self, rank, c1_sq, c1_h, second):
        # chi(E(-H)) / 2, which the Ulrich conditions set to zero.
        return self.chi(*self.twist(rank, c1_sq, c1_h, second, -1)) / 2

    def test_formulas_match_the_library(self):
        m = sp.Symbol("m")
        rng = random.Random(11)
        for _ in range(30):
            dd = rng.randint(3, 8)
            surface = make_surface(dd)
            rank = rng.randint(1, 5)
            c1_sq = rng.randint(-30, 30)
            data = NumericClassData(rank, c1_sq, rng.randint(-30, 30) * 2 + c1_sq % 2,
                                    rng.randint(-30, 30))
            point = {q: data.c1_sq, p: data.c1_dot_h, c2: data.c2, r: rank, d: dd}
            mm = rng.randint(-3, 3)
            twisted = twist_by_h(data, mm, surface)
            formula = self.twist(r, q, p, c2, m)
            assert [sp.expand_func(x).subs({**point, m: mm}) for x in formula] == [
                twisted.rank, twisted.c1_sq, twisted.c1_dot_h, twisted.c2]
            assert self.chi(r, q, p, c2).subs(point) == euler_char(data, surface)
            assert self.delta(r, q, c2).subs(point) == discriminant(data)
            h0 = euler_char(data, surface)
            if h0 > rank:
                kernel = syzygy_numerics(data, h0)
                assert [x.subs(point) for x in self.syzygy(r, q, p, c2)] == [
                    kernel.rank, kernel.c1_sq, kernel.c1_dot_h, kernel.c2]

    def test_step_factors_through_chi(self):
        # Delta(M) - (N^2-1) - (Delta(E) - (r^2-1)) = 2 chi(E) * lambda(E).
        jump = sp.expand(self.drift(*self.syzygy(r, q, p, c2)) - self.drift(r, q, p, c2))
        chi = self.chi(r, q, p, c2)
        form = sp.expand(sp.expand_func(self.linear_form(r, q, p, c2)))
        assert sp.Poly(form, r, q, p, c2).total_degree() == 1
        assert is_zero(jump - 2 * chi * form)
        factors = [f for f, _ in sp.factor_list(jump)[1]]
        assert any(is_zero(f - 2 * chi) or is_zero(f + 2 * chi) for f in factors)

    def test_form_vanishes_on_ulrich_data(self):
        # Ulrich: c1.H = r d and c2 = r + (c1^2 - r d)/2.
        ulrich = {p: r * d, c2: r + (q - r * d) / 2}
        assert is_zero(sp.expand_func(self.linear_form(r, q, p, c2)).subs(ulrich))

    def test_form_is_kept_by_syzygy_and_twist(self):
        # lambda(M_E(H)) = chi(M_E)/2 = (h^0 - chi(E))/2 = 0 for any E.
        step = self.twist(*self.syzygy(r, q, p, c2), 1)
        assert is_zero(sp.expand_func(self.linear_form(*step)))

    def test_twist_keeps_delta(self):
        m = sp.Symbol("m")
        rank, c1_sq, _, second = self.twist(r, q, p, c2, m)
        assert is_zero(sp.expand_func(self.delta(rank, c1_sq, second) - self.delta(r, q, c2)))

    def test_drift_jump_is_chi_times_chi_of_the_minus_h_twist(self):
        # M = syzygy(E) at h^0 = chi(E) and S_0 = M(H): chi(M) = 0, and
        # drift(S_0) - drift(E) = chi(E) chi(E(-H)), whatever E is.
        kernel = self.syzygy(r, q, p, c2)
        assert is_zero(self.chi(*kernel))
        jump = self.drift(*self.twist(*kernel, 1)) - self.drift(r, q, p, c2)
        product = self.chi(r, q, p, c2) * self.chi(*self.twist(r, q, p, c2, -1))
        assert is_zero(sp.expand_func(jump - product))

    def test_drift_jump_on_random_numerics(self):
        # The jump above on the library, on reduced numerics of every degree
        # with chi(E) > rank.  An Ulrich seed has chi(E(-H)) = 0, so its drift
        # is constant from k = 0 (syzygy.drift-constant).
        rng = random.Random(53)
        checked = 0
        while checked < 7000:
            dd = rng.randint(3, 8)
            surface = make_surface(dd)
            rank, c1_sq = rng.randint(1, 6), rng.randint(-40, 40)
            seed = NumericClassData(rank, c1_sq, rng.randint(-30, 30) * 2 + c1_sq % 2,
                                    rng.randint(-40, 40))
            h0 = euler_char(seed, surface)
            if h0 <= rank:
                continue
            kernel = syzygy_numerics(seed, h0)
            assert euler_char(kernel, surface) == 0
            jump = expected_moduli_dim(twist_by_h(kernel, 1, surface)) - expected_moduli_dim(seed)
            assert jump == h0 * euler_char(twist_by_h(seed, -1, surface), surface)
            checked += 1
        for surface, seed in default_seeds():
            assert euler_char(twist_by_h(seed, -1, surface), surface) == 0

    def test_drift_is_constant_along_the_iteration(self):
        # The three facts above, chained: on data where lambda = 0, one
        # syzygy-and-twist step keeps the drift and lands where lambda = 0.
        ulrich = {p: r * d, c2: r + (q - r * d) / 2}
        step = self.twist(*self.syzygy(r, q, p, c2), 1)
        assert is_zero(sp.expand_func(self.drift(*step) - self.drift(r, q, p, c2)).subs(ulrich))


class TestFactoredForms:
    """The one-product forms of :mod:`chern` equal the textbook polynomials.

    Twist by m H with s = rk, p = c1.H and u = 2p + smd:
    c1^2' = c1^2 + sm u and c2' = c2 + (sm u - m u)/2;
    Delta = r (2 c2 - c1^2) + c1^2 and Delta - (r^2 - 1) = r (2 c2 - c1^2 - r) + c1^2 + 1.
    The fused step of :func:`syzygy.iterate_syzygy`, a second copy of the
    twist, equals the syzygy kernel followed by the textbook twist at m = 1.
    """

    m = sp.Symbol("m")

    def u(self):
        return 2 * p + s * self.m * d

    def twist(self):
        sm, u = s * self.m, self.u()
        return q + sm * u, p + sm * d, c2 + (sm * u - self.m * u) / 2

    @staticmethod
    def delta():
        return r * (2 * c2 - q) + q

    @staticmethod
    def moduli_dim():
        return r * (2 * c2 - q - r) + q + 1

    def test_forms_match_the_library(self):
        rng = random.Random(13)
        for _ in range(30):
            dd, rank, mm = rng.randint(3, 8), rng.randint(1, 6), rng.randint(-5, 5)
            c1_h = rng.randint(-40, 40)
            data = NumericClassData(rank, rng.randint(-20, 20) * 2 + c1_h % 2, c1_h,
                                    rng.randint(-40, 40))
            point = {s: rank, r: rank, q: data.c1_sq, p: c1_h, c2: data.c2, d: dd, self.m: mm}
            twisted = twist_by_h(data, mm, make_surface(dd))
            assert [x.subs(point) for x in self.twist()] == [
                twisted.c1_sq, twisted.c1_dot_h, twisted.c2]
            assert self.delta().subs(point) == discriminant(data)
            assert self.moduli_dim().subs(point) == expected_moduli_dim(data)

    @staticmethod
    def textbook_twist(rank, c1_sq, c1_h, second, mm):
        return (rank, c1_sq + 2 * rank * mm * c1_h + rank * rank * mm * mm * d,
                c1_h + rank * mm * d, second + sp.binomial(rank, 2) * mm * mm * d
                + (rank - 1) * mm * c1_h)

    def test_twist_equals_textbook(self):
        _, *textbook = self.textbook_twist(s, q, p, c2, self.m)
        for mine, theirs in zip(self.twist(), textbook, strict=True):
            assert is_zero(sp.expand_func(mine - theirs))

    def test_halving_is_exact(self):
        # (s-1) m u is twice C(s,2) m^2 d + (s-1) m p, an integer polynomial.
        mm = self.m
        twice = 2 * (sp.binomial(s, 2) * mm * mm * d + (s - 1) * mm * p)
        assert is_zero(sp.expand_func((s - 1) * mm * self.u() - twice))

    def test_delta_and_moduli_dim_equal_textbook(self):
        textbook = 2 * r * c2 - (r - 1) * q
        assert is_zero(self.delta() - textbook)
        assert is_zero(self.moduli_dim() - (textbook - (r * r - 1)))

    @staticmethod
    def syzygy(rank, c1_sq, c1_h, second):
        # Kernel of H^0 (x) O -> F with h^0 = chi(F) = rank + (c1^2 + c1.H)/2 - c2:
        # rank h^0 - rank, c1 -> -c1, c2 -> c1^2 - c2.
        h0 = rank + (c1_sq + c1_h) / 2 - second
        return h0 - rank, c1_sq, -c1_h, c1_sq - second

    @staticmethod
    def inline_step(n, c1_sq, c1_h, second):
        # N' = h0 - n, p' = N'd - p, u = p' - p, q' = q + N'u, c2' = q - c2 + (N'u - u)/2.
        h0 = n + (c1_sq + c1_h) / 2 - second
        rank = h0 - n
        p_next = rank * d - c1_h
        u = p_next - c1_h
        return rank, c1_sq + rank * u, p_next, c1_sq - second + (rank * u - u) / 2

    def test_inline_step_equals_twist_of_syzygy(self):
        expected = self.textbook_twist(*self.syzygy(r, q, p, c2), 1)
        for mine, theirs in zip(self.inline_step(r, q, p, c2), expected, strict=True):
            assert is_zero(sp.expand_func(mine - theirs))


class TestOnePassStep:
    """One step of :func:`syzygy.iterate_syzygy` is the kernel, then O(H).

    In (n, q, p, c2) of S_{k-1} the step is N = (q + p)/2 - c2,
    p' = N d - p, u = p' - p, q' = q + N u and c2' = q - c2 + (N - 1) u / 2;
    :class:`TestWidthStep` shows that the loop's step on w = 2 c2 - q is this one.
    """

    @staticmethod
    def one_pass(rank, c1_sq, c1_h, second):
        n = (c1_sq + c1_h) / 2 - second
        p_next = n * d - c1_h
        u = p_next - c1_h
        return n, c1_sq + n * u, p_next, c1_sq - second + (n - 1) * u / 2

    @staticmethod
    def textbook(rank, c1_sq, c1_h, second):
        # Kernel of H^0 (x) O -> S with h^0 = chi(S): (chi - rank, c1^2, -c1.H,
        # c1^2 - c2); then the textbook twist by H of a rank-N bundle.
        n = rank + (c1_sq + c1_h) / 2 - second - rank
        kp, kc2 = -c1_h, c1_sq - second
        return (n, c1_sq + 2 * n * kp + n * n * d, kp + n * d,
                sp.binomial(n, 2) * d + (n - 1) * kp + kc2)

    def test_step_matches_the_library(self):
        for dd in range(4, 9):
            surface = make_surface(dd)
            for rank, c1_sq in ((1, dd - 2), (2, 4 * dd - 4), (3, 9 * dd)):
                seed = NumericClassData(rank, c1_sq, rank * dd, ulrich_c2(rank, c1_sq, surface))
                rows = iterate_syzygy(seed, surface, 6).entries
                for before, after in zip(rows, rows[1:]):
                    data = tuple(map(sp.Integer, (before.rank, before.c1_sq, before.c1_dot_h,
                                                  before.c2)))
                    got = (after.rank, after.c1_sq, after.c1_dot_h, after.c2)
                    assert tuple(x.subs(d, dd) for x in self.one_pass(*data)) == got
                    inline = TestFactoredForms.inline_step(*data)
                    assert tuple(x.subs(d, dd) for x in inline) == got
                    # The public composition the step replaces gives the same row.
                    f = before.as_numeric()
                    twisted = twist_by_h(syzygy_numerics(f, euler_char(f, surface)), 1, surface)
                    assert (twisted.rank, twisted.c1_sq, twisted.c1_dot_h, twisted.c2) == got

    def test_one_pass_equals_kernel_then_twist(self):
        for mine, theirs in zip(self.one_pass(r, q, p, c2), self.textbook(r, q, p, c2)):
            assert is_zero(sp.expand_func(mine - theirs))

    def test_halvings_are_exact(self):
        # c2': (N - 1) u = 2 [C(N, 2) d - (N - 1) p], an integer polynomial in N.
        nn = sp.Symbol("N")
        u = nn * d - 2 * p
        assert is_zero(sp.expand_func((nn - 1) * u - 2 * (sp.binomial(nn, 2) * d - (nn - 1) * p)))
        # Riemann-Roch at the next step: q' + p' - (q + p) = 2 [C(N+1, 2) d - p - N p],
        # so q + p stays even along the iteration and N stays an integer.
        q_next, p_next = q + nn * u, nn * d - p
        assert is_zero(sp.expand_func(
            (q_next + p_next) - (q + p) - 2 * (sp.binomial(nn + 1, 2) * d - p - nn * p)))



class TestWidthStep:
    """The step :func:`syzygy.iterate_syzygy` runs, on w = 2 c2 - c1^2.

    From (n, q, p, w) of S_{k-1}, the syzygy module docstring's step is
    N = (p - w)/2, u = N d - 2p, q' = q + N u, p' = p + u and w' = -(w + u);
    a row's c2 is (w + q)/2 and its drift rk (w - rk) + q + 1.
    """

    w = sp.Symbol("w")

    @staticmethod
    def step(rank, c1_sq, c1_h, w):
        n = (c1_h - w) / 2
        u = n * d - 2 * c1_h
        return n, c1_sq + n * u, c1_h + u, -(w + u)

    @staticmethod
    def drift(rank, c1_sq, w):
        return rank * (w - rank) + c1_sq + 1

    def test_step_matches_the_library(self):
        for dd in range(4, 9):
            surface = make_surface(dd)
            for rank, c1_sq in ((1, dd - 2), (2, 4 * dd - 4), (3, 9 * dd)):
                seed = NumericClassData(rank, c1_sq, rank * dd, ulrich_c2(rank, c1_sq, surface))
                trace = iterate_syzygy(seed, surface, 6)
                rows = trace.entries
                widths = [2 * row.c2 - row.c1_sq for row in rows]
                assert rows._ws == widths  # the column the trace keeps
                for before, after, w_before, w_after in zip(rows, rows[1:], widths, widths[1:]):
                    data = tuple(map(sp.Integer, (before.rank, before.c1_sq, before.c1_dot_h,
                                                  w_before)))
                    got = (after.rank, after.c1_sq, after.c1_dot_h, w_after)
                    assert tuple(x.subs(d, dd) for x in self.step(*data)) == got
                assert [self.drift(row.rank, row.c1_sq, w)
                        for row, w in zip(rows, widths)] == discriminant_drift(trace)

    def test_step_equals_the_c2_step(self):
        # Substitute w = 2 c2 - c1^2 and compare with the (c1^2, c1.H, c2) step.
        n, q_next, p_next, w_next = (x.subs(self.w, 2 * c2 - q) for x in self.step(r, q, p, self.w))
        m, q_old, p_old, c2_old = TestOnePassStep.one_pass(r, q, p, c2)
        for mine, theirs in ((n, m), (q_next, q_old), (p_next, p_old),
                             (w_next, 2 * c2_old - q_old)):
            assert is_zero(sp.expand_func(mine - theirs))

    def test_parity_is_that_of_riemann_roch_and_is_kept(self):
        # p - w and q + p differ by 2 c2; one step moves p - w by 2 (w + u),
        # an even integer for integers N, d, p and w.
        assert is_zero((p - self.w).subs(self.w, 2 * c2 - q) - (q + p) + 2 * c2)
        nn = sp.Symbol("N")
        width = p - 2 * nn  # w with N = (p - w)/2 an integer
        _, _, p_next, w_next = (x.subs(self.w, width) for x in self.step(r, q, p, self.w))
        assert is_zero((p_next - w_next) - (p - width) - 2 * (width + nn * d - 2 * p))

    def test_drift_and_c2_of_a_row(self):
        assert is_zero(self.drift(r, q, 2 * c2 - q) - TestFactoredForms.moduli_dim())
        assert is_zero((2 * c2 - q + q) / 2 - c2)


class TestUlrichConditions:
    """Why :func:`ulrich.is_ulrich_candidate` tests c1.H and c2 and no chi.

    ``_twist`` by m H with s = rk, p = c1.H and u = 2p + smd gives
    (c1^2 + sm u, p + smd, c2 + (s-1) m u / 2), and ``_chi`` reads
    rk + (c1^2 + c1.H)/2 - c2.  chi(E(-H)) - chi(E(-2H)) = c1.H - r d, and
    once c1.H = r d both equal r + (c1^2 - r d)/2 - c2; so the two chi
    conditions are c1.H = r d and the Ulrich c2, at which chi(E) = r d.
    """

    @staticmethod
    def twisted_chi(rank, c1_sq, c1_h, second, mm):
        u = 2 * c1_h + rank * mm * d
        return (rank + (c1_sq + rank * mm * u + c1_h + rank * mm * d) / 2
                - (second + (rank - 1) * mm * u / 2))

    @staticmethod
    def c2_gap(rank, c1_sq, second):
        # What the c2 test of is_ulrich_candidate sets to zero.
        return rank + (c1_sq - rank * d) / 2 - second

    def test_formula_matches_the_library(self):
        rng = random.Random(17)
        for _ in range(60):
            dd, rank = rng.randint(3, 8), rng.randint(1, 6)
            surface = make_surface(dd)
            c1_h = rank * dd + rng.choice((0, 0, -1, 1))
            c1_sq = 2 * rng.randint(-30, 30) + c1_h % 2  # c1^2 + c1.H even
            second = ulrich_c2(rank, c1_sq, surface) if c1_h == rank * dd else 0
            second += rng.choice((0, 0, -1, 1))
            point = {r: rank, q: c1_sq, p: c1_h, c2: second, d: dd}
            chis = [_chi(rank, *_twist(rank, c1_sq, c1_h, second, mm, dd)) for mm in (-1, -2)]
            assert chis == [self.twisted_chi(r, q, p, c2, mm).subs(point) for mm in (-1, -2)]
            data = NumericClassData(rank, c1_sq, c1_h, second)
            assert is_ulrich_candidate(data, surface) == (chis == [0, 0])

    def test_the_two_twists_differ_by_the_degree_condition(self):
        assert is_zero(self.twisted_chi(r, q, p, c2, -1) - self.twisted_chi(r, q, p, c2, -2)
                       - (p - r * d))

    @pytest.mark.parametrize("mm", [-1, -2])
    def test_both_twists_are_the_c2_equation(self, mm):
        assert is_zero(self.twisted_chi(r, q, r * d, c2, mm) - self.c2_gap(r, q, c2))

    def test_chi_at_the_ulrich_c2_is_rank_times_degree(self):
        ulrich = r + (q - r * d) / 2
        assert is_zero(self.twisted_chi(r, q, r * d, ulrich, 0) - r * d)


class TestUlrichLinePairs:
    """chi(O(A), O(B)) = (d - 1) - A.B for two rank-1 Ulrich classes.

    Both have c.H = d and c^2 = d - 2.  chi(O(A), O(B)) = chi(O(B - A)), and
    Riemann-Roch with K = -H and chi(O) = 1 reads chi(O(D)) = 1 + (D^2 +
    D.H)/2, with D^2 = A^2 - 2 A.B + B^2 and D.H = B.H - A.H.
    """

    aa, bb, ab, ah, bh = sp.symbols("A2 B2 AB AH BH")  # A^2, B^2, A.B, A.H, B.H

    @classmethod
    def chi(cls):
        return 1 + ((cls.aa - 2 * cls.ab + cls.bb) + (cls.bh - cls.ah)) / 2

    def test_formula_matches_the_library(self):
        rng = random.Random(29)
        for dd in range(3, 8):
            surface = make_surface(dd)
            lines = [DivisorClass(a, b) for a, b in _classes_with(9 - dd, dd, dd - 2)]
            others = [DivisorClass(a, b) for a, b in _classes_with(9 - dd, dd + 1, dd - 1)]
            for x, y in zip(rng.choices(lines + others, k=12), rng.choices(lines + others, k=12)):
                point = {self.aa: x.self_intersection, self.bb: y.self_intersection,
                         self.ab: intersect(x, y, surface), self.ah: x.degree,
                         self.bh: y.degree}
                bundles = [BundleNumerics(1, c, 0) for c in (x, y)]
                assert self.chi().subs(point) == euler_char(tensor(dual(bundles[0]), bundles[1]),
                                                            surface)

    def test_chi_is_d_minus_one_minus_the_pairing(self):
        ulrich = {self.aa: d - 2, self.bb: d - 2, self.ah: d, self.bh: d}
        assert is_zero(self.chi().subs(ulrich) - (d - 1 - self.ab))


class TestCubicPartner:
    """Why :func:`cubic.cubic_moduli_pair` is the first syzygy step on d = 3.

    A d = 3 Ulrich F of rank r has c1.H = 3r and c2 = r + (c1^2 - 3r)/2.  Its
    first syzygy bundle S_0 = ker(H^0(F) (x) O -> F), with h^0 = chi(F)
    (:meth:`TestDriftStep.syzygy`), has rank 2r and c2(S_0) = c2 + r, and
    F and S_0 both have expected dimension c1^2 - 2r^2 + 1.
    """

    ulrich = {p: 3 * r, c2: r + (q - 3 * r) / 2}

    @staticmethod
    def moduli_dim(rank, c1_sq, second):
        # Delta - (rk^2 - 1), with Delta = 2 rk c2 - (rk - 1) c1^2.
        return 2 * rank * second - (rank - 1) * c1_sq - (rank * rank - 1)

    def partner(self):
        return [sp.sympify(x).subs(self.ulrich) for x in TestDriftStep().syzygy(r, q, p, c2)]

    def test_formulas_match_the_library(self):
        rng = random.Random(23)
        divisors = [t.divisor for t in twisted_cubics()]
        for rank in (2, 3, 4):
            for _ in range(10):
                c1 = sum(rng.choices(divisors, k=rank), CUBIC_SURFACE.zero_class())
                second = ulrich_c2(rank, c1.self_intersection, CUBIC_SURFACE)
                partner, dim = cubic_moduli_pair(BundleNumerics(rank, c1, second))
                point = {r: rank, q: c1.self_intersection}
                assert self.ulrich[c2].subs(point) == second
                assert [x.subs(point) for x in self.partner()] == [
                    partner.rank, partner.c1_sq, partner.c1_dot_h, partner.c2]
                assert self.moduli_dim(r, q, self.ulrich[c2]).subs(point) == dim

    def test_partner_has_rank_2r_and_c2_plus_r(self):
        rank, _, c1_h, second = self.partner()
        assert is_zero(rank - 2 * r)
        assert is_zero(c1_h + 3 * r)
        assert is_zero(second - (self.ulrich[c2] + r))

    def test_both_have_the_shared_dimension(self):
        rank, c1_sq, _, second = self.partner()
        shared = q - 2 * r * r + 1
        assert is_zero(self.moduli_dim(r, q, self.ulrich[c2]) - shared)
        assert is_zero(self.moduli_dim(rank, c1_sq, second) - shared)
