// Differential tests for the fast GF(2^m) kernels (DESIGN.md §3d).
//
// The seed kernels are retained on every Field instance as *_reference and
// act as the oracle: for every supported field size the fast mul/sqr/inv/pow
// paths — and the bulk row kernels built from them — must agree with the
// reference on random inputs and on the algebraic edge cases. A
// Kernel::kPortable instance is tested alongside Kernel::kAuto so the
// portable fast path is exercised even on machines where kAuto selects
// PCLMUL, and vice versa the clmul+Barrett path is covered wherever the CPU
// has it. Polynomial division is checked against a long division written
// here over the reference kernels, with monic and non-monic divisors, and
// root finding against its own result on a scaled locator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "gf/gf2m.hpp"
#include "gf/poly.hpp"
#include "gf/root_find.hpp"
#include "util/rng.hpp"

namespace {

using lo::gf::Field;

constexpr std::array<unsigned, 6> kSizes = {8, 16, 24, 32, 48, 63};

// Draws a (possibly zero) field element.
std::uint64_t draw(lo::util::Rng& rng, const Field& f) {
  return rng.next() & f.order();
}

class GfKernelDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(GfKernelDifferential, MulMatchesReferenceOnRandomVectors) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  ASSERT_FALSE(portable.uses_clmul());
  lo::util::Rng rng(0x31 ^ m);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = draw(rng, fast);
    const std::uint64_t b = draw(rng, fast);
    const std::uint64_t want = fast.mul_reference(a, b);
    EXPECT_EQ(fast.mul(a, b), want) << "m=" << m << " a=" << a << " b=" << b;
    EXPECT_EQ(portable.mul(a, b), want);
  }
}

TEST_P(GfKernelDifferential, SqrMatchesReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  lo::util::Rng rng(0x5c5c ^ m);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = draw(rng, fast);
    const std::uint64_t want = fast.sqr_reference(a);
    EXPECT_EQ(fast.sqr(a), want) << "m=" << m << " a=" << a;
    EXPECT_EQ(portable.sqr(a), want);
  }
}

TEST_P(GfKernelDifferential, InvMatchesReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  lo::util::Rng rng(0x1417 ^ m);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = draw(rng, fast);
    const std::uint64_t want = fast.inv_reference(a);
    EXPECT_EQ(fast.inv(a), want) << "m=" << m << " a=" << a;
    EXPECT_EQ(portable.inv(a), want);
    if (a != 0) {
      EXPECT_EQ(fast.mul(a, fast.inv(a)), 1u);
    }
  }
  // inv(0) == 0 by convention on every tier.
  EXPECT_EQ(fast.inv(0), 0u);
  EXPECT_EQ(portable.inv(0), 0u);
  EXPECT_EQ(fast.inv_reference(0), 0u);
}

TEST_P(GfKernelDifferential, PowMatchesReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  lo::util::Rng rng(0xb00 ^ m);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = draw(rng, fast);
    const std::uint64_t e = rng.next();
    const std::uint64_t want = fast.pow_reference(a, e);
    EXPECT_EQ(fast.pow(a, e), want) << "m=" << m << " a=" << a << " e=" << e;
    EXPECT_EQ(portable.pow(a, e), want);
  }
  EXPECT_EQ(fast.pow(0, 0), 1u);  // 0^0 == 1 convention preserved
  EXPECT_EQ(fast.pow_reference(0, 0), 1u);
}

TEST_P(GfKernelDifferential, EdgeCasesMatchReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  const std::uint64_t cases[] = {0, 1, 2, 3, fast.order() - 1, fast.order()};
  for (auto a : cases) {
    for (auto b : cases) {
      EXPECT_EQ(fast.mul(a, b), fast.mul_reference(a, b));
      EXPECT_EQ(portable.mul(a, b), fast.mul_reference(a, b));
    }
    EXPECT_EQ(fast.sqr(a), fast.sqr_reference(a));
    EXPECT_EQ(fast.inv(a), fast.inv_reference(a));
  }
}

TEST_P(GfKernelDifferential, BulkKernelsMatchElementwiseReference) {
  const unsigned m = GetParam();
  const Field& fast = Field::get(m);
  const Field portable(m, Field::Kernel::kPortable);
  lo::util::Rng rng(0xfa ^ m);
  for (const Field* f : {&fast, &portable}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      std::vector<std::uint64_t> src(n), dst(n), q(n);
      for (auto& v : src) v = draw(rng, *f);
      for (auto& v : dst) v = draw(rng, *f);
      for (auto& v : q) v = draw(rng, *f);
      const std::uint64_t factor = draw(rng, *f);

      // fma_row: dst[i] ^= factor * src[i].
      std::vector<std::uint64_t> want = dst;
      for (std::size_t i = 0; i < n; ++i) {
        want[i] ^= f->mul_reference(factor, src[i]);
      }
      f->fma_row(factor, src.data(), dst.data(), n);
      EXPECT_EQ(dst, want) << "m=" << m << " n=" << n;

      // dot_rev: XOR src[i] * q[n-1-i].
      std::uint64_t dot_want = 0;
      for (std::size_t i = 0; i < n; ++i) {
        dot_want ^= f->mul_reference(src[i], q[n - 1 - i]);
      }
      EXPECT_EQ(f->dot_rev(src.data(), &q[n - 1], n), dot_want);

      // mul_many: q[i] *= src[i].
      std::vector<std::uint64_t> prod_want(n);
      for (std::size_t i = 0; i < n; ++i) {
        prod_want[i] = f->mul_reference(q[i], src[i]);
      }
      f->mul_many(q.data(), src.data(), n);
      EXPECT_EQ(q, prod_want);
    }
  }
}

// Schoolbook a = q*b + r over the reference kernels; b trimmed and nonzero.
void reference_divmod(const Field& f, lo::gf::Poly a, const lo::gf::Poly& b,
                      lo::gf::Poly& q, lo::gf::Poly& r) {
  const std::size_t db = b.size() - 1;
  const std::uint64_t lead_inv = f.inv_reference(b.back());
  q.assign(a.size() >= b.size() ? a.size() - db : 0, 0);
  for (std::size_t i = a.size(); i-- > db;) {
    const std::uint64_t factor = f.mul_reference(a[i], lead_inv);
    q[i - db] = factor;
    for (std::size_t j = 0; j <= db; ++j) {
      a[i - db + j] ^= f.mul_reference(factor, b[j]);
    }
  }
  a.resize(std::min(a.size(), db));
  lo::gf::poly_trim(a);
  lo::gf::poly_trim(q);
  r = a;
}

lo::gf::Poly random_poly(lo::util::Rng& rng, const Field& f, std::size_t deg) {
  lo::gf::Poly p(deg + 1);
  for (auto& c : p) c = draw(rng, f);
  p.back() = f.map_nonzero(rng.next());
  return p;
}

TEST_P(GfKernelDifferential, PolyDivisionMatchesReferenceMonicAndNot) {
  const Field& fast = Field::get(GetParam());
  const Field& ref = Field::get_reference(GetParam());
  lo::util::Rng rng(7 * GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = random_poly(rng, fast, rng.next() % 40);
    auto b = random_poly(rng, fast, rng.next() % 12);
    if (trial % 2 == 0) b.back() = 1;  // monic divisor: the skipped inversion
    lo::gf::Poly want_q;
    lo::gf::Poly want_r;
    reference_divmod(fast, a, b, want_q, want_r);
    for (const Field* f : {&fast, &ref}) {
      lo::gf::Poly r = a;
      lo::gf::poly_mod_inplace(*f, r, b);
      EXPECT_EQ(r, want_r) << "trial " << trial;
      lo::gf::Poly q;
      r = a;
      lo::gf::poly_divmod_inplace(*f, r, b, q);
      EXPECT_EQ(r, want_r) << "trial " << trial;
      EXPECT_EQ(q, want_q) << "trial " << trial;
    }
  }
}

TEST_P(GfKernelDifferential, RootsOfScaledLocatorUnchanged) {
  const Field& f = Field::get(GetParam());
  lo::util::Rng rng(11 * GetParam());
  lo::gf::RootWorkspace ws;
  std::vector<std::uint64_t> want;
  std::vector<std::uint64_t> got;
  for (int trial = 0; trial < 40; ++trial) {
    // A splitting locator prod (x + r_i) with distinct roots, or (odd
    // trials) a random polynomial, which almost never splits.
    lo::gf::Poly p{1};
    if (trial % 2 == 0) {
      const std::size_t d = 1 + rng.next() % 16;
      std::vector<std::uint64_t> roots;
      while (roots.size() < d) {
        const std::uint64_t r = f.map_nonzero(rng.next());
        if (std::find(roots.begin(), roots.end(), r) == roots.end()) {
          roots.push_back(r);
        }
      }
      for (std::uint64_t r : roots) p = lo::gf::poly_mul(f, p, {r, 1});
    } else {
      p = random_poly(rng, f, 2 + rng.next() % 10);
    }
    const std::uint64_t c = f.map_nonzero(rng.next());
    lo::gf::Poly scaled = p;
    for (auto& coef : scaled) coef = f.mul(coef, c);
    const std::uint64_t seed = rng.next();
    const bool ok_p = lo::gf::find_roots_ws(f, p, seed, ws, want);
    const bool ok_scaled = lo::gf::find_roots_ws(f, scaled, seed, ws, got);
    EXPECT_EQ(ok_p, ok_scaled) << "trial " << trial;
    if (trial % 2 == 0) {
      EXPECT_TRUE(ok_p) << "trial " << trial;
    }
    if (ok_p && ok_scaled) {
      EXPECT_EQ(got, want) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFieldSizes, GfKernelDifferential,
                         ::testing::ValuesIn(kSizes));

// m=8 is small enough to check the full multiplication table.
TEST(GfKernelExhaustive, Gf8MulMatchesReferenceExhaustively) {
  const Field& f = Field::get(8);
  const Field portable(8, Field::Kernel::kPortable);
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      const std::uint64_t want = f.mul_reference(a, b);
      ASSERT_EQ(f.mul(a, b), want) << "a=" << a << " b=" << b;
      ASSERT_EQ(portable.mul(a, b), want);
    }
  }
  for (std::uint64_t a = 0; a < 256; ++a) {
    ASSERT_EQ(f.sqr(a), f.sqr_reference(a));
    ASSERT_EQ(f.inv(a), f.inv_reference(a));
  }
}

TEST(GfRegistry, SharedInstancesAreStableAndTierTagged) {
  for (unsigned m : kSizes) {
    const Field& a = Field::get(m);
    const Field& b = Field::get(m);
    EXPECT_EQ(&a, &b) << "registry must return one shared instance";
    EXPECT_EQ(a.kernel(), Field::Kernel::kAuto);
    const Field& r = Field::get_reference(m);
    EXPECT_EQ(&r, &Field::get_reference(m));
    EXPECT_EQ(r.kernel(), Field::Kernel::kReference);
    EXPECT_FALSE(r.uses_clmul());
    EXPECT_NE(&a, &r);
    EXPECT_EQ(a.modulus(), r.modulus());
  }
  EXPECT_THROW(Field::get(17), std::invalid_argument);
  EXPECT_THROW(Field::get_reference(17), std::invalid_argument);
}

TEST(GfRegistry, ClmulOnlySelectedUpTo32Bits) {
  for (unsigned m : kSizes) {
    const Field& f = Field::get(m);
    if (m > 32) {
      EXPECT_FALSE(f.uses_clmul()) << "m=" << m;
    }
    EXPECT_FALSE(Field(m, Field::Kernel::kPortable).uses_clmul());
    EXPECT_FALSE(Field(m, Field::Kernel::kReference).uses_clmul());
  }
}

}  // namespace
