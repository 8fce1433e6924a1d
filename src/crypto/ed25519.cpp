#include "crypto/ed25519.hpp"

#include <cstring>
#include <vector>

#include "crypto/sha512.hpp"
#include "obs/profile.hpp"

namespace lo::crypto {
namespace detail {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (1ULL << 51) - 1;

// Little-endian bytes of L = 2^252 + 27742317777372353535851937790883648493.
constexpr std::uint8_t kLBytes[32] = {
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
    0xa2, 0xde, 0xf9, 0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};

constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0ULL,
                       0x1000000000000000ULL};

}  // namespace

// ---------------------------------------------------------------- field ----
//
// Limb-bound discipline (the fast paths depend on it):
//   * "carried" means every limb < 2^51 + 2^15 (the output of fe_carry,
//     fe_mul_raw, fe_sq_raw and fe_sub).
//   * fe_mul_raw / fe_sq_raw accept limbs < 2^54 and produce carried output.
//     A carried value, a sum of up to four carried values, or fe_sub output
//     all satisfy the input bound.
//   * fe_sub adds 4p before subtracting, so its second operand may be as
//     large as 2^53 - 77 per limb; every sum of two carried values
//     qualifies. (Using 2p here would leave no headroom over the doubled
//     products that ge_dbl/ge_add feed in.)
// The public fe_mul/fe_sq wrappers carry their inputs first, preserving the
// documented "values may be unnormalized" contract for callers outside this
// file; the group law below uses the raw versions.

Fe fe_zero() noexcept { return Fe{}; }

Fe fe_one() noexcept {
  Fe r;
  r.v[0] = 1;
  return r;
}

Fe fe_add(const Fe& a, const Fe& b) noexcept {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

namespace {
// Carry-propagates so each limb is < 2^52 (top carry wraps with factor 19).
Fe fe_carry(const Fe& a) noexcept {
  Fe r = a;
  u64 c;
  for (int i = 0; i < 4; ++i) {
    c = r.v[i] >> 51;
    r.v[i] &= kMask51;
    r.v[i + 1] += c;
  }
  c = r.v[4] >> 51;
  r.v[4] &= kMask51;
  r.v[0] += 19 * c;
  // One more pass in case limb 0 overflowed 51 bits.
  c = r.v[0] >> 51;
  r.v[0] &= kMask51;
  r.v[1] += c;
  return r;
}
}  // namespace

Fe fe_sub(const Fe& a, const Fe& b) noexcept {
  // a + 4p - b keeps limbs non-negative for any b with limbs < 2^53 - 77,
  // which covers carried values and sums of two of them.
  Fe r;
  r.v[0] = a.v[0] + 0x1FFFFFFFFFFFB4ULL - b.v[0];
  r.v[1] = a.v[1] + 0x1FFFFFFFFFFFFCULL - b.v[1];
  r.v[2] = a.v[2] + 0x1FFFFFFFFFFFFCULL - b.v[2];
  r.v[3] = a.v[3] + 0x1FFFFFFFFFFFFCULL - b.v[3];
  r.v[4] = a.v[4] + 0x1FFFFFFFFFFFFCULL - b.v[4];
  return fe_carry(r);
}

Fe fe_neg(const Fe& a) noexcept { return fe_sub(fe_zero(), a); }

namespace {

// 5x51-bit schoolbook multiply with 19-folding. Inputs must have limbs
// < 2^54 (see the bound discipline above); no input carries are performed.
// Worst case per column: 5 products of (2^54)*(19*2^54) < 2^115, safely
// inside u128; the final top carry is folded in 128-bit arithmetic because
// 19*(r4 >> 51) can exceed 64 bits.
Fe fe_mul_raw(const Fe& a, const Fe& b) noexcept {
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3, b4_19 = 19 * b4;

  u128 r0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
            (u128)a3 * b2_19 + (u128)a4 * b1_19;
  u128 r1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
            (u128)a3 * b3_19 + (u128)a4 * b2_19;
  u128 r2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
            (u128)a3 * b4_19 + (u128)a4 * b3_19;
  u128 r3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 +
            (u128)a4 * b4_19;
  u128 r4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 +
            (u128)a4 * b0;

  Fe out;
  r1 += r0 >> 51;
  out.v[0] = (u64)r0 & kMask51;
  r2 += r1 >> 51;
  out.v[1] = (u64)r1 & kMask51;
  r3 += r2 >> 51;
  out.v[2] = (u64)r2 & kMask51;
  r4 += r3 >> 51;
  out.v[3] = (u64)r3 & kMask51;
  const u128 top = (r4 >> 51) * 19 + out.v[0];
  out.v[4] = (u64)r4 & kMask51;
  out.v[0] = (u64)top & kMask51;
  out.v[1] += (u64)(top >> 51);
  return out;
}

// Dedicated squaring: 15 products instead of 25. Same input/output bounds
// as fe_mul_raw.
Fe fe_sq_raw(const Fe& a) noexcept {
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 a0_2 = a0 * 2, a1_2 = a1 * 2, a2_2 = a2 * 2, a3_2 = a3 * 2;
  const u64 a3_19 = 19 * a3, a4_19 = 19 * a4;

  u128 r0 = (u128)a0 * a0 + (u128)a1_2 * a4_19 + (u128)a2_2 * a3_19;
  u128 r1 = (u128)a0_2 * a1 + (u128)a2_2 * a4_19 + (u128)a3 * a3_19;
  u128 r2 = (u128)a0_2 * a2 + (u128)a1 * a1 + (u128)a3_2 * a4_19;
  u128 r3 = (u128)a0_2 * a3 + (u128)a1_2 * a2 + (u128)a4 * a4_19;
  u128 r4 = (u128)a0_2 * a4 + (u128)a1_2 * a3 + (u128)a2 * a2;

  Fe out;
  r1 += r0 >> 51;
  out.v[0] = (u64)r0 & kMask51;
  r2 += r1 >> 51;
  out.v[1] = (u64)r1 & kMask51;
  r3 += r2 >> 51;
  out.v[2] = (u64)r2 & kMask51;
  r4 += r3 >> 51;
  out.v[3] = (u64)r3 & kMask51;
  const u128 top = (r4 >> 51) * 19 + out.v[0];
  out.v[4] = (u64)r4 & kMask51;
  out.v[0] = (u64)top & kMask51;
  out.v[1] += (u64)(top >> 51);
  return out;
}

Fe fe_sqn_raw(Fe a, int n) noexcept {
  for (int i = 0; i < n; ++i) a = fe_sq_raw(a);
  return a;
}

}  // namespace

Fe fe_mul(const Fe& f, const Fe& g) noexcept {
  return fe_mul_raw(fe_carry(f), fe_carry(g));
}

Fe fe_sq(const Fe& a) noexcept { return fe_sq_raw(fe_carry(a)); }

Fe fe_pow(const Fe& a, const std::array<std::uint8_t, 32>& e_le) noexcept {
  const Fe base = fe_carry(a);
  Fe result = fe_one();
  // Left-to-right square-and-multiply over 256 exponent bits.
  for (int i = 255; i >= 0; --i) {
    result = fe_sq_raw(result);
    if ((e_le[i / 8] >> (i % 8)) & 1) result = fe_mul_raw(result, base);
  }
  return result;
}

namespace {
// Shared prefix of the p-2 and (p-5)/8 addition chains: z^(2^250 - 1).
// 249 squarings + 11 multiplies, versus ~250 multiplies for the generic
// square-and-multiply over the same exponents.
Fe fe_pow_2_250_1(const Fe& z) noexcept {
  const Fe z2 = fe_sq_raw(z);                                  // 2
  const Fe z9 = fe_mul_raw(fe_sqn_raw(z2, 2), z);              // 9
  const Fe z11 = fe_mul_raw(z9, z2);                           // 11
  const Fe z_5_0 = fe_mul_raw(fe_sq_raw(z11), z9);             // 2^5 - 1
  const Fe z_10_0 = fe_mul_raw(fe_sqn_raw(z_5_0, 5), z_5_0);   // 2^10 - 1
  const Fe z_20_0 = fe_mul_raw(fe_sqn_raw(z_10_0, 10), z_10_0);
  const Fe z_40_0 = fe_mul_raw(fe_sqn_raw(z_20_0, 20), z_20_0);
  const Fe z_50_0 = fe_mul_raw(fe_sqn_raw(z_40_0, 10), z_10_0);
  const Fe z_100_0 = fe_mul_raw(fe_sqn_raw(z_50_0, 50), z_50_0);
  const Fe z_200_0 = fe_mul_raw(fe_sqn_raw(z_100_0, 100), z_100_0);
  return fe_mul_raw(fe_sqn_raw(z_200_0, 50), z_50_0);          // 2^250 - 1
}

Fe fe_pow11_raw(const Fe& z) noexcept {
  const Fe z2 = fe_sq_raw(z);
  return fe_mul_raw(fe_mul_raw(fe_sqn_raw(z2, 2), z), z2);     // z^11
}
}  // namespace

Fe fe_invert(const Fe& a) noexcept {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  const Fe z = fe_carry(a);
  return fe_mul_raw(fe_sqn_raw(fe_pow_2_250_1(z), 5), fe_pow11_raw(z));
}

Fe fe_pow2523(const Fe& a) noexcept {
  // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
  const Fe z = fe_carry(a);
  return fe_mul_raw(fe_sqn_raw(fe_pow_2_250_1(z), 2), z);
}

Fe fe_from_bytes(const std::array<std::uint8_t, 32>& b) noexcept {
  auto load64 = [&](int off) {
    u64 v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[off + i];
    return v;
  };
  Fe r;
  r.v[0] = load64(0) & kMask51;
  r.v[1] = (load64(6) >> 3) & kMask51;
  r.v[2] = (load64(12) >> 6) & kMask51;
  r.v[3] = (load64(19) >> 1) & kMask51;
  r.v[4] = (load64(24) >> 12) & kMask51;
  return r;
}

std::array<std::uint8_t, 32> fe_to_bytes(const Fe& a) noexcept {
  Fe t = fe_carry(fe_carry(a));
  // Subtract p if t >= p (limbs now < 2^52; canonical means < p).
  // Add 19 and check overflow of bit 255 to decide; standard trick:
  u64 q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;
  t.v[0] += 19 * q;
  u64 c;
  c = t.v[0] >> 51; t.v[0] &= kMask51; t.v[1] += c;
  c = t.v[1] >> 51; t.v[1] &= kMask51; t.v[2] += c;
  c = t.v[2] >> 51; t.v[2] &= kMask51; t.v[3] += c;
  c = t.v[3] >> 51; t.v[3] &= kMask51; t.v[4] += c;
  t.v[4] &= kMask51;  // drop bit 255 (the subtraction of p)

  std::array<std::uint8_t, 32> out{};
  u64 limbs[4];
  limbs[0] = t.v[0] | (t.v[1] << 51);
  limbs[1] = (t.v[1] >> 13) | (t.v[2] << 38);
  limbs[2] = (t.v[2] >> 26) | (t.v[3] << 25);
  limbs[3] = (t.v[3] >> 39) | (t.v[4] << 12);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<std::uint8_t>(limbs[i] >> (8 * j));
    }
  }
  return out;
}

bool fe_is_zero(const Fe& a) noexcept {
  auto b = fe_to_bytes(a);
  std::uint8_t acc = 0;
  for (auto x : b) acc |= x;
  return acc == 0;
}

bool fe_is_negative(const Fe& a) noexcept { return fe_to_bytes(a)[0] & 1; }

bool fe_eq(const Fe& a, const Fe& b) noexcept {
  return fe_to_bytes(a) == fe_to_bytes(b);
}

// ---------------------------------------------------------------- curve ----

namespace {

struct CurveConstants {
  Fe d;        // -121665/121666
  Fe d2;       // 2*d
  Fe sqrtm1;   // sqrt(-1) = 2^((p-1)/4)
  Ge base;     // standard base point (y = 4/5, x even)
};

Fe fe_from_u64(u64 x) noexcept {
  Fe r;
  r.v[0] = x & kMask51;
  r.v[1] = x >> 51;
  return r;
}

const CurveConstants& constants();

// Decompression, parameterized so constants() can use it during init.
std::optional<Ge> ge_from_bytes_impl(const std::array<std::uint8_t, 32>& b,
                                     const Fe& d, const Fe& sqrtm1) noexcept {
  std::array<std::uint8_t, 32> yb = b;
  const bool sign = (yb[31] & 0x80) != 0;
  yb[31] &= 0x7f;
  const Fe y = fe_from_bytes(yb);
  // Reject non-canonical y (>= p). fe_from_bytes reduces silently, so compare.
  if (fe_to_bytes(y) != yb) return std::nullopt;

  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());           // y^2 - 1
  const Fe v = fe_add(fe_mul(d, y2), fe_one());  // d*y^2 + 1

  // x = u v^3 (u v^7)^((p-5)/8)
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow2523(fe_mul(u, v7)));

  const Fe vxx = fe_mul(v, fe_sq(x));
  if (!fe_eq(vxx, u)) {
    if (fe_eq(vxx, fe_neg(u))) {
      x = fe_mul(x, sqrtm1);
    } else {
      return std::nullopt;
    }
  }
  if (fe_is_zero(x) && sign) return std::nullopt;
  if (fe_is_negative(x) != sign) x = fe_neg(x);

  Ge p;
  p.X = x;
  p.Y = y;
  p.Z = fe_one();
  p.T = fe_mul(x, y);
  return p;
}

const CurveConstants& constants() {
  static const CurveConstants c = [] {
    CurveConstants cc;
    // d = -121665/121666 mod p
    const Fe num = fe_neg(fe_from_u64(121665));
    const Fe den = fe_from_u64(121666);
    cc.d = fe_mul(num, fe_invert(den));
    cc.d2 = fe_add(cc.d, cc.d);
    // sqrt(-1) = 2^((p-1)/4), (p-1)/4 = 2^253 - 5.
    std::array<std::uint8_t, 32> e;
    e.fill(0xff);
    e[0] = 0xfb;
    e[31] = 0x1f;
    cc.sqrtm1 = fe_pow(fe_from_u64(2), e);
    // Base point: y = 4/5, x chosen with even sign bit.
    const Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
    auto enc = fe_to_bytes(y);  // sign bit 0 => even x
    auto base = ge_from_bytes_impl(enc, cc.d, cc.sqrtm1);
    cc.base = *base;  // must exist; checked by unit tests
    return cc;
  }();
  return c;
}

// A point in "cached" form for repeated mixed additions: precomputes the
// values the add-2008-hwcd-3 formula actually consumes (Y+X, Y-X, 2d*T).
// Saves one fe_mul per addition and is the natural shape for the static
// window tables below.
struct GeCached {
  Fe ypx, ymx, z, t2d;
};

GeCached ge_to_cached(const Ge& p) noexcept {
  GeCached c;
  c.ypx = fe_add(p.Y, p.X);
  c.ymx = fe_sub(p.Y, p.X);
  c.z = p.Z;
  c.t2d = fe_mul_raw(fe_carry(p.T), constants().d2);
  return c;
}

// The static base tables hold their points with Z = 1: Y+X, Y-X and 2d*T
// of the affine point. A mixed addition against one skips the Z1*Z2 product.
struct GePrecomp {
  Fe ypx, ymx, t2d;
};

// Brings n cached points to Z = 1 with a single inversion (Montgomery's
// trick: invert the product of all Z, then peel one factor off per point).
void ge_to_precomp(const GeCached* in, GePrecomp* out, std::size_t n) {
  std::vector<Fe> prefix(n);  // prefix[i] = z_0 * ... * z_i
  Fe acc = fe_one();
  for (std::size_t i = 0; i < n; ++i) prefix[i] = acc = fe_mul(acc, in[i].z);
  Fe inv = fe_invert(acc);
  for (std::size_t i = n; i-- > 0;) {
    const Fe zinv = i > 0 ? fe_mul(inv, prefix[i - 1]) : inv;
    inv = fe_mul(inv, in[i].z);
    out[i] = {fe_mul(in[i].ypx, zinv), fe_mul(in[i].ymx, zinv),
              fe_mul(in[i].t2d, zinv)};
  }
}

// 2*Z1*Z2, the one term in which the two point forms differ.
Fe ge_z2(const Ge& p, const GeCached& q) noexcept {
  const Fe d = fe_mul_raw(p.Z, q.z);
  return fe_add(d, d);
}
Fe ge_z2(const Ge& p, const GePrecomp&) noexcept { return fe_add(p.Z, p.Z); }

// add-2008-hwcd-3 for a = -1 with k = 2d; 8 field multiplies, 7 against a
// GePrecomp.
template <class Q>
Ge ge_add_cached(const Ge& p, const Q& q) noexcept {
  const Fe a = fe_mul_raw(fe_sub(p.Y, p.X), q.ymx);
  const Fe b = fe_mul_raw(fe_add(p.Y, p.X), q.ypx);
  const Fe c = fe_mul_raw(p.T, q.t2d);
  const Fe d = ge_z2(p, q);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  Ge r;
  r.X = fe_mul_raw(e, f);
  r.Y = fe_mul_raw(g, h);
  r.T = fe_mul_raw(e, h);
  r.Z = fe_mul_raw(f, g);
  return r;
}

// p - q: same formula against the negated cached point (ypx/ymx swap roles
// and 2d*T flips sign, which swaps f and g).
template <class Q>
Ge ge_sub_cached(const Ge& p, const Q& q) noexcept {
  const Fe a = fe_mul_raw(fe_sub(p.Y, p.X), q.ypx);
  const Fe b = fe_mul_raw(fe_add(p.Y, p.X), q.ymx);
  const Fe c = fe_mul_raw(p.T, q.t2d);
  const Fe d = ge_z2(p, q);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_add(d, c);
  const Fe g = fe_sub(d, c);
  const Fe h = fe_add(b, a);
  Ge r;
  r.X = fe_mul_raw(e, f);
  r.Y = fe_mul_raw(g, h);
  r.T = fe_mul_raw(e, h);
  r.Z = fe_mul_raw(f, g);
  return r;
}

// dbl-2008-hwcd for a = -1. Inputs must be carried (all producers in this
// file guarantee that).
Ge ge_dbl(const Ge& p) noexcept {
  const Fe a = fe_sq_raw(p.X);
  const Fe b = fe_sq_raw(p.Y);
  const Fe zz = fe_sq_raw(p.Z);
  const Fe c = fe_add(zz, zz);
  const Fe d = fe_neg(a);
  const Fe e = fe_sub(fe_sub(fe_sq_raw(fe_add(p.X, p.Y)), a), b);
  const Fe g = fe_add(d, b);
  const Fe f = fe_sub(g, c);
  const Fe h = fe_sub(d, b);
  Ge r;
  r.X = fe_mul_raw(e, f);
  r.Y = fe_mul_raw(g, h);
  r.T = fe_mul_raw(e, h);
  r.Z = fe_mul_raw(f, g);
  return r;
}

Ge ge_normalize(const Ge& p) noexcept {
  Ge r;
  r.X = fe_carry(p.X);
  r.Y = fe_carry(p.Y);
  r.Z = fe_carry(p.Z);
  r.T = fe_carry(p.T);
  return r;
}

// Precomputed multiples of the base point:
//   win[i][j] = (j+1) * 16^i * B   (fixed-base 4-bit windows; 64x15 entries)
//   naf[j]    = (2j+1) * B         (width-7 NAF digits 1,3,...,63; 32 entries)
// ~116 KiB total, built once on first use from the generic group law and
// then brought to Z = 1.
struct BaseTables {
  GePrecomp win[64][15];
  GePrecomp naf[32];
};

const BaseTables& base_tables() {
  static const BaseTables t = [] {
    std::vector<GeCached> win;
    win.reserve(64 * 15);
    const Ge& B = constants().base;
    Ge p = B;  // 16^i * B
    for (int i = 0; i < 64; ++i) {
      const GeCached pc = ge_to_cached(p);
      win.push_back(pc);
      Ge q = p;
      for (int j = 1; j < 15; ++j) {
        q = ge_add_cached(q, pc);
        win.push_back(ge_to_cached(q));
      }
      if (i < 63) p = ge_add_cached(q, pc);  // 15*16^i*B + 16^i*B
    }
    std::vector<GeCached> naf;
    const GeCached b2 = ge_to_cached(ge_dbl(ge_normalize(B)));
    Ge q = B;
    naf.push_back(ge_to_cached(B));
    for (int j = 1; j < 32; ++j) {
      q = ge_add_cached(q, b2);
      naf.push_back(ge_to_cached(q));
    }
    BaseTables bt;
    ge_to_precomp(win.data(), &bt.win[0][0], win.size());
    ge_to_precomp(naf.data(), bt.naf, naf.size());
    return bt;
  }();
  return t;
}

}  // namespace

Ge ge_identity() noexcept {
  Ge p;
  p.X = fe_zero();
  p.Y = fe_one();
  p.Z = fe_one();
  p.T = fe_zero();
  return p;
}

Ge ge_add(const Ge& p, const Ge& q) noexcept {
  // Public entry point: tolerate unnormalized coordinates, then use the
  // cached-point formula (identical group law, one fewer duplicate multiply
  // than spelling add-2008-hwcd-3 directly).
  return ge_add_cached(ge_normalize(p), ge_to_cached(ge_normalize(q)));
}

Ge ge_double(const Ge& p) noexcept { return ge_dbl(ge_normalize(p)); }

Ge ge_neg(const Ge& p) noexcept {
  Ge r = p;
  r.X = fe_neg(p.X);
  r.T = fe_neg(p.T);
  return r;
}

Ge ge_scalarmult(const Ge& p, const std::array<std::uint8_t, 32>& scalar) noexcept {
  Ge r = ge_identity();
  for (int i = 255; i >= 0; --i) {
    r = ge_double(r);
    if ((scalar[i / 8] >> (i % 8)) & 1) r = ge_add(r, p);
  }
  return r;
}

Ge ge_scalarmult_base(const std::array<std::uint8_t, 32>& scalar) noexcept {
  // One table lookup + cached add per nonzero 4-bit window; no doublings.
  const BaseTables& t = base_tables();
  Ge h = ge_identity();
  for (int i = 0; i < 64; ++i) {
    const int d = (scalar[static_cast<std::size_t>(i) >> 1] >> (4 * (i & 1))) & 0xF;
    if (d) h = ge_add_cached(h, t.win[i][d - 1]);
  }
  return h;
}

void wnaf(std::int8_t naf[257], const std::array<std::uint8_t, 32>& scalar,
          int w) noexcept {
  // Scan upward; at an odd window (the next w bits plus the carry) emit the
  // signed residue mod 2^w, carry 1 when it is negative, and skip w bits.
  u64 x[5] = {};
  for (int i = 0; i < 32; ++i) {
    x[i / 8] |= static_cast<u64>(scalar[static_cast<std::size_t>(i)]) << (8 * (i % 8));
  }
  std::memset(naf, 0, 257);
  const u64 width = 1ULL << w;
  const u64 mask = width - 1;
  u64 carry = 0;
  int pos = 0;
  while (pos < 257) {
    const int word = pos / 64;
    const int bit = pos % 64;
    u64 buf = x[word] >> bit;
    if (bit > 64 - w && word < 4) buf |= x[word + 1] << (64 - bit);
    const u64 window = carry + (buf & mask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<std::int8_t>(static_cast<int>(window) -
                                          static_cast<int>(width));
    }
    pos += w;
  }
}

Ge ge_double_scalarmult_base_vartime(const std::array<std::uint8_t, 32>& a,
                                     const Ge& A,
                                     const std::array<std::uint8_t, 32>& b) noexcept {
  // Straus/Shamir: a single doubling chain consumes both scalars' NAF digits.
  std::int8_t anaf[257];
  std::int8_t bnaf[257];
  wnaf(anaf, a, 5);  // digits up to +-15 for the runtime point A
  wnaf(bnaf, b, 7);  // digits up to +-63 for the precomputed base table

  // Odd multiples of A: ai[j] = (2j+1) * A.
  GeCached ai[8];
  const Ge an = ge_normalize(A);
  ai[0] = ge_to_cached(an);
  const GeCached a2 = ge_to_cached(ge_dbl(an));
  Ge cur = an;
  for (int j = 1; j < 8; ++j) {
    cur = ge_add_cached(cur, a2);
    ai[j] = ge_to_cached(cur);
  }

  const BaseTables& t = base_tables();
  int i = 256;
  while (i >= 0 && !anaf[i] && !bnaf[i]) --i;
  Ge r = ge_identity();
  for (; i >= 0; --i) {
    r = ge_dbl(r);
    if (anaf[i] > 0) {
      r = ge_add_cached(r, ai[anaf[i] / 2]);
    } else if (anaf[i] < 0) {
      r = ge_sub_cached(r, ai[(-anaf[i]) / 2]);
    }
    if (bnaf[i] > 0) {
      r = ge_add_cached(r, t.naf[bnaf[i] / 2]);
    } else if (bnaf[i] < 0) {
      r = ge_sub_cached(r, t.naf[(-bnaf[i]) / 2]);
    }
  }
  return r;
}

std::array<std::uint8_t, 32> ge_to_bytes(const Ge& p) noexcept {
  const Fe zinv = fe_invert(p.Z);
  const Fe x = fe_mul(p.X, zinv);
  const Fe y = fe_mul(p.Y, zinv);
  auto out = fe_to_bytes(y);
  if (fe_is_negative(x)) out[31] |= 0x80;
  return out;
}

std::optional<Ge> ge_from_bytes(const std::array<std::uint8_t, 32>& b) noexcept {
  const auto& c = constants();
  return ge_from_bytes_impl(b, c.d, c.sqrtm1);
}

bool ge_eq(const Ge& p, const Ge& q) noexcept {
  // Cross-multiply to avoid inversions: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
  return fe_eq(fe_mul(p.X, q.Z), fe_mul(q.X, p.Z)) &&
         fe_eq(fe_mul(p.Y, q.Z), fe_mul(q.Y, p.Z));
}

// -------------------------------------------------------------- scalars ----

namespace {

bool sc_geq(const u64 a[4], const u64 b[4]) noexcept {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;  // equal
}

void sc_sub_inplace(u64 a[4], const u64 b[4]) noexcept {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 bi = b[i] + borrow;
    // borrow propagation: b[i] + borrow can wrap only if b[i] == ~0 && borrow,
    // in which case subtracting it is subtracting 0 with borrow carried on.
    const bool wrap = (bi < b[i]);
    const u64 before = a[i];
    a[i] -= bi;
    borrow = (wrap || a[i] > before) ? 1 : 0;
  }
}

}  // namespace

Sc sc_zero() noexcept { return Sc{}; }

namespace {

// Horner accumulator modulo L over 32-bit digits, most significant first.
// L = 2^252 + c with c = kL[0] + kL[1]*2^64 < 2^125, so 2^252 == -c (mod L).
// Each step forms t = r*2^32 + digit < 2^285 from r < L, splits it as
// q*2^252 + lo with q < 2^33 and lo < 2^252, and keeps lo - q*c, which lies in
// (-2^158, 2^252): one conditional add of L brings it back into [0, L).
struct ScAccumulator {
  u64 r[4] = {};

  void push(std::uint32_t digit) noexcept {
    const u64 top = r[3] >> 32;
    r[3] = (r[3] << 32) | (r[2] >> 32);
    r[2] = (r[2] << 32) | (r[1] >> 32);
    r[1] = (r[1] << 32) | (r[0] >> 32);
    r[0] = (r[0] << 32) | digit;
    const u64 q = (r[3] >> 60) | (top << 4);
    r[3] &= (1ULL << 60) - 1;
    // r -= q*c, borrows taken from the sign bit of the 128-bit difference.
    const u128 qc0 = (u128)q * kL[0];
    const u128 qc1 = (u128)q * kL[1] + (u64)(qc0 >> 64);
    u128 d = (u128)r[0] - (u64)qc0;
    r[0] = (u64)d;
    d = (u128)r[1] - (u64)qc1 - (u64)(d >> 127);
    r[1] = (u64)d;
    d = (u128)r[2] - (u64)(qc1 >> 64) - (u64)(d >> 127);
    r[2] = (u64)d;
    d = (u128)r[3] - (u64)(d >> 127);
    r[3] = (u64)d;
    // Negative (wrapped mod 2^256): add L; the carry out of r[3] cancels the
    // wrap.
    const u64 m = 0 - (u64)(d >> 127);
    u128 s = (u128)r[0] + (kL[0] & m);
    r[0] = (u64)s;
    s = (u128)r[1] + (kL[1] & m) + (u64)(s >> 64);
    r[1] = (u64)s;
    s = (u128)r[2] + (u64)(s >> 64);
    r[2] = (u64)s;
    r[3] += (kL[3] & m) + (u64)(s >> 64);
  }

  Sc value() const noexcept {
    Sc out;
    for (int i = 0; i < 4; ++i) out.v[i] = r[i];
    return out;
  }
};

}  // namespace

Sc sc_reduce(std::span<const std::uint8_t> bytes_le) noexcept {
  ScAccumulator acc;
  const std::size_t n = bytes_le.size();
  for (std::size_t d = (n + 3) / 4; d-- > 0;) {
    std::uint32_t digit = 0;
    for (std::size_t j = 4 * d + 4; j-- > 4 * d;) {
      digit = (digit << 8) | (j < n ? bytes_le[j] : 0u);
    }
    acc.push(digit);
  }
  return acc.value();
}

Sc sc_add(const Sc& a, const Sc& b) noexcept {
  Sc r;
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 s1 = a.v[i] + carry;
    const bool c1 = s1 < a.v[i];
    const u64 s2 = s1 + b.v[i];
    const bool c2 = s2 < s1;
    r.v[i] = s2;
    carry = (c1 || c2) ? 1 : 0;
  }
  // a, b < L < 2^253 so no overflow past limb 3; reduce once.
  if (sc_geq(r.v, kL)) sc_sub_inplace(r.v, kL);
  return r;
}

Sc sc_mul(const Sc& a, const Sc& b) noexcept {
  // Schoolbook 4x4 -> 8 limbs, then reduce the 512-bit product.
  u64 prod[8] = {0};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = (u128)a.v[i] * b.v[j] + prod[i + j] + carry;
      prod[i + j] = (u64)cur;
      carry = (u64)(cur >> 64);
    }
    prod[i + 4] += carry;
  }
  ScAccumulator acc;
  for (int i = 7; i >= 0; --i) {
    acc.push(static_cast<std::uint32_t>(prod[i] >> 32));
    acc.push(static_cast<std::uint32_t>(prod[i]));
  }
  return acc.value();
}

Sc sc_neg(const Sc& a) noexcept {
  if ((a.v[0] | a.v[1] | a.v[2] | a.v[3]) == 0) return sc_zero();
  Sc r;
  u64 limbs[4] = {kL[0], kL[1], kL[2], kL[3]};
  sc_sub_inplace(limbs, a.v);
  for (int i = 0; i < 4; ++i) r.v[i] = limbs[i];
  return r;
}

std::array<std::uint8_t, 32> sc_to_bytes(const Sc& a) noexcept {
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<std::uint8_t>(a.v[i] >> (8 * j));
    }
  }
  return out;
}

bool sc_is_canonical(const std::array<std::uint8_t, 32>& b) noexcept {
  // Lexicographic compare against L, big-endian-wise from the top byte.
  for (int i = 31; i >= 0; --i) {
    if (b[i] < kLBytes[i]) return true;
    if (b[i] > kLBytes[i]) return false;
  }
  return false;  // equal to L is non-canonical
}

}  // namespace detail

// ------------------------------------------------------------ high level ----

namespace {

using namespace detail;

// Core of verification with a pre-decompressed A. Checks S*B == R + k*A by
// computing R' = S*B + k*(-A) with one interleaved double-scalar multiply and
// comparing encodings: R' encodes canonically, so byte equality with sig[0..32)
// holds exactly when the old decompress-R-and-ge_eq check accepted (a
// non-canonical or non-point R can never match a canonical encoding). The
// point -A (rather than the scalar L-k) keeps the check correct for public
// keys with a torsion component, where L*A != identity.
bool verify_with_point(const Ge& a_point, const PublicKey& pub_enc,
                       std::span<const std::uint8_t> msg, const Signature& sig) {
  std::array<std::uint8_t, 32> r_enc, s_enc;
  std::memcpy(r_enc.data(), sig.data(), 32);
  std::memcpy(s_enc.data(), sig.data() + 32, 32);
  if (!sc_is_canonical(s_enc)) return false;

  Sha512 h;
  h.update(std::span<const std::uint8_t>(r_enc.data(), 32));
  h.update(std::span<const std::uint8_t>(pub_enc.data(), 32));
  h.update(msg);
  const Sc kchal = sc_reduce(h.finalize());

  const Ge rcheck = ge_double_scalarmult_base_vartime(
      sc_to_bytes(kchal), ge_neg(a_point), s_enc);
  return ge_to_bytes(rcheck) == r_enc;
}

// RFC 8032 Sec. 5.1.5: the clamped lower half of SHA-512(seed) is the
// secret scalar a, the upper half the nonce prefix. Returns a.
std::array<std::uint8_t, 32> expand_into(Ed25519SigningKey& k,
                                         const SecretSeed& seed) {
  const Digest512 h = sha512(std::span<const std::uint8_t>(seed.data(), seed.size()));
  std::array<std::uint8_t, 32> a_clamped;
  std::memcpy(a_clamped.data(), h.data(), 32);
  a_clamped[0] &= 248;
  a_clamped[31] &= 127;
  a_clamped[31] |= 64;
  k.scalar = sc_reduce(a_clamped);
  std::memcpy(k.prefix.data(), h.data() + 32, 32);
  return a_clamped;
}

}  // namespace

Ed25519SigningKey ed25519_expand(const SecretSeed& seed) {
  Ed25519SigningKey k;
  k.pub = ge_to_bytes(ge_scalarmult_base(expand_into(k, seed)));
  return k;
}

Ed25519SigningKey ed25519_expand(const SecretSeed& seed, const PublicKey& pub) {
  Ed25519SigningKey k;
  expand_into(k, seed);
  k.pub = pub;
  return k;
}

PublicKey ed25519_public_key(const SecretSeed& seed) {
  return ed25519_expand(seed).pub;
}

Signature ed25519_sign(const Ed25519SigningKey& key,
                       std::span<const std::uint8_t> msg) {
  obs::ScopedProfile prof(obs::ProfileSite::kEd25519Sign, msg.size());
  Sha512 h1;
  h1.update(std::span<const std::uint8_t>(key.prefix.data(), 32));
  h1.update(msg);
  const Sc r = sc_reduce(h1.finalize());

  const auto r_enc = ge_to_bytes(ge_scalarmult_base(sc_to_bytes(r)));

  Sha512 h2;
  h2.update(std::span<const std::uint8_t>(r_enc.data(), 32));
  h2.update(std::span<const std::uint8_t>(key.pub.data(), 32));
  h2.update(msg);
  const Sc kchal = sc_reduce(h2.finalize());
  const Sc s = sc_add(r, sc_mul(kchal, key.scalar));

  Signature sig;
  std::memcpy(sig.data(), r_enc.data(), 32);
  const auto s_enc = sc_to_bytes(s);
  std::memcpy(sig.data() + 32, s_enc.data(), 32);
  return sig;
}

Signature ed25519_sign(const SecretSeed& seed, std::span<const std::uint8_t> msg) {
  return ed25519_sign(ed25519_expand(seed), msg);
}

bool ed25519_verify(const PublicKey& pub, std::span<const std::uint8_t> msg,
                    const Signature& sig) {
  obs::ScopedProfile prof(obs::ProfileSite::kEd25519Verify, msg.size());
  const auto a_point = ge_from_bytes(pub);
  if (!a_point) return false;
  return verify_with_point(*a_point, pub, msg, sig);
}

std::optional<PreparedPublicKey> ed25519_prepare(const PublicKey& pub) {
  const auto a_point = ge_from_bytes(pub);
  if (!a_point) return std::nullopt;
  PreparedPublicKey k;
  k.encoded = pub;
  k.point = *a_point;
  return k;
}

bool ed25519_verify_prepared(const PreparedPublicKey& key,
                             std::span<const std::uint8_t> msg,
                             const Signature& sig) {
  obs::ScopedProfile prof(obs::ProfileSite::kEd25519Verify, msg.size());
  return verify_with_point(key.point, key.encoded, msg, sig);
}

bool ed25519_verify_reference(const PublicKey& pub,
                              std::span<const std::uint8_t> msg,
                              const Signature& sig) {
  // The seed implementation, verbatim: decompress both A and R, two generic
  // double-and-add scalar multiplies, projective comparison.
  std::array<std::uint8_t, 32> r_enc, s_enc;
  std::memcpy(r_enc.data(), sig.data(), 32);
  std::memcpy(s_enc.data(), sig.data() + 32, 32);
  if (!sc_is_canonical(s_enc)) return false;

  const auto a_point = ge_from_bytes(pub);
  if (!a_point) return false;
  const auto r_point = ge_from_bytes(r_enc);
  if (!r_point) return false;

  Sha512 h;
  h.update(std::span<const std::uint8_t>(r_enc.data(), 32));
  h.update(std::span<const std::uint8_t>(pub.data(), 32));
  h.update(msg);
  const Sc kchal = sc_reduce(h.finalize());

  // Check S*B == R + k*A, with the generic double-and-add for both scalar
  // multiplies so this path keeps the seed's cost profile as a benchmark
  // baseline (ge_scalarmult_base now uses the window table).
  std::array<std::uint8_t, 32> one{};
  one[0] = 1;
  const Ge base = ge_scalarmult_base(one);
  const Ge lhs = ge_scalarmult(base, s_enc);
  const Ge rhs = ge_add(*r_point, ge_scalarmult(*a_point, sc_to_bytes(kchal)));
  return ge_eq(lhs, rhs);
}

}  // namespace lo::crypto
