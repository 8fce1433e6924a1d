#include "gf/root_find.hpp"

#include "util/rng.hpp"

namespace lo::gf {

namespace {

// x^(2^m) mod f, by m squarings, left in ws.frob. f splits into distinct
// linear factors over GF(2^m) iff f divides x^(2^m) - x, i.e. iff this equals
// x mod f. Checking this up front makes rejection of invalid locators (the
// common case when a sketch has overflowed) cheap and certain instead of
// probabilistic. The squaring chain runs entirely in the workspace buffers.
void frobenius_x_ws(const Field& fld, const Poly& f, RootWorkspace& ws) {
  ws.frob.assign(2, 0);
  ws.frob[1] = 1;  // x
  poly_mod_inplace(fld, ws.frob, f);
  for (unsigned i = 0; i < fld.bits(); ++i) {
    poly_sqr_into(fld, ws.frob, ws.sqr_tmp);
    poly_mod_inplace(fld, ws.sqr_tmp, f);
    std::swap(ws.frob, ws.sqr_tmp);
  }
}

// T_beta(x) mod f, built by repeated Frobenius squaring into ws.trace.
void trace_poly_ws(const Field& fld, std::uint64_t beta, const Poly& f,
                   RootWorkspace& ws) {
  ws.frob.assign(2, 0);
  ws.frob[1] = beta;  // beta * x
  poly_mod_inplace(fld, ws.frob, f);
  ws.trace = ws.frob;
  for (unsigned i = 1; i < fld.bits(); ++i) {
    poly_sqr_into(fld, ws.frob, ws.sqr_tmp);
    poly_mod_inplace(fld, ws.sqr_tmp, f);
    std::swap(ws.frob, ws.sqr_tmp);
    poly_add_inplace(ws.trace, ws.frob);
  }
}

// Recursive splitter. `out` accumulates roots; returns false on any evidence
// that p does not split into distinct linear factors. p is clobbered; the
// per-level g / q factors live in the workspace pool so repeated decodes
// reuse their storage.
bool split(const Field& fld, Poly& p, util::Rng& rng, int depth,
           RootWorkspace& ws, std::vector<std::uint64_t>& out) {
  poly_make_monic(fld, p);
  const int d = poly_deg(p);
  if (d <= 0) return d == 0 || p.empty();
  if (d == 1) {
    out.push_back(p[0]);  // x + r => root r (char 2)
    return true;
  }
  if (d == 2 && p[1] == 0) {
    // x^2 + c: double root sqrt(c) — not squarefree, cannot be a valid locator.
    return false;
  }
  // A polynomial splitting into distinct linear factors has degree <= |field|;
  // also guard the recursion depth against adversarial non-splitting inputs.
  if (depth > 200) return false;

  const std::size_t mk = ws.pool.mark();
  Poly& g = ws.pool.acquire();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t beta = fld.map_nonzero(rng.next());
    trace_poly_ws(fld, beta, p, ws);
    g = p;
    ws.gcd_tmp = ws.trace;
    poly_gcd_inplace(fld, g, ws.gcd_tmp);
    if (poly_deg(g) <= 0) {
      // All roots might have trace 1 for this beta: try gcd(p, T + 1).
      ws.trace1 = ws.trace;
      if (ws.trace1.empty()) ws.trace1.push_back(0);
      ws.trace1[0] ^= 1;
      poly_trim(ws.trace1);
      g = p;
      poly_gcd_inplace(fld, g, ws.trace1);
    }
    const int dg = poly_deg(g);
    if (dg > 0 && dg < d) {
      Poly& q = ws.pool.acquire();
      ws.gcd_tmp = p;
      poly_divmod_inplace(fld, ws.gcd_tmp, g, q);
      const bool ok = split(fld, g, rng, depth + 1, ws, out) &&
                      split(fld, q, rng, depth + 1, ws, out);
      ws.pool.release_to(mk);
      return ok;
    }
  }
  ws.pool.release_to(mk);
  return false;  // no split found: p almost surely has irreducible factors
}

}  // namespace

bool find_roots_ws(const Field& f, Poly& p, std::uint64_t seed,
                   RootWorkspace& ws, std::vector<std::uint64_t>& out) {
  out.clear();
  poly_trim(p);
  if (p.empty()) return false;  // zero polynomial: undefined
  // Monic once up front: every reduction below (the Frobenius chain and the
  // splitter's trace chains) then divides by a monic modulus and skips the
  // lead-coefficient inversion. Remainders mod c*p equal those mod p, so the
  // roots, their order and the RNG draws are unchanged.
  poly_make_monic(f, p);
  const int d = poly_deg(p);
  if (d > 1) {
    frobenius_x_ws(f, p, ws);
    const bool is_x = ws.frob.size() == 2 && ws.frob[0] == 0 && ws.frob[1] == 1;
    if (!is_x) return false;  // does not split: reject early
  }
  out.reserve(static_cast<std::size_t>(d));
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  if (!split(f, p, rng, 0, ws, out)) return false;
  if (static_cast<int>(out.size()) != d) return false;
  // Distinctness check (duplicates mean the input was not squarefree).
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      if (out[i] == out[j]) return false;
    }
  }
  return true;
}

std::optional<std::vector<std::uint64_t>> find_roots(const Field& f, Poly p,
                                                     std::uint64_t seed) {
  RootWorkspace ws;
  std::vector<std::uint64_t> roots;
  if (!find_roots_ws(f, p, seed, ws, roots)) return std::nullopt;
  return roots;
}

}  // namespace lo::gf
