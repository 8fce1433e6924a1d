#include "sim/latency.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace lo::sim {

namespace {

struct City {
  const char* name;
  double lat;  // degrees
  double lon;  // degrees
};

// 32 cities, approximating the WonderNetwork ping-dataset coverage the paper
// uses (Sec. 6.1). Coordinates are approximate city centers.
constexpr City kCities[32] = {
    {"Amsterdam", 52.37, 4.90},     {"Athens", 37.98, 23.73},
    {"Bangalore", 12.97, 77.59},    {"Barcelona", 41.39, 2.17},
    {"Beijing", 39.90, 116.41},     {"Bogota", 4.71, -74.07},
    {"Buenos Aires", -34.60, -58.38}, {"Cairo", 30.04, 31.24},
    {"Cape Town", -33.92, 18.42},   {"Chicago", 41.88, -87.63},
    {"Dallas", 32.78, -96.80},      {"Dubai", 25.20, 55.27},
    {"Frankfurt", 50.11, 8.68},     {"Hong Kong", 22.32, 114.17},
    {"Istanbul", 41.01, 28.98},     {"Jakarta", -6.21, 106.85},
    {"Johannesburg", -26.20, 28.05}, {"Lagos", 6.52, 3.38},
    {"London", 51.51, -0.13},       {"Los Angeles", 34.05, -118.24},
    {"Madrid", 40.42, -3.70},       {"Mexico City", 19.43, -99.13},
    {"Moscow", 55.76, 37.62},       {"Mumbai", 19.08, 72.88},
    {"New York", 40.71, -74.01},    {"Paris", 48.86, 2.35},
    {"Sao Paulo", -23.55, -46.63},  {"Seoul", 37.57, 126.98},
    {"Singapore", 1.35, 103.82},    {"Sydney", -33.87, 151.21},
    {"Tokyo", 35.68, 139.65},       {"Toronto", 43.65, -79.38},
};

constexpr double kEarthRadiusKm = 6371.0;
// Light in fiber travels at ~2/3 c; routes are not great circles. The route
// factor folds cable detours and store-and-forward hops into one constant.
constexpr double kFiberKmPerMs = 200.0;
constexpr double kRouteFactor = 2.0;
constexpr double kLastMileMs = 0.4;

double great_circle_km(const City& a, const City& b) {
  const double d2r = std::numbers::pi / 180.0;
  const double lat1 = a.lat * d2r, lat2 = b.lat * d2r;
  const double dlat = (b.lat - a.lat) * d2r;
  const double dlon = (b.lon - a.lon) * d2r;
  const double s = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(s));
}

}  // namespace

CityLatencyModel::CityLatencyModel(double jitter_frac)
    : jitter_frac_(jitter_frac) {
  const std::size_t n = city_count();
  matrix_.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double km = great_circle_km(kCities[i], kCities[j]);
      const double ms = kLastMileMs + km / kFiberKmPerMs * kRouteFactor;
      matrix_[i * n + j] = static_cast<std::int64_t>(ms * 1000.0);
    }
  }
}

std::size_t CityLatencyModel::city_count() noexcept {
  return sizeof(kCities) / sizeof(kCities[0]);
}

std::string CityLatencyModel::city_name(std::size_t i) {
  if (i >= city_count()) throw std::out_of_range("city index");
  return kCities[i].name;
}

std::int64_t CityLatencyModel::base_us(std::size_t city_a,
                                       std::size_t city_b) const {
  const std::size_t n = city_count();
  if (city_a >= n || city_b >= n) throw std::out_of_range("city index");
  return matrix_[city_a * n + city_b];
}

std::int64_t CityLatencyModel::latency_us(std::uint32_t from, std::uint32_t to,
                                          util::Rng& rng) {
  // Round-robin city assignment, matching the paper's experimental setup.
  const std::size_t n = city_count();
  std::int64_t base = matrix_[(from % n) * n + (to % n)];
  if (jitter_frac_ > 0.0) {
    const double mult = rng.next_lognormal(0.0, jitter_frac_);
    base = static_cast<std::int64_t>(static_cast<double>(base) * mult);
  }
  // Same-machine / same-city messages still take a hop.
  if (base < 200) base = 200;
  return base;
}

}  // namespace lo::sim
