#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace janus {

const char* DatasetName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kIntelWireless:
      return "Intel";
    case DatasetKind::kNycTaxi:
      return "NYC";
    case DatasetKind::kNasdaqEtf:
      return "ETF";
  }
  return "?";
}

DefaultTemplate DefaultTemplateFor(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kIntelWireless:
      return {/*predicate=time*/ 0, /*aggregate=light*/ 1};
    case DatasetKind::kNycTaxi:
      return {/*predicate=pickup_time*/ 0, /*aggregate=trip_distance*/ 2};
    case DatasetKind::kNasdaqEtf:
      return {/*predicate=volume*/ 5, /*aggregate=close*/ 2};
  }
  return {0, 1};
}

namespace {

GeneratedDataset GenerateIntel(size_t n, uint64_t seed) {
  GeneratedDataset ds;
  ds.kind = DatasetKind::kIntelWireless;
  ds.schema.column_names = {"time", "light", "temperature", "humidity",
                            "voltage"};
  ds.rows.reserve(n);
  Rng rng(seed);
  // 31-second epochs over ~1 month, like the Berkeley lab deployment.
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    row.id = i;
    t += rng.Exponential(1.0 / 31.0);
    const double day_phase =
        std::sin(2.0 * M_PI * std::fmod(t, 86400.0) / 86400.0 - M_PI / 2.0);
    // Light is zero at night and bursty during the day (zero-inflated).
    double light = 0.0;
    if (day_phase > -0.2) {
      light = std::max(0.0, (day_phase + 0.2) * 400.0 +
                                rng.LogNormal(2.0, 1.0));
    }
    const double temperature = 19.0 + 4.0 * day_phase + rng.Normal(0, 0.8);
    const double humidity = 45.0 - 6.0 * day_phase + rng.Normal(0, 2.5);
    const double voltage = 2.7 - 3e-7 * t + rng.Normal(0, 0.01);
    row[0] = t;
    row[1] = light;
    row[2] = temperature;
    row[3] = humidity;
    row[4] = voltage;
    ds.rows.push_back(row);
  }
  return ds;
}

GeneratedDataset GenerateNycTaxi(size_t n, uint64_t seed) {
  GeneratedDataset ds;
  ds.kind = DatasetKind::kNycTaxi;
  ds.schema.column_names = {"pickup_time", "dropoff_time",  "trip_distance",
                            "passenger_count", "fare", "pickup_time_of_day"};
  ds.rows.reserve(n);
  Rng rng(seed);
  double t = 0.0;  // seconds since Jan 1 2019
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    row.id = i;
    // Arrival intensity follows a diurnal cycle: few trips at 4am, rush at
    // 8am/6pm.
    const double tod = std::fmod(t, 86400.0) / 3600.0;  // hours
    const double intensity =
        0.35 + 0.65 * (std::exp(-0.5 * std::pow((tod - 8.5) / 2.0, 2)) +
                       std::exp(-0.5 * std::pow((tod - 18.5) / 2.5, 2)) +
                       0.4 * std::exp(-0.5 * std::pow((tod - 13.0) / 3.0, 2)));
    t += rng.Exponential(intensity);
    const double distance = rng.LogNormal(0.8, 0.9);  // miles, median ~2.2
    const double speed_mph = 8.0 + 14.0 * rng.NextDouble();
    const double duration = distance / speed_mph * 3600.0 + rng.Uniform(30, 120);
    const double fare = 2.5 + 2.5 * distance + 0.35 * duration / 60.0 +
                        rng.Normal(0, 0.5);
    row[0] = t;
    row[1] = t + duration;
    row[2] = distance;
    row[3] = static_cast<double>(1 + rng.Zipf(6, 1.8));
    row[4] = std::max(2.5, fare);
    row[5] = std::fmod(t, 86400.0);
    ds.rows.push_back(row);
  }
  return ds;
}

GeneratedDataset GenerateEtf(size_t n, uint64_t seed) {
  GeneratedDataset ds;
  ds.kind = DatasetKind::kNasdaqEtf;
  ds.schema.column_names = {"date", "open", "close", "high", "low", "volume"};
  ds.rows.reserve(n);
  Rng rng(seed);
  // Simulate a pool of ETFs, each a geometric random walk; rows arrive
  // day-major like the Kaggle dump (one row per ETF per day).
  const size_t num_etfs = std::max<size_t>(16, n / 2048);
  std::vector<double> price(num_etfs);
  std::vector<double> vol_scale(num_etfs);
  std::vector<double> sigma(num_etfs);
  for (size_t e = 0; e < num_etfs; ++e) {
    price[e] = rng.LogNormal(3.3, 0.8);          // ~$27 median
    vol_scale[e] = rng.LogNormal(10.0, 1.6);     // heavy-tailed base volume
    sigma[e] = 0.008 + 0.025 * rng.NextDouble();  // daily volatility
  }
  double day = 0.0;
  size_t e = 0;
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    row.id = i;
    if (e == num_etfs) {
      e = 0;
      day += 1.0;
    }
    const double open = price[e];
    const double ret = rng.Normal(0.0002, sigma[e]);
    const double close = open * std::exp(ret);
    const double wiggle_hi = std::abs(rng.Normal(0, sigma[e] / 2));
    const double wiggle_lo = std::abs(rng.Normal(0, sigma[e] / 2));
    const double high = std::max(open, close) * (1.0 + wiggle_hi);
    const double low = std::min(open, close) * (1.0 - wiggle_lo);
    // Volume spikes with absolute return (volume-volatility correlation).
    const double volume =
        vol_scale[e] * std::exp(8.0 * std::abs(ret)) * rng.LogNormal(0, 0.5);
    price[e] = close;
    row[0] = day;
    row[1] = open;
    row[2] = close;
    row[3] = high;
    row[4] = low;
    row[5] = volume;
    ds.rows.push_back(row);
    ++e;
  }
  return ds;
}

}  // namespace

GeneratedDataset GenerateDataset(DatasetKind kind, size_t n, uint64_t seed) {
  switch (kind) {
    case DatasetKind::kIntelWireless:
      return GenerateIntel(n, seed);
    case DatasetKind::kNycTaxi:
      return GenerateNycTaxi(n, seed);
    case DatasetKind::kNasdaqEtf:
      return GenerateEtf(n, seed);
  }
  return GenerateIntel(n, seed);
}

GeneratedDataset GenerateUniform(size_t n, int num_predicate_columns,
                                 uint64_t seed) {
  GeneratedDataset ds;
  ds.kind = DatasetKind::kIntelWireless;  // kind is irrelevant for tests
  ds.schema.column_names.clear();
  for (int c = 0; c < num_predicate_columns; ++c) {
    // Appended, not "p" + to_string: GCC 12 at -O3 misreads that prepend
    // as an overlapping memcpy (-Wrestrict, PR105329).
    std::string name = "p";
    name += std::to_string(c);
    ds.schema.column_names.push_back(std::move(name));
  }
  ds.schema.column_names.push_back("agg");
  ds.rows.reserve(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    row.id = i;
    for (int c = 0; c < num_predicate_columns; ++c) {
      row[c] = rng.NextDouble();
    }
    row[num_predicate_columns] = rng.Normal(10.0, 2.0);
    ds.rows.push_back(row);
  }
  return ds;
}

}  // namespace janus
