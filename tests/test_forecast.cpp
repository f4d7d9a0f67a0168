#include "grid/forecast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "core/error.h"
#include "grid/presets.h"
#include "grid/simulator.h"

namespace hpcarbon::grid {
namespace {

CarbonIntensityTrace constant_trace(double v) {
  return CarbonIntensityTrace("X", kUtc,
                              std::vector<double>(kHoursPerYear, v));
}

CarbonIntensityTrace square_trace(double lo, double hi) {
  std::vector<double> v(kHoursPerYear);
  for (int i = 0; i < kHoursPerYear; ++i) {
    v[static_cast<size_t>(i)] = (i % 24) < 12 ? lo : hi;
  }
  return CarbonIntensityTrace("SQ", kUtc, v);
}

TEST(Forecast, PersistencePredictsLastValue) {
  const auto trace = constant_trace(250.0);
  PersistenceForecast f(trace);
  EXPECT_DOUBLE_EQ(f.predict(HourOfYear(100), 0), 250.0);
  EXPECT_DOUBLE_EQ(f.predict(HourOfYear(100), 24), 250.0);
}

TEST(Forecast, PersistenceIsCausal) {
  std::vector<double> v(kHoursPerYear, 100.0);
  v[499] = 400.0;  // spike in the last observed hour
  const CarbonIntensityTrace trace("X", kUtc, v);
  PersistenceForecast f(trace);
  // Origin 500: last observation is hour 499 -> 400, not the future 100.
  EXPECT_DOUBLE_EQ(f.predict(HourOfYear(500), 6), 400.0);
}

TEST(Forecast, DiurnalTemplateLearnsSquareWave) {
  const auto trace = square_trace(50.0, 500.0);
  DiurnalTemplateForecast f(trace, 7, 0.0);
  const HourOfYear origin(100 * 24);  // far enough in for a full window
  // Predicting into the clean half vs the dirty half.
  EXPECT_NEAR(f.predict(origin, 2), 50.0, 1e-9);    // hour 2: clean
  EXPECT_NEAR(f.predict(origin, 14), 500.0, 1e-9);  // hour 14: dirty
}

TEST(Forecast, TemplateBeatsPersistenceOnDiurnalGrids) {
  // CISO's duck curve is diurnal: the template must beat persistence at
  // 6-24 hour horizons.
  const auto trace = GridSimulator(ciso()).run();
  PersistenceForecast persistence(trace);
  DiurnalTemplateForecast tmpl(trace);
  for (int horizon : {6, 12, 24}) {
    const auto sp = evaluate(persistence, trace, horizon);
    const auto st = evaluate(tmpl, trace, horizon);
    EXPECT_LT(st.mae, sp.mae) << "horizon " << horizon;
  }
}

TEST(Forecast, SkillDegradesWithHorizonForPersistence) {
  const auto trace = GridSimulator(eso()).run();
  PersistenceForecast f(trace);
  const auto h1 = evaluate(f, trace, 1);
  const auto h12 = evaluate(f, trace, 12);
  EXPECT_LT(h1.mae, h12.mae);
  EXPECT_GT(h1.mae, 0.0);
  EXPECT_GT(h12.mape_percent, h1.mape_percent);
}

TEST(Forecast, WindowAveragesHourPredictions) {
  const auto trace = square_trace(100.0, 300.0);
  DiurnalTemplateForecast f(trace, 7, 0.0);
  const HourOfYear origin(50 * 24);
  // Window [10, 14): hours 10,11 clean (100), hours 12,13 dirty (300).
  EXPECT_NEAR(f.predict_window(origin, 10, 4.0), 200.0, 1e-9);
  EXPECT_THROW(f.predict_window(origin, 0, 0.0), Error);
}

TEST(Forecast, LevelBlendTracksRegimeShift) {
  // A persistent +100 offset on the last day must lift blended predictions.
  std::vector<double> v(kHoursPerYear, 200.0);
  for (int i = 99 * 24; i < 100 * 24; ++i) {
    v[static_cast<size_t>(i)] = 300.0;
  }
  const CarbonIntensityTrace trace("X", kUtc, v);
  DiurnalTemplateForecast blended(trace, 14, 0.5);
  DiurnalTemplateForecast pure(trace, 14, 0.0);
  const HourOfYear origin(100 * 24);
  EXPECT_GT(blended.predict(origin, 3), pure.predict(origin, 3));
}

/// The hour-by-hour implementation the snapshot replaced, kept verbatim as
/// the oracle: rebuild the template for every predicted hour, then sum the
/// window one predict() at a time.
double oracle_predict(const CarbonIntensityTrace& trace, int window_days,
                      double level_blend, HourOfYear origin,
                      int horizon_hours) {
  std::array<double, kHoursPerDay> sum{};
  std::array<int, kHoursPerDay> count{};
  for (int back = 1; back <= window_days * kHoursPerDay; ++back) {
    const HourOfYear h = origin.shifted(-back);
    sum[static_cast<std::size_t>(h.hour_of_day())] +=
        trace.at(h).to_g_per_kwh();
    ++count[static_cast<std::size_t>(h.hour_of_day())];
  }
  std::array<double, kHoursPerDay> tmpl{};
  for (int i = 0; i < kHoursPerDay; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    tmpl[iu] = count[iu] > 0 ? sum[iu] / count[iu] : 0.0;
  }
  const HourOfYear target = origin.shifted(horizon_hours);
  const double template_value =
      tmpl[static_cast<std::size_t>(target.hour_of_day())];
  const HourOfYear last = origin.shifted(-1);
  const double last_dev =
      trace.at(last).to_g_per_kwh() -
      tmpl[static_cast<std::size_t>(last.hour_of_day())];
  return std::max(0.0, template_value + level_blend * last_dev);
}

double oracle_window(const CarbonIntensityTrace& trace, int window_days,
                     double level_blend, HourOfYear origin, int start_h,
                     double duration_h) {
  double acc = 0;
  double remaining = duration_h;
  int h = start_h;
  while (remaining > 0) {
    const double w = remaining >= 1.0 ? 1.0 : remaining;
    acc += oracle_predict(trace, window_days, level_blend, origin, h) * w;
    remaining -= w;
    ++h;
  }
  return acc / duration_h;
}

/// Jagged, occasionally zero intensities: with level_blend 1 a drop in
/// the last observed hour drives raw predictions below zero, so the clamp
/// is exercised too.
CarbonIntensityTrace jagged_trace() {
  std::vector<double> v(kHoursPerYear);
  for (int i = 0; i < kHoursPerYear; ++i) {
    const double wave = 250.0 * std::sin(0.7 * i) * ((i / 37) % 3);
    v[static_cast<size_t>(i)] = i % 11 == 0 ? 0.0 : std::max(0.0, 300 + wave);
  }
  return CarbonIntensityTrace("JAG", kUtc, v);
}

TEST(Forecast, SnapshotWindowsMatchHourByHourOracleBitForBit) {
  const auto ciso_trace = GridSimulator(ciso()).run();
  const auto jag = jagged_trace();
  for (const CarbonIntensityTrace* trace : {&ciso_trace, &jag}) {
    for (const int window_days : {1, 14}) {
      for (const double blend : {0.0, 0.3, 1.0}) {
        const DiurnalTemplateForecast f(*trace, window_days, blend);
        for (const int o : {0, 1, 2, 3, 8757, 8758, 8759}) {
          const HourOfYear origin(o);
          const auto snap = f.snapshot(origin);
          EXPECT_EQ(snap.origin(), origin);
          for (int h = -2; h < 48; ++h) {
            const double want =
                oracle_predict(*trace, window_days, blend, origin, h);
            EXPECT_EQ(f.predict(origin, h), want);
            EXPECT_EQ(snap.predict(h), f.predict(origin, h));
          }
          for (int start = 0; start <= 12; ++start) {
            for (const double dur : {0.25, 1.0, 3.5, 30.0}) {
              const double want = oracle_window(*trace, window_days, blend,
                                                origin, start, dur);
              EXPECT_EQ(f.predict_window(origin, start, dur), want)
                  << trace->region_code() << " days " << window_days
                  << " blend " << blend << " origin " << o << " start "
                  << start << " dur " << dur;
              EXPECT_EQ(snap.window(start, dur), want);
            }
          }
        }
      }
    }
  }
}

TEST(Forecast, PersistenceWindowKeepsTheHourLoop) {
  const auto trace = jagged_trace();
  const PersistenceForecast f(trace);
  const HourOfYear origin(8758);
  const double last = trace.at(origin.shifted(-1)).to_g_per_kwh();
  // Every hour predicts `last`; the partial-hour weights must still sum
  // the same terms the hour loop does.
  double acc = 0;
  for (const double w : {1.0, 1.0, 1.0, 0.5}) acc += last * w;
  EXPECT_EQ(f.predict_window(origin, 5, 3.5), acc / 3.5);
  EXPECT_THROW(f.predict_window(origin, 0, 0.0), Error);
}

TEST(Forecast, Validation) {
  const auto trace = constant_trace(100.0);
  EXPECT_THROW(DiurnalTemplateForecast(trace, 0), Error);
  EXPECT_THROW(DiurnalTemplateForecast(trace, 7, 1.5), Error);
  PersistenceForecast f(trace);
  EXPECT_THROW(evaluate(f, trace, -1), Error);
  EXPECT_THROW(evaluate(f, trace, 1, kHoursPerYear), Error);
}

}  // namespace
}  // namespace hpcarbon::grid
