#include "grid/forecast.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace hpcarbon::grid {

namespace {

/// Mean of `predict_hour(h)` over [start_h, start_h + duration_h): whole
/// hours weigh 1, the trailing partial hour its fraction, summed in hour
/// order. Every window in this file goes through here, so the snapshot
/// path and the per-hour path add the same terms in the same order.
template <class PredictHour>
double window_mean(int start_h, double duration_h,
                   const PredictHour& predict_hour) {
  HPC_REQUIRE(duration_h > 0, "window duration must be positive");
  double acc = 0;
  double remaining = duration_h;
  int h = start_h;
  while (remaining > 0) {
    const double w = remaining >= 1.0 ? 1.0 : remaining;
    acc += predict_hour(h) * w;
    remaining -= w;
    ++h;
  }
  return acc / duration_h;
}

}  // namespace

double Forecast::predict_window(HourOfYear origin, int start_h,
                                double duration_h) const {
  return window_mean(start_h, duration_h,
                     [&](int h) { return predict(origin, h); });
}

double DiurnalTemplateForecast::Snapshot::window(int start_h,
                                                 double duration_h) const {
  return window_mean(start_h, duration_h,
                     [&](int h) { return predict(h); });
}

PersistenceForecast::PersistenceForecast(const CarbonIntensityTrace& trace)
    : trace_(&trace) {}

double PersistenceForecast::predict(HourOfYear origin,
                                    int /*horizon_hours*/) const {
  return trace_->at(origin.shifted(-1)).to_g_per_kwh();
}

DiurnalTemplateForecast::DiurnalTemplateForecast(
    const CarbonIntensityTrace& trace, int window_days, double level_blend)
    : trace_(&trace), window_days_(window_days), level_blend_(level_blend) {
  HPC_REQUIRE(window_days_ >= 1, "window must cover at least one day");
  HPC_REQUIRE(level_blend_ >= 0.0 && level_blend_ <= 1.0,
              "level blend must be in [0,1]");
}

std::array<double, kHoursPerDay> DiurnalTemplateForecast::hourly_template(
    HourOfYear origin) const {
  std::array<double, kHoursPerDay> sum{};
  std::array<int, kHoursPerDay> count{};
  for (int back = 1; back <= window_days_ * kHoursPerDay; ++back) {
    const HourOfYear h = origin.shifted(-back);
    sum[static_cast<std::size_t>(h.hour_of_day())] +=
        trace_->at(h).to_g_per_kwh();
    ++count[static_cast<std::size_t>(h.hour_of_day())];
  }
  std::array<double, kHoursPerDay> tmpl{};
  for (int i = 0; i < kHoursPerDay; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    tmpl[iu] = count[iu] > 0 ? sum[iu] / count[iu] : 0.0;
  }
  return tmpl;
}

DiurnalTemplateForecast::Snapshot DiurnalTemplateForecast::snapshot(
    HourOfYear origin) const {
  const auto tmpl = hourly_template(origin);
  // Level correction: shift toward the latest observation's deviation from
  // its own template slot (persistence of the weather regime).
  const HourOfYear last = origin.shifted(-1);
  const double last_dev =
      trace_->at(last).to_g_per_kwh() -
      tmpl[static_cast<std::size_t>(last.hour_of_day())];
  Snapshot snap;
  snap.origin_ = origin;
  for (std::size_t i = 0; i < snap.by_hour_.size(); ++i) {
    snap.by_hour_[i] = std::max(0.0, tmpl[i] + level_blend_ * last_dev);
  }
  return snap;
}

double DiurnalTemplateForecast::predict(HourOfYear origin,
                                        int horizon_hours) const {
  return snapshot(origin).predict(horizon_hours);
}

double DiurnalTemplateForecast::predict_window(HourOfYear origin, int start_h,
                                               double duration_h) const {
  return snapshot(origin).window(start_h, duration_h);
}

ForecastSkill evaluate(const Forecast& forecast,
                       const CarbonIntensityTrace& truth, int horizon_hours,
                       int start_hour) {
  HPC_REQUIRE(horizon_hours >= 0, "horizon must be non-negative");
  HPC_REQUIRE(start_hour >= 0 && start_hour < kHoursPerYear,
              "start hour out of range");
  double abs_err = 0;
  double ape = 0;
  int n = 0;
  for (int h = start_hour; h + horizon_hours < kHoursPerYear; ++h) {
    const HourOfYear origin(h);
    const double pred = forecast.predict(origin, horizon_hours);
    const double actual =
        truth.at(origin.shifted(horizon_hours)).to_g_per_kwh();
    abs_err += std::fabs(pred - actual);
    if (actual > 0) ape += std::fabs(pred - actual) / actual;
    ++n;
  }
  ForecastSkill s;
  if (n > 0) {
    s.mae = abs_err / n;
    s.mape_percent = 100.0 * ape / n;
  }
  return s;
}

}  // namespace hpcarbon::grid
