// Carbon-intensity forecasting.
//
// The paper's Sec. 4 implication — "robust system software support for
// real-time and automatic distribution of jobs is needed" — requires
// schedulers to anticipate intensity, not just observe it (the UK ESO API
// the paper cites ships 48-hour forecasts for exactly this reason). Two
// standard baselines are provided:
//
//  * PersistenceForecast  — CI(t+h) = CI(t); the strawman.
//  * DiurnalTemplateForecast — hour-of-day template from the trailing
//    window, the structure the paper's Fig. 7 analysis exploits.
//
// Both see only history (hours strictly before the query origin), so
// policies built on them are causally valid.
//
// Cost model. Every diurnal prediction from one origin derives from the
// same hour-of-day template, so the work splits in two:
//
//  * DiurnalTemplateForecast::snapshot(origin) reads the trace
//    `window_days * 24` times (336 reads at the default 14 days) and
//    returns the 24 level-corrected predictions as a value;
//  * Snapshot::predict is O(1) and Snapshot::window is O(duration_h).
//
// predict() and predict_window() each take one snapshot per call. A
// caller asking many questions of one origin (several start offsets,
// several jobs in the same hour) takes one snapshot and queries it.
// Forecast objects hold no mutable state, so a const forecast is safe to
// share across threads.
#pragma once

#include <array>
#include <memory>

#include "grid/trace.h"

namespace hpcarbon::grid {

class Forecast {
 public:
  virtual ~Forecast() = default;

  /// Predict the intensity at `origin + horizon_hours`, using only trace
  /// values strictly before `origin` (local time of the underlying trace).
  virtual double predict(HourOfYear origin, int horizon_hours) const = 0;

  /// Mean predicted intensity over [origin + start_h, origin + start_h +
  /// duration_h), hour-granular: whole hours weigh 1, a trailing partial
  /// hour weighs its fraction. The default calls predict() per hour.
  virtual double predict_window(HourOfYear origin, int start_h,
                                double duration_h) const;
};

/// CI(t+h) = CI(t-1): last observed value everywhere.
class PersistenceForecast : public Forecast {
 public:
  explicit PersistenceForecast(const CarbonIntensityTrace& trace);
  double predict(HourOfYear origin, int horizon_hours) const override;

 private:
  const CarbonIntensityTrace* trace_;
};

/// Hour-of-day mean over the trailing `window_days`, blended with the last
/// observation for level (bias) correction.
class DiurnalTemplateForecast : public Forecast {
 public:
  /// Every prediction from one origin: the 24 clamped hour-of-day values
  /// max(0, template[h] + level_blend * last_deviation). An immutable
  /// value that keeps no reference to the trace.
  class Snapshot {
   public:
    HourOfYear origin() const { return origin_; }
    /// Same value as DiurnalTemplateForecast::predict(origin(), h).
    double predict(int horizon_hours) const {
      return by_hour_[static_cast<std::size_t>(
          origin_.shifted(horizon_hours).hour_of_day())];
    }
    /// Same value as predict_window(origin(), start_h, duration_h).
    double window(int start_h, double duration_h) const;

   private:
    friend class DiurnalTemplateForecast;
    HourOfYear origin_;
    std::array<double, kHoursPerDay> by_hour_{};  // by target hour of day
  };

  DiurnalTemplateForecast(const CarbonIntensityTrace& trace,
                          int window_days = 14, double level_blend = 0.3);
  Snapshot snapshot(HourOfYear origin) const;
  double predict(HourOfYear origin, int horizon_hours) const override;
  double predict_window(HourOfYear origin, int start_h,
                        double duration_h) const override;

 private:
  std::array<double, kHoursPerDay> hourly_template(HourOfYear origin) const;

  const CarbonIntensityTrace* trace_;
  int window_days_;
  double level_blend_;
};

/// Forecast accuracy over a year at a fixed horizon.
struct ForecastSkill {
  double mae = 0;          // mean absolute error, g/kWh
  double mape_percent = 0; // mean absolute percentage error
};
ForecastSkill evaluate(const Forecast& forecast,
                       const CarbonIntensityTrace& truth, int horizon_hours,
                       int start_hour = 14 * kHoursPerDay);

}  // namespace hpcarbon::grid
