/**
 * @file
 * Shape classifier implementation.
 */

#include "shape.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/math_util.hh"

namespace gpuscale {
namespace scaling {

ShapeVerdict
classifyCurve(std::span<const double> knob, std::span<const double> perf,
              const ShapeParams &params)
{
    fatal_if(knob.size() != perf.size(),
             "classifyCurve: %zu knob values vs %zu perf samples",
             knob.size(), perf.size());
    fatal_if(knob.size() < 3, "classifyCurve: need >= 3 samples");
    for (size_t i = 0; i < perf.size(); ++i) {
        fatal_if(perf[i] <= 0, "classifyCurve: non-positive perf %g",
                 perf[i]);
        fatal_if(knob[i] <= 0, "classifyCurve: non-positive knob %g",
                 knob[i]);
        fatal_if(i > 0 && knob[i] <= knob[i - 1],
                 "classifyCurve: knob values must increase");
    }

    ShapeVerdict v;
    v.total_gain = perf.back() / perf.front();
    v.ideal_gain = knob.back() / knob.front();
    v.efficiency = v.total_gain / v.ideal_gain;
    v.monotone_fraction =
        monotoneIncreasingFraction(perf, params.step_tolerance);
    v.linearity_r2 = linearFit(knob, perf).r2;

    // Peak/saturation detection runs on the 3-point median-filtered
    // curve (endpoints copied) so a single noisy sample cannot
    // masquerade as the peak (measured data is the expected input).
    // Monotonicity stays on the raw curve: sawtooth structure is real
    // signal there.  The filter is evaluated point by point, so the
    // classifier needs no buffer for it.
    const size_t n = perf.size();
    const auto smooth = [&perf, n](size_t i) {
        if (i == 0 || i + 1 == n)
            return perf[i];
        const double a = perf[i - 1], b = perf[i], c = perf[i + 1];
        return std::max(std::min(a, b), std::min(std::max(a, b), c));
    };
    double peak = smooth(0);
    for (size_t i = 1; i < n; ++i)
        peak = std::max(peak, smooth(i));
    v.saturation_knob = knob.back();
    for (size_t i = 0; i < n; ++i) {
        if (smooth(i) >= params.saturation_level * peak) {
            v.saturation_knob = knob[i];
            break;
        }
    }
    const double knee_fraction =
        (v.saturation_knob - knob.front()) /
        (knob.back() - knob.front());

    //
    // Decision ladder, most specific first.
    //
    // Adverse: the curve *ends* well below its own peak — more of the
    // resource eventually hurts.  This catches both monotone declines
    // and the rise-then-collapse curves the paper highlights.  Both
    // sides come from the smoothed curve so noise cannot fabricate
    // (or hide) the loss.
    if (smooth(n - 1) < params.adverse_ratio * peak) {
        v.shape = CurveShape::Adverse;
        return v;
    }

    if (v.total_gain < params.flat_gain &&
        peak / perf.front() < params.flat_gain) {
        v.shape = CurveShape::Flat;
        return v;
    }

    if (v.monotone_fraction < params.monotone_fraction) {
        v.shape = CurveShape::Irregular;
        return v;
    }

    if (knee_fraction <= params.saturation_knee &&
        v.efficiency < params.linear_fraction) {
        v.shape = CurveShape::Plateau;
        return v;
    }

    if (v.efficiency >= params.linear_fraction) {
        v.shape = CurveShape::Linear;
        return v;
    }

    v.shape = CurveShape::Sublinear;
    return v;
}

std::string
shapeName(CurveShape shape)
{
    switch (shape) {
      case CurveShape::Linear:    return "linear";
      case CurveShape::Sublinear: return "sublinear";
      case CurveShape::Plateau:   return "plateau";
      case CurveShape::Flat:      return "flat";
      case CurveShape::Adverse:   return "adverse";
      case CurveShape::Irregular: return "irregular";
    }
    panic("unknown curve shape %d", static_cast<int>(shape));
}

} // namespace scaling
} // namespace gpuscale
