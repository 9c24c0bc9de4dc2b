/**
 * @file
 * Input-scaling analysis implementation.
 */

#include "input_scaling.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "gpu/kernel_desc.hh"

namespace gpuscale {
namespace scaling {

InputScalingResult
studyInputScaling(const gpu::PerfModel &model,
                  const gpu::KernelDesc &kernel,
                  const ConfigSpace &space,
                  const std::vector<double> &multipliers)
{
    fatal_if(multipliers.empty(), "input scaling: no multipliers");
    for (size_t i = 0; i < multipliers.size(); ++i) {
        fatal_if(multipliers[i] <= 0,
                 "input scaling: non-positive multiplier %g",
                 multipliers[i]);
        fatal_if(i > 0 && multipliers[i] <= multipliers[i - 1],
                 "input scaling: multipliers must increase");
    }

    InputScalingResult result;
    result.kernel = kernel.name;

    const int max_cus = space.cuValues().back();
    bool any_growth = false;
    bool reached_machine = false;

    for (const double mult : multipliers) {
        gpu::KernelDesc scaled = kernel;
        scaled.num_workgroups = std::max<int64_t>(
            1, static_cast<int64_t>(
                   std::llround(kernel.num_workgroups * mult)));

        const auto cls = classifySurface(ScalingSurface(
            scaled.name, space,
            model.evaluateGridRuntimes(scaled, space.grid())));

        InputScalePoint point;
        point.input_scale = mult;
        point.workgroups = scaled.num_workgroups;
        point.cu90 = cls.cu90;
        point.cu_gain = cls.cu.total_gain;
        point.cls = cls.cls;
        result.points.push_back(point);

        // cu90 quantizes to grid steps; within one step of the full
        // machine counts as reaching it.
        if (point.cu90 >= static_cast<int>(0.9 * max_cus))
            reached_machine = true;
    }

    for (size_t i = 1; i < result.points.size(); ++i) {
        if (result.points[i].cu90 > result.points[0].cu90)
            any_growth = true;
    }

    if (reached_machine)
        result.verdict = InputVerdict::FixableByInput;
    else if (any_growth)
        result.verdict = InputVerdict::PartiallyFixable;
    else
        result.verdict = InputVerdict::AlgorithmLimited;
    return result;
}

std::string
inputVerdictName(InputVerdict verdict)
{
    switch (verdict) {
      case InputVerdict::FixableByInput:   return "fixable-by-input";
      case InputVerdict::PartiallyFixable: return "partially-fixable";
      case InputVerdict::AlgorithmLimited: return "algorithm-limited";
    }
    panic("unknown input verdict %d", static_cast<int>(verdict));
}

} // namespace scaling
} // namespace gpuscale
