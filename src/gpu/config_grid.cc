/**
 * @file
 * ConfigGrid implementation.
 */

#include "config_grid.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/string_util.hh"
#include "interconnect.hh"
#include "memory_system.hh"

namespace gpuscale {
namespace gpu {

CuUnits
computeCuUnits(int num_cus, const GpuConfig &arch)
{
    // Each product mirrors a scalar-path peak rate with the clock
    // factored out: simd_units * clk is the t_compute denominator,
    // l1_units * clk is GpuConfig::peakL1Bw(), l2_units * clk is
    // peakL2Bw(), and xbar_units * clk is XbarState::effective_bw.
    // All operands are small integers, so the products are exact and
    // the deferred clock multiply rounds exactly as the scalar path's
    // does.
    CuUnits u;
    u.cus = static_cast<double>(num_cus);
    u.simd_units = u.cus * arch.simds_per_cu;
    u.lds_units = u.cus * arch.lds_lanes_per_cycle;
    u.l1_units = u.cus * arch.l1_bytes_per_cycle;
    const double l2_units = static_cast<double>(arch.l2_slices) *
                            arch.l2_bytes_per_cycle_per_slice;
    u.xbar_units = std::min(l2_units, u.l1_units);
    return u;
}

ClockTerms
computeClockTerms(const GpuConfig &cfg)
{
    // The hops reuse computeXbar() and MemorySystem so the crossbar
    // traversal constant and the unloaded-latency conversion live in
    // exactly one place each.
    ClockTerms t;
    t.clk_hz = cfg.coreClkHz();
    t.atomic_rate = cfg.atomic_ops_per_cycle * t.clk_hz;
    const XbarState xbar = computeXbar(cfg);
    t.l2_hop_s = cfg.l2_latency_cycles / t.clk_hz + xbar.latency_s;
    const MemorySystem mem(cfg);
    t.dram_hop_s =
        cfg.l2_latency_cycles / t.clk_hz + mem.unloadedLatency();
    return t;
}

namespace {

template <typename T>
void
checkGridAxis(const std::vector<T> &axis, const char *name)
{
    fatal_if(axis.empty(), "config-grid axis '%s' is empty", name);
    for (size_t i = 1; i < axis.size(); ++i) {
        fatal_if(axis[i] <= axis[i - 1],
                 "config-grid axis '%s' is not strictly increasing",
                 name);
    }
}

void
appendField(std::string &out, double v)
{
    out += formatDoubleShortest(v);
    out += ',';
}

void
appendField(std::string &out, int v)
{
    out += std::to_string(v);
    out += ',';
}

} // namespace

size_t
ConfigGrid::flatten(size_t cu_i, size_t core_i, size_t mem_i) const
{
    panic_if(cu_i >= numCu() || core_i >= numCoreClk() ||
                 mem_i >= numMemClk(),
             "config-grid index (%zu, %zu, %zu) out of range",
             cu_i, core_i, mem_i);
    return (cu_i * numCoreClk() + core_i) * numMemClk() + mem_i;
}

GpuConfig
ConfigGrid::at(size_t cu_i, size_t core_i, size_t mem_i) const
{
    panic_if(cu_i >= numCu() || core_i >= numCoreClk() ||
                 mem_i >= numMemClk(),
             "config-grid index (%zu, %zu, %zu) out of range",
             cu_i, core_i, mem_i);
    GpuConfig cfg = base;
    cfg.num_cus = cu_values[cu_i];
    cfg.core_clk_mhz = core_clks_mhz[core_i];
    cfg.mem_clk_mhz = mem_clks_mhz[mem_i];
    return cfg;
}

void
ConfigGrid::validate() const
{
    checkGridAxis(cu_values, "compute-units");
    checkGridAxis(core_clks_mhz, "core-clock");
    checkGridAxis(mem_clks_mhz, "memory-clock");
    // The extreme points cover every axis bound; interior points share
    // the same fixed parameters.
    at(0, 0, 0).validate();
    at(numCu() - 1, numCoreClk() - 1, numMemClk() - 1).validate();
}

std::string
ConfigGrid::fingerprint() const
{
    std::string out = "grid:cu=";
    for (const int cu : cu_values)
        appendField(out, cu);
    out += "core=";
    for (const double clk : core_clks_mhz)
        appendField(out, clk);
    out += "mem=";
    for (const double clk : mem_clks_mhz)
        appendField(out, clk);

    // Every fixed microarchitecture parameter shifts the model's
    // output, so all of them are part of the identity.  The three
    // swept knobs of `base` are overwritten by the axes and excluded.
    out += "arch=";
    appendField(out, base.simds_per_cu);
    appendField(out, base.lanes_per_simd);
    appendField(out, base.wavefront_size);
    appendField(out, base.max_waves_per_simd);
    appendField(out, base.vgprs_per_simd);
    appendField(out, base.max_wgs_per_cu);
    appendField(out, base.lds_bytes_per_cu);
    appendField(out, base.l1_bytes_per_cu);
    appendField(out, base.l2_slices);
    appendField(out, base.l2_bytes_per_slice);
    appendField(out, base.l2_bytes_per_cycle_per_slice);
    appendField(out, base.l1_bytes_per_cycle);
    appendField(out, base.lds_lanes_per_cycle);
    appendField(out, base.dram_bus_bytes);
    appendField(out, base.dram_transfers_per_clk);
    appendField(out, base.dram_efficiency);
    appendField(out, base.dram_latency_ns);
    appendField(out, base.l1_latency_cycles);
    appendField(out, base.l2_latency_cycles);
    appendField(out, base.atomic_ops_per_cycle);
    return out;
}

} // namespace gpu
} // namespace gpuscale
