/**
 * @file
 * Deterministic, site-keyed fault injection.
 *
 * Robustness code that only runs when the disk actually corrupts a
 * file is untested code.  The FaultInjector lets tests (and operators
 * chasing a flaky deployment) fire three kinds of faults at named
 * probe points — "sites" — sprinkled through the I/O and dispatch
 * paths:
 *
 *  - Exception:  faultPoint() throws FaultInjectedError, modelling a
 *                crashing worker or a library throwing mid-operation.
 *  - IoError:    faultPoint() returns true; the caller treats the
 *                operation as failed (a transient I/O error) and runs
 *                its retry/degradation policy.
 *  - Delay:      faultPoint() sleeps, modelling a slow disk or a
 *                stalled NFS mount; the operation then proceeds.
 *
 * Plans are armed programmatically (arm()) or from the environment
 * (GPUSCALE_FAULTS="site:rate[:kind[:delay_ms]],..." — see
 * parseFaultPlan()).  Draws are seeded per site, so a given
 * (plan, seed) fires at exactly the same probe ordinals on every run:
 * fault tests are reproducible, never "flaky by design".
 *
 * The injector is compiled in always; when no plan is armed a probe
 * is one relaxed atomic load, so production paths pay nothing.
 */

#ifndef GPUSCALE_BASE_FAULT_HH
#define GPUSCALE_BASE_FAULT_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gpuscale {

/** What an armed fault does when its site's draw fires. */
enum class FaultKind {
    Exception, ///< throw FaultInjectedError from the probe
    IoError,   ///< report the operation as failed (probe returns true)
    Delay,     ///< sleep delay_ms, then let the operation proceed
};

/** Human-readable kind name ("throw", "io", "delay"). */
std::string faultKindName(FaultKind kind);

/** One armed fault: where, how often, and what happens. */
struct FaultSpec {
    /**
     * Site name, or a prefix glob ("sweep_cache.*") matching every
     * site under that prefix.
     */
    std::string site;
    double rate = 0.0;       ///< firing probability per probe, [0, 1]
    FaultKind kind = FaultKind::Exception;
    double delay_ms = 0.0;   ///< sleep length for FaultKind::Delay
};

/** The exception FaultKind::Exception probes throw. */
class FaultInjectedError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Observer notified once per fired fault.  base cannot depend on the
 * obs metrics registry (layering), so telemetry registers itself from
 * above; see obs/fault_telemetry.hh.
 */
using FaultObserver = void (*)(FaultKind kind, const char *site);

/**
 * Parse a GPUSCALE_FAULTS plan string.
 *
 * Grammar: `site:rate[:kind[:delay_ms]]` entries separated by commas;
 * kind is `throw` (default), `io`, or `delay`, and delay_ms is at
 * most kMaxDurationMs (one day, base/string_util.hh).  Example:
 *
 *     sweep_cache.disk.read:0.1:io,sweep.kernel:1:delay:20
 *
 * @return the specs, or nullopt with a diagnostic in *error.
 */
std::optional<std::vector<FaultSpec>> parseFaultPlan(
    const std::string &text, std::string *error);

/** Process-wide fault injector. */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /**
     * Arm a plan.  Each spec gets an independent draw stream derived
     * from (seed, spec index), so the firing pattern is a pure
     * function of the plan and the seed.  Replaces any previous plan
     * and resets the fired counters.
     */
    void arm(const std::vector<FaultSpec> &plan, uint64_t seed);

    /**
     * Arm from GPUSCALE_FAULTS / GPUSCALE_FAULT_SEED (seed defaults
     * to 0).  A malformed plan is a configuration error: the
     * diagnostic goes to stderr and the process exits with code 2,
     * so a typo'd injection campaign can never masquerade as a clean
     * run.  No-op when GPUSCALE_FAULTS is unset or empty.
     */
    void armFromEnv();

    /** Drop the plan; probes return to the zero-cost path. */
    void disarm();

    /** True when a plan is armed (single relaxed load). */
    bool
    armed() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /**
     * Probe slow path — use the faultPoint() wrapper instead.  Draws
     * every spec matching `site`; fires per kind (throws, sleeps, or
     * returns true for IoError).
     */
    bool fire(const char *site);

    /** Faults fired since the last arm(), by kind and in total. */
    uint64_t fired(FaultKind kind) const;
    uint64_t firedTotal() const;

    /** Install (or clear, with nullptr) the fired-fault observer. */
    void setObserver(FaultObserver observer);

  private:
    FaultInjector() = default;

    struct ArmedSpec;
    class Impl;

    /** Non-zero only while armed; probes gate on armed_ first. */
    std::atomic<bool> armed_{false};
};

/**
 * The probe: returns true when the caller must treat the operation as
 * failed (an injected I/O error).  Zero-cost when nothing is armed.
 */
inline bool
faultPoint(const char *site)
{
    FaultInjector &inj = FaultInjector::instance();
    if (!inj.armed())
        return false;
    return inj.fire(site);
}

} // namespace gpuscale

#endif // GPUSCALE_BASE_FAULT_HH
