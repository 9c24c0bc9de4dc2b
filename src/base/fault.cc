/**
 * @file
 * FaultInjector implementation.
 */

#include "fault.hh"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "logging.hh"
#include "random.hh"
#include "string_util.hh"

namespace gpuscale {

namespace {

/**
 * True when `site` is covered by `pattern` — an exact match, or a
 * prefix match when the pattern ends in '*'.
 */
bool
siteMatches(const std::string &pattern, const char *site)
{
    if (!pattern.empty() && pattern.back() == '*') {
        return std::string_view(site).substr(0, pattern.size() - 1) ==
               std::string_view(pattern).substr(0, pattern.size() - 1);
    }
    return pattern == site;
}

std::optional<FaultKind>
parseFaultKind(std::string_view name)
{
    if (name == "throw")
        return FaultKind::Exception;
    if (name == "io")
        return FaultKind::IoError;
    if (name == "delay")
        return FaultKind::Delay;
    return std::nullopt;
}

} // namespace

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Exception:
        return "throw";
      case FaultKind::IoError:
        return "io";
      case FaultKind::Delay:
        return "delay";
    }
    return "?";
}

std::optional<std::vector<FaultSpec>>
parseFaultPlan(const std::string &text, std::string *error)
{
    auto fail = [&](std::string why) {
        if (error != nullptr)
            *error = std::move(why);
        return std::nullopt;
    };

    std::vector<FaultSpec> plan;
    for (const std::string &entry : split(text, ',')) {
        const std::string_view trimmed = trim(entry);
        if (trimmed.empty())
            continue;
        const auto fields = split(trimmed, ':');
        if (fields.size() < 2 || fields.size() > 4) {
            return fail(strprintf(
                "fault entry '%s' is not site:rate[:kind[:delay_ms]]",
                std::string(trimmed).c_str()));
        }

        FaultSpec spec;
        spec.site = std::string(trim(fields[0]));
        if (spec.site.empty())
            return fail("fault entry has an empty site name");

        const std::optional<double> rate = parseDouble(fields[1]);
        if (!rate || *rate < 0.0 || *rate > 1.0) {
            return fail(strprintf(
                "fault rate '%s' for site %s is not in [0, 1]",
                fields[1].c_str(), spec.site.c_str()));
        }
        spec.rate = *rate;

        if (fields.size() >= 3) {
            const auto kind = parseFaultKind(trim(fields[2]));
            if (!kind) {
                return fail(strprintf(
                    "fault kind '%s' for site %s is not "
                    "throw/io/delay",
                    fields[2].c_str(), spec.site.c_str()));
            }
            spec.kind = *kind;
        }

        if (fields.size() == 4) {
            if (spec.kind != FaultKind::Delay) {
                return fail(strprintf(
                    "site %s: delay_ms only applies to kind 'delay'",
                    spec.site.c_str()));
            }
            const std::optional<double> delay =
                parseMilliseconds(fields[3]);
            if (!delay) {
                return fail(strprintf(
                    "fault delay '%s' for site %s is not a number of "
                    "milliseconds in [0, one day]",
                    fields[3].c_str(), spec.site.c_str()));
            }
            spec.delay_ms = *delay;
        }
        plan.push_back(std::move(spec));
    }
    return plan;
}

/** One armed spec plus its private, seeded draw stream. */
struct FaultInjector::ArmedSpec {
    FaultSpec spec;
    Rng rng{0};
};

/**
 * All mutable injector state, behind one mutex.  Probes take the lock
 * only after the relaxed armed_ gate passed, i.e. only during an
 * injection campaign, where determinism matters more than scaling.
 */
class FaultInjector::Impl
{
  public:
    static Impl &
    instance()
    {
        static Impl impl;
        return impl;
    }

    // gpuscale-lint: allow(concurrency): serializes the per-site draw
    // streams; probes from parallelFor workers race otherwise.
    std::mutex mutex;
    std::vector<ArmedSpec> plan;
    std::array<std::atomic<uint64_t>, 3> fired_by_kind{};
    std::atomic<FaultObserver> observer{nullptr};
};

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(const std::vector<FaultSpec> &plan, uint64_t seed)
{
    Impl &impl = Impl::instance();
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.plan.clear();
    impl.plan.reserve(plan.size());
    // Seed streams by spec index so each site's pattern is
    // independent of the others and stable across runs.
    Rng root(seed ^ 0x6661756c74ull); // "fault"
    for (const FaultSpec &spec : plan) {
        ArmedSpec armed;
        armed.spec = spec;
        armed.rng = root.split();
        impl.plan.push_back(std::move(armed));
    }
    for (auto &count : impl.fired_by_kind)
        count.store(0, std::memory_order_relaxed);
    armed_.store(!impl.plan.empty(), std::memory_order_relaxed);
}

void
FaultInjector::armFromEnv()
{
    const char *text = std::getenv("GPUSCALE_FAULTS");
    if (text == nullptr || *text == '\0')
        return;

    std::string error;
    const auto plan = parseFaultPlan(text, &error);
    if (!plan) {
        std::fprintf(stderr, "GPUSCALE_FAULTS: %s\n", error.c_str());
        std::exit(2);
    }

    uint64_t seed = 0;
    if (const char *seed_text = std::getenv("GPUSCALE_FAULT_SEED")) {
        const std::optional<uint64_t> parsed =
            parseInteger<uint64_t>(seed_text);
        if (!parsed) {
            std::fprintf(stderr,
                         "GPUSCALE_FAULT_SEED: '%s' is not a "
                         "non-negative integer\n",
                         seed_text);
            std::exit(2);
        }
        seed = *parsed;
    }

    arm(*plan, seed);
    inform("fault injection armed: %zu spec(s), seed %llu",
           plan->size(), static_cast<unsigned long long>(seed));
}

void
FaultInjector::disarm()
{
    Impl &impl = Impl::instance();
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.plan.clear();
    armed_.store(false, std::memory_order_relaxed);
}

bool
FaultInjector::fire(const char *site)
{
    Impl &impl = Impl::instance();
    bool io_error = false;
    double sleep_ms = 0.0;
    const FaultSpec *thrown = nullptr;

    {
        std::lock_guard<std::mutex> lock(impl.mutex);
        for (ArmedSpec &armed : impl.plan) {
            if (!siteMatches(armed.spec.site, site))
                continue;
            // Every matching probe consumes exactly one draw, fired
            // or not, so the pattern depends only on the probe
            // ordinal within this site's stream.
            if (armed.rng.uniform() >= armed.spec.rate)
                continue;
            impl.fired_by_kind[static_cast<size_t>(armed.spec.kind)]
                .fetch_add(1, std::memory_order_relaxed);
            if (FaultObserver obs =
                    impl.observer.load(std::memory_order_acquire))
                obs(armed.spec.kind, site);
            switch (armed.spec.kind) {
              case FaultKind::Exception:
                thrown = &armed.spec;
                break;
              case FaultKind::IoError:
                io_error = true;
                break;
              case FaultKind::Delay:
                sleep_ms += armed.spec.delay_ms;
                break;
            }
            if (thrown != nullptr)
                break;
        }
    }

    // Act outside the lock: a sleeping or throwing probe must not
    // stall every other worker's draws.
    if (sleep_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
    }
    if (thrown != nullptr) {
        throw FaultInjectedError(strprintf(
            "injected fault at %s (site %s)", site,
            thrown->site.c_str()));
    }
    return io_error;
}

uint64_t
FaultInjector::fired(FaultKind kind) const
{
    return Impl::instance()
        .fired_by_kind[static_cast<size_t>(kind)]
        .load(std::memory_order_relaxed);
}

uint64_t
FaultInjector::firedTotal() const
{
    uint64_t total = 0;
    for (const auto &count : Impl::instance().fired_by_kind)
        total += count.load(std::memory_order_relaxed);
    return total;
}

void
FaultInjector::setObserver(FaultObserver observer)
{
    Impl::instance().observer.store(observer,
                                    std::memory_order_release);
}

} // namespace gpuscale
