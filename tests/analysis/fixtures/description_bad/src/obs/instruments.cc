/** Fixture: instrument registrations with and without descriptions. */
#include <string>

struct Registry {
    static Registry &instance();
    int &counter(const std::string &name,
                 const std::string &desc = "");
    int &gauge(const std::string &name,
               const std::string &desc = "");
    int &histogram(const std::string &name,
                   const std::string &desc = "");
};

void
registerInstruments(const std::string &runtime_desc)
{
    // Flagged: no description argument at all.
    Registry::instance().counter("bare.counter");
    // Flagged: a description that says nothing.
    Registry::instance().gauge("empty.gauge", "");
    // Flagged: a second bare counter.
    Registry::instance().counter("bare.sharded");

    // Fine: a real description.
    Registry::instance().histogram("good.hist",
                                   "seconds per journal flush");
    // Fine: adjacent-literal concatenation is one description.
    Registry::instance().histogram("concat.hist",
                                   "seconds per "
                                   "model estimate");
    // Fine: a computed description is out of the rule's reach.
    Registry::instance().counter("computed.desc", runtime_desc);
    // gpuscale-lint: allow(description): legacy key pending rename
    Registry::instance().counter("legacy.counter");
}
