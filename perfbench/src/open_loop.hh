/**
 * @file
 * Open-loop request generator for gpuscaled: one thread, a few Unix
 * socket connections, requests sent on a fixed schedule whether or
 * not earlier ones were answered.
 */

#ifndef PERFBENCH_OPEN_LOOP_HH
#define PERFBENCH_OPEN_LOOP_HH

#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench {

/** One scheduled request: a complete newline-terminated frame. */
struct ScheduledFrame {
    int64_t due_ns = 0; ///< offset from the schedule start
    std::string frame;
};

/** Classify an answer frame: ok, typed error, or garbage. */
Outcome classifyFrame(const std::string &frame);

class OpenLoopClient
{
  public:
    /** Connect `connections` sockets to the daemon at `socket_path`. */
    OpenLoopClient(const std::string &socket_path, size_t connections);
    ~OpenLoopClient();

    OpenLoopClient(const OpenLoopClient &) = delete;
    OpenLoopClient &operator=(const OpenLoopClient &) = delete;

    /** True when every connection is up. */
    bool connected() const;

    /**
     * Send frames[i] at start_ns + frames[i].due_ns, round-robin over
     * the connections, and read answers as they arrive.  After the
     * last send, waits up to `drain_s` for outstanding answers; the
     * rest time out.  timings[i] and answers[i] describe frames[i];
     * `keep(i)` says whether to keep the answer's text.
     */
    void run(const std::vector<ScheduledFrame> &frames, int64_t start_ns,
             double drain_s, const std::vector<bool> &keep,
             std::vector<RequestTiming> &timings,
             std::vector<std::string> &answers);

  private:
    struct Conn;
    std::vector<Conn> conns_;
};

} // namespace perfbench

#endif // PERFBENCH_OPEN_LOOP_HH
