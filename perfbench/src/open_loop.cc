#include "open_loop.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>

#include "spans.hh"

namespace perfbench {

struct OpenLoopClient::Conn {
    int fd = -1;
    std::string rx;
    /** Frames queued but not yet accepted by the socket. */
    std::string tx;
    /** Indices of sent, unanswered frames, in send order. */
    std::deque<size_t> inflight;
};

Outcome
classifyFrame(const std::string &frame)
{
    // Frames are rendered {"id":N,"ok":...}; the first "ok" member is
    // the verdict.
    const size_t at = frame.find("\"ok\":");
    if (frame.empty() || frame.front() != '{' || frame.back() != '}' ||
        at == std::string::npos)
    {
        return Outcome::Failed;
    }
    if (frame.compare(at + 5, 4, "true") == 0)
        return Outcome::Ok;
    if (frame.compare(at + 5, 5, "false") == 0)
        return Outcome::Refused;
    return Outcome::Failed;
}

OpenLoopClient::OpenLoopClient(const std::string &socket_path,
                               size_t connections)
    : conns_(connections)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
        return;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
    for (Conn &c : conns_) {
        c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (c.fd < 0)
            continue;
        // Non-blocking: a generator blocked in send() while the
        // daemon blocks writing answers nobody reads would deadlock.
        if (::connect(c.fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0 ||
            ::fcntl(c.fd, F_SETFL, O_NONBLOCK) != 0)
        {
            ::close(c.fd);
            c.fd = -1;
        }
    }
}

OpenLoopClient::~OpenLoopClient()
{
    for (Conn &c : conns_) {
        if (c.fd >= 0)
            ::close(c.fd);
    }
}

bool
OpenLoopClient::connected() const
{
    for (const Conn &c : conns_) {
        if (c.fd < 0)
            return false;
    }
    return !conns_.empty();
}

void
OpenLoopClient::run(const std::vector<ScheduledFrame> &frames,
                    int64_t start_ns, double drain_s,
                    const std::vector<bool> &keep,
                    std::vector<RequestTiming> &timings,
                    std::vector<std::string> &answers)
{
    const size_t n = frames.size();
    timings.assign(n, RequestTiming{});
    answers.assign(n, std::string());
    for (size_t i = 0; i < n; ++i)
        timings[i].due_ns = start_ns + frames[i].due_ns;

    // A dead connection fails everything it still owed; returns how
    // many that was.
    auto drop = [&](Conn &c) {
        const size_t owed = c.inflight.size();
        for (const size_t i : c.inflight) {
            timings[i].outcome = Outcome::Failed;
            timings[i].done_ns = nowNs();
        }
        c.inflight.clear();
        c.tx.clear();
        ::close(c.fd);
        c.fd = -1;
        return owed;
    };
    // Hand the socket what it takes now; false on a dead connection.
    auto flush = [](Conn &c) {
        while (!c.tx.empty()) {
            const ssize_t w =
                ::send(c.fd, c.tx.data(), c.tx.size(), MSG_NOSIGNAL);
            if (w < 0 && errno == EINTR)
                continue;
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return true;
            if (w <= 0)
                return false;
            c.tx.erase(0, static_cast<size_t>(w));
        }
        return true;
    };

    std::vector<pollfd> fds(conns_.size());
    char buf[1 << 16];
    size_t next = 0;
    size_t rr = 0;
    size_t outstanding = 0;
    int64_t drain_deadline = 0;
    for (;;) {
        int64_t now = nowNs();
        while (next < n && timings[next].due_ns <= now) {
            // Round-robin over live connections; with none left the
            // request fails at its due time.
            Conn *target = nullptr;
            for (size_t k = 0; k < conns_.size() && target == nullptr;
                 ++k)
            {
                Conn &c = conns_[(rr + k) % conns_.size()];
                if (c.fd >= 0)
                    target = &c;
            }
            ++rr;
            RequestTiming &t = timings[next];
            t.sent_ns = now;
            if (target != nullptr) {
                target->tx += frames[next].frame;
                target->inflight.push_back(next);
                ++outstanding;
                if (!flush(*target))
                    outstanding -= drop(*target);
            } else {
                t.outcome = Outcome::Failed;
                t.done_ns = nowNs();
            }
            ++next;
            now = nowNs();
        }
        if (next == n) {
            if (drain_deadline == 0)
                drain_deadline = now + static_cast<int64_t>(drain_s * 1e9);
            if (outstanding == 0 || now >= drain_deadline)
                break;
        }

        // Sleep until the next send is due, spinning its last ~100 us
        // (the kernel's timer slack would otherwise make every send
        // late).
        int64_t wait_ns = next < n ? timings[next].due_ns - now
                                   : drain_deadline - now;
        wait_ns = wait_ns > 150000 ? wait_ns - 100000 : 0;
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
        ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
        for (size_t k = 0; k < conns_.size(); ++k) {
            fds[k].fd = conns_[k].fd;
            fds[k].events = static_cast<short>(
                POLLIN | (conns_[k].tx.empty() ? 0 : POLLOUT));
            fds[k].revents = 0;
        }
        const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (ready <= 0)
            continue;
        for (size_t k = 0; k < conns_.size(); ++k) {
            Conn &c = conns_[k];
            if (c.fd < 0 || fds[k].revents == 0)
                continue;
            if ((fds[k].revents & POLLOUT) != 0 && !flush(c)) {
                outstanding -= drop(c);
                continue;
            }
            if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            const ssize_t r = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
            if (r < 0 && (errno == EAGAIN || errno == EINTR))
                continue;
            if (r <= 0) {
                outstanding -= drop(c);
                continue;
            }
            const int64_t arrived = nowNs();
            c.rx.append(buf, static_cast<size_t>(r));
            size_t line_start = 0;
            for (size_t nl = c.rx.find('\n'); nl != std::string::npos;
                 nl = c.rx.find('\n', line_start))
            {
                if (c.inflight.empty())
                    break; // an answer nobody asked for; ignore it
                const size_t i = c.inflight.front();
                c.inflight.pop_front();
                --outstanding;
                std::string frame = c.rx.substr(line_start, nl - line_start);
                timings[i].done_ns = arrived;
                timings[i].outcome = classifyFrame(frame);
                if (keep[i])
                    answers[i] = std::move(frame);
                line_start = nl + 1;
            }
            c.rx.erase(0, line_start);
        }
    }
    // Whatever is still outstanding keeps Outcome::TimedOut.
}

} // namespace perfbench
