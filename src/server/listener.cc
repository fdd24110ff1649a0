#include "server/listener.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

namespace dise::server {

Listener::~Listener()
{
    stopAccepting();
    hangUp();
}

bool
Listener::start(uint16_t port, ServeFn serve)
{
    serve_ = std::move(serve);
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return false;
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    socklen_t len = sizeof addr;
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(listenFd_, 16) < 0 ||
        ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    port_ = ntohs(addr.sin_port);

    // The loop gets its own copy of the fd: stopAccepting() clears
    // listenFd_ from the owner thread, and sharing the member would race.
    acceptThread_ =
        std::thread([this, fd = listenFd_] { acceptLoop(fd); });
    return true;
}

void
Listener::wait()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
}

void
Listener::stopAccepting()
{
    if (stopping_.exchange(true))
        return;
    if (listenFd_ >= 0) {
        ::shutdown(listenFd_, SHUT_RDWR);
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
}

void
Listener::hangUp(const std::function<void()> &unblock)
{
    {
        std::lock_guard<std::mutex> lk(connMu_);
        for (Conn &c : conns_)
            if (c.fd >= 0)
                ::shutdown(c.fd, SHUT_RDWR);
    }
    if (unblock)
        unblock();
    // No new entries can appear (the accept loop is gone); joining
    // outside the lock lets each connection finish its epilogue.
    for (Conn &c : conns_)
        if (c.th.joinable())
            c.th.join();
    conns_.clear();
}

void
Listener::acceptLoop(int listenFd)
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                return;
            // Persistent failures (EMFILE under fd pressure) must not
            // busy-spin a core; back off briefly and retry.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(connMu_);
        // Reap finished connections so a long-lived daemon does not
        // accumulate one dead (joinable) thread per client. A done
        // entry's thread has already left its epilogue's critical
        // section, so joining under connMu_ cannot deadlock.
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (it->done.load(std::memory_order_acquire)) {
                it->th.join();
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
        conns_.emplace_back();
        auto self = std::prev(conns_.end());
        self->fd = fd;
        self->th = std::thread([this, fd, self] {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            char first = 0;
            if (::recv(fd, &first, 1, MSG_PEEK) > 0)
                serve_(fd, first == '+' || first == '-' || first == '$' ||
                               first == '\x03');
            {
                // Retire the fd entry and close in one critical
                // section: closing first would let the OS recycle the
                // number while hangUp() still sees it and shutdown()s
                // an unrelated descriptor.
                std::lock_guard<std::mutex> done(connMu_);
                self->fd = -1;
                ::close(fd);
            }
            self->done.store(true, std::memory_order_release);
        });
    }
}

void
readLines(int fd, const std::function<bool(std::string &line)> &onLine)
{
    std::string buf;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0)
            return;
        buf.append(chunk, static_cast<size_t>(n));
        size_t start = 0, nl;
        while ((nl = buf.find('\n', start)) != std::string::npos) {
            std::string line = buf.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty() && !onLine(line))
                return;
        }
        buf.erase(0, start);
        if (buf.size() > (8u << 20))
            return;
    }
}

} // namespace dise::server
