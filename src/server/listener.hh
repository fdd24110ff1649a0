/**
 * @file
 * The debug server's loopback TCP listener.
 *
 * A Listener binds 127.0.0.1, accepts in a background thread (backing
 * off briefly when accept fails, e.g. EMFILE under fd pressure), and
 * serves every connection on its own thread: TCP_NODELAY, then a sniff
 * of the first byte — GDB-RSP clients open with an ack, a packet or an
 * interrupt ('+', '-', '$', 0x03), typed-wire clients with a verb
 * letter. Finished connection threads are reaped as new clients
 * arrive.
 */

#ifndef DISE_SERVER_LISTENER_HH
#define DISE_SERVER_LISTENER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace dise::server {

class Listener
{
  public:
    /** Serves one connection (@p rsp: it speaks GDB-RSP). The listener
     *  closes @p fd afterwards. */
    using ServeFn = std::function<void(int fd, bool rsp)>;

    Listener() = default;
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Bind 127.0.0.1:@p port (0 = ephemeral) and start accepting.
     *  Returns false on socket errors. */
    bool start(uint16_t port, ServeFn serve);
    /** The bound port (valid after start()). */
    uint16_t port() const { return port_; }
    /** Connections accepted so far. */
    uint64_t accepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }
    /** Block until the accept loop ends (another thread's stop()). */
    void wait();
    /** Close the listening socket and join the accept loop. */
    void stopAccepting();
    /** Hang up every live connection, run @p unblock (which must wake
     *  any connection thread blocked on something other than its
     *  socket), then join every connection thread. */
    void hangUp(const std::function<void()> &unblock = {});

  private:
    void acceptLoop(int listenFd);

    ServeFn serve_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> accepted_{0};

    /** One live (or just-finished, awaiting reap) connection. */
    struct Conn
    {
        int fd = -1; ///< -1 once the connection closed it
        std::atomic<bool> done{false};
        std::thread th;
    };
    std::mutex connMu_;
    /** Stable-iterator storage: each connection thread holds an
     *  iterator to its own entry. */
    std::list<Conn> conns_;
    std::thread acceptThread_;
};

/**
 * Calls @p onLine for every '\n'-terminated line read from @p fd (a
 * trailing '\r' stripped, empty lines skipped) until EOF, a read error,
 * @p onLine returning false, or 8 MiB buffered without a newline (a
 * hostile peer must not grow the buffer without bound).
 */
void readLines(int fd, const std::function<bool(std::string &line)> &onLine);

} // namespace dise::server

#endif // DISE_SERVER_LISTENER_HH
