/**
 * @file
 * The typed-wire client: blocking calls over one TCP connection, with
 * a reader thread that demultiplexes pushed events.
 *
 * The typed line protocol is request/response, but a subscribed
 * connection also receives server-initiated `event` lines at any
 * moment. WireClient owns one socket and one reader thread: the
 * reader classifies every inbound line, routing `event` lines to a
 * registered handler and everything else to the caller blocked in
 * call(). Calls are serialized under a mutex, so the protocol's
 * in-order reply guarantee is all the matching needed — no sequence
 * bookkeeping on the read side — and every event pushed ahead of a
 * reply has reached the handler by the time that call returns.
 *
 * The tests and the smoke tools speak the typed wire through this one
 * client. connectTo() tries once; a caller waiting for a server to
 * come up retries it.
 */

#ifndef DISE_SERVER_WIRE_CLIENT_HH
#define DISE_SERVER_WIRE_CLIENT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "session/protocol.hh"

namespace dise::server {

class WireClient
{
  public:
    /** Called from the reader thread with each raw `event` line. */
    using EventHandler = std::function<void(const std::string &line)>;

    WireClient() = default;
    ~WireClient();

    WireClient(const WireClient &) = delete;
    WireClient &operator=(const WireClient &) = delete;

    /** Install the event handler (before connectTo; not thread-safe
     *  against a live reader). */
    void setEventHandler(EventHandler fn) { onEvent_ = std::move(fn); }

    /** Connect to 127.0.0.1:port and start the reader. */
    bool connectTo(uint16_t port, std::string *err = nullptr);

    /** Shut the socket down and join the reader thread. */
    void close();

    /** One request line out, its decoded response back. Calls
     *  serialize; event lines never surface here. The call succeeds
     *  even when the response carries status=error — check resp.ok();
     *  false means the transport failed (the server hung up or never
     *  answered) or the reply did not decode. */
    bool call(const std::string &line, Response &resp,
              std::string *err = nullptr);
    /** The typed form: stamps a fresh seq when @p req has none. */
    bool call(Request req, Response &resp, std::string *err = nullptr);

  private:
    void readerLoop();

    std::atomic<int> fd_{-1};
    std::thread reader_;
    EventHandler onEvent_;

    std::mutex callMu_; ///< one round trip in flight at a time

    std::mutex replyMu_;
    std::condition_variable replyCv_;
    std::deque<std::string> replies_;
    bool dead_ = false;

    std::atomic<uint64_t> seq_{1};
};

} // namespace dise::server

#endif // DISE_SERVER_WIRE_CLIENT_HH
