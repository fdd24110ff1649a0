/**
 * @file
 * A minimal blocking GDB-RSP client over one loopback TCP socket —
 * the counterpart of DebugServer's RSP path, used by the scripted smoke
 * job, the protocol tests, and any in-tree tooling that needs to drive
 * a session the way a remote debugger would. One shared implementation
 * keeps the framing/ack/stop-reply conventions from drifting between
 * the test suite and the CI client.
 */

#ifndef DISE_RSP_CLIENT_HH
#define DISE_RSP_CLIENT_HH

#include <cstdint>
#include <string>

#include "rsp/packet.hh"

namespace dise::rsp {

class RspClient
{
  public:
    RspClient() = default;
    ~RspClient();

    RspClient(const RspClient &) = delete;
    RspClient &operator=(const RspClient &) = delete;

    /** Connect to 127.0.0.1:@p port. Every read carries
     *  @p timeoutSeconds so a hung server fails instead of wedging. */
    bool connectTo(uint16_t port, unsigned timeoutSeconds = 10);

    /**
     * Send one packet and block for the reply payload. Returns
     * "<write-error>" / "<timeout-or-eof>" sentinels on transport
     * failure (never valid payloads, which are '$'-framed on the
     * wire).
     */
    std::string exchange(const std::string &payload);

    void close();
    bool connected() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    PacketDecoder dec_;
};

/** Parse the PC (reported as register 0x20) out of a T-stop reply. */
bool stopReplyPc(const std::string &reply, uint64_t &pc);

} // namespace dise::rsp

#endif // DISE_RSP_CLIENT_HH
