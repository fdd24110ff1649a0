#include "rsp/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dise::rsp {

RspClient::~RspClient()
{
    close();
}

bool
RspClient::connectTo(uint16_t port, unsigned timeoutSeconds)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    timeval tv{static_cast<time_t>(timeoutSeconds), 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    // Like gdb's ser-tcp: the `+` ack and the next packet are two small
    // writes, which Nagle would hold for the peer's delayed ACK.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        close();
        return false;
    }
    return true;
}

std::string
RspClient::exchange(const std::string &payload)
{
    std::string wire = frame(payload);
    if (::write(fd_, wire.data(), wire.size()) !=
        static_cast<ssize_t>(wire.size()))
        return "<write-error>";
    ItemKind kind;
    std::string reply;
    char buf[4096];
    for (;;) {
        while (dec_.next(kind, reply)) {
            if (kind == ItemKind::Packet) {
                // Ack receipt, as a well-behaved RSP peer must.
                (void)!::write(fd_, "+", 1);
                return reply;
            }
        }
        ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n <= 0)
            return "<timeout-or-eof>";
        dec_.feed(buf, static_cast<size_t>(n));
    }
}

void
RspClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
stopReplyPc(const std::string &reply, uint64_t &pc)
{
    size_t pos = reply.find("20:");
    if (pos == std::string::npos || pos + 3 + 16 > reply.size())
        return false;
    return parseHexLe(reply.substr(pos + 3, 16), pc);
}

} // namespace dise::rsp
