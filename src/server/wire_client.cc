#include "server/wire_client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

namespace dise::server {

WireClient::~WireClient()
{
    close();
}

bool
WireClient::connectTo(uint16_t port, std::string *err)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        if (err)
            *err = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    fd_.store(fd);
    {
        std::lock_guard<std::mutex> lk(replyMu_);
        dead_ = false;
        replies_.clear();
    }
    reader_ = std::thread([this] { readerLoop(); });
    return true;
}

void
WireClient::close()
{
    int fd = fd_.exchange(-1);
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
    if (reader_.joinable())
        reader_.join();
    if (fd >= 0)
        ::close(fd);
}

void
WireClient::readerLoop()
{
    std::string buf;
    char chunk[4096];
    for (;;) {
        int fd = fd_.load();
        if (fd < 0)
            break;
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<size_t>(n));
        size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            if (line == "event" || line.rfind("event ", 0) == 0) {
                if (onEvent_)
                    onEvent_(line);
                continue;
            }
            std::lock_guard<std::mutex> lk(replyMu_);
            replies_.push_back(std::move(line));
            replyCv_.notify_all();
        }
    }
    std::lock_guard<std::mutex> lk(replyMu_);
    dead_ = true;
    replyCv_.notify_all();
}

bool
WireClient::call(const std::string &line, Response &resp, std::string *err)
{
    std::lock_guard<std::mutex> call(callMu_);
    int fd = fd_.load();
    if (fd < 0) {
        if (err)
            *err = "not connected";
        return false;
    }
    std::string out = line + "\n";
    size_t off = 0;
    while (off < out.size()) {
        ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0) {
            if (err)
                *err = std::string("send: ") + std::strerror(errno);
            return false;
        }
        off += static_cast<size_t>(n);
    }
    std::unique_lock<std::mutex> lk(replyMu_);
    // Generous bound: selecting a hibernated session replays its whole
    // history before the answer. A wedged peer still cannot hang us
    // forever.
    if (!replyCv_.wait_for(lk, std::chrono::seconds(120), [this] {
            return dead_ || !replies_.empty();
        })) {
        if (err)
            *err = "reply timeout";
        return false;
    }
    if (replies_.empty()) {
        if (err)
            *err = "connection closed";
        return false;
    }
    std::string reply = std::move(replies_.front());
    replies_.pop_front();
    lk.unlock();
    return decodeResponse(reply, resp, err);
}

bool
WireClient::call(Request req, Response &resp, std::string *err)
{
    if (!req.seq)
        req.seq = seq_.fetch_add(1);
    return call(encodeRequest(req), resp, err);
}

} // namespace dise::server
