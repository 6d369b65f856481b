// fake_repserved — a scripted stand-in for repserved, used by
// test_serve_client.py to check that perfbench_cpp serve-client fails a run
// on replies the real daemon should never send.
//
//   fake_repserved --health steady|regress
//
// Prints "fake_repserved: listening on 127.0.0.1:PORT", then answers every
// request on every connection with a well-formed reply built by the
// library's own encoders. With --health regress the second HEALTH reply
// carries a smaller published_epoch than the first; every other reply is
// the same in both modes. Exits once every accepted connection has closed,
// or after 120 s.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

using namespace gt::serve;

namespace {

struct Peer {
  int fd = -1;
  FrameParser parser;
  std::vector<std::uint8_t> tx;
};

bool send_all(int fd, std::vector<std::uint8_t>& tx) {
  std::size_t off = 0;
  while (off < tx.size()) {
    pollfd p{fd, POLLOUT, 0};
    ::poll(&p, 1, 1000);
    const ssize_t w = ::send(fd, tx.data() + off, tx.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno != EAGAIN && errno != EINTR) return false;
    if (w > 0) off += static_cast<std::size_t>(w);
  }
  tx.clear();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::strcmp(argv[1], "--health") != 0 ||
      (std::strcmp(argv[2], "steady") != 0 && std::strcmp(argv[2], "regress") != 0)) {
    std::fprintf(stderr, "usage: fake_repserved --health steady|regress\n");
    return 2;
  }
  const bool regress = std::strcmp(argv[2], "regress") == 0;

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t alen = sizeof addr;
  if (lfd < 0 || ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 8) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    std::perror("fake_repserved");
    return 1;
  }
  std::printf("fake_repserved: listening on 127.0.0.1:%u\n", ntohs(addr.sin_port));
  std::fflush(stdout);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Peer> peers;
  std::size_t open = 0;
  std::uint64_t ingested = 0, health_replies = 0;
  std::vector<std::uint8_t> rx(64 * 1024);
  while (std::chrono::steady_clock::now() - t0 < std::chrono::seconds(120)) {
    std::vector<pollfd> fds{{lfd, POLLIN, 0}};
    for (const Peer& p : peers) fds.push_back({p.fd, POLLIN, 0});
    ::poll(fds.data(), fds.size(), 100);
    if (fds[0].revents & POLLIN) {
      Peer p;
      p.fd = ::accept(lfd, nullptr, nullptr);
      if (p.fd >= 0) {
        peers.push_back(std::move(p));
        ++open;
      }
    }
    for (std::size_t i = 0; i < peers.size(); ++i) {
      Peer& p = peers[i];
      if (p.fd < 0 || !(fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const ssize_t r = ::recv(p.fd, rx.data(), rx.size(), 0);
      if (r <= 0 || !p.parser.feed(rx.data(), static_cast<std::size_t>(r))) {
        ::close(p.fd);
        p.fd = -1;
        --open;
        continue;
      }
      FrameParser::Frame fr;
      while (p.parser.next(&fr)) {
        switch (static_cast<Op>(fr.header.opcode)) {
          case Op::kBatchLookup: {
            const std::uint32_t count = get_u32(fr.payload);
            encode_batch_resp_header(p.tx, count);
            for (std::uint32_t k = 0; k < count; ++k) append_batch_entry(p.tx, 1, 1.0 / 512);
            break;
          }
          case Op::kIngest:
            encode_ingest_resp(p.tx, ++ingested);
            break;
          case Op::kHealth: {
            HealthPayload h;
            const std::uint64_t j = health_replies++;
            h.published_epoch = regress && j == 1 ? 1 : j + 2;
            h.ingest_enqueued = ingested;
            encode_health_resp(p.tx, h);
            break;
          }
          case Op::kStats:
            encode_stats_resp(p.tx, StatsPayload{});
            break;
          case Op::kMetrics: {
            MetricsPayload m;
            m.counters.assign(kMetricsCounterCount, 0);
            m.hists.resize(kMetricsHistogramCount);
            encode_metrics_resp(p.tx, m);
            break;
          }
          default:
            break;
        }
      }
      if (!send_all(p.fd, p.tx)) {
        ::close(p.fd);
        p.fd = -1;
        --open;
      }
    }
    if (!peers.empty() && open == 0) break;
  }
  ::close(lfd);
  return 0;
}
