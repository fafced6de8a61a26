#include "net/dial.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

namespace upa::net {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " + ::strerror(errno));
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// A non-blocking TCP socket, with `*addr` (zero-initialized by the caller)
/// set to the IPv4 address host:port; or an error, with no fd left open.
Result<int> OpenSocket(const std::string& host, uint16_t port,
                       sockaddr_in* addr) {
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host '" + host + "'");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  if (!SetNonBlocking(fd)) {
    Status st = ErrnoStatus("fcntl(O_NONBLOCK)");
    ::close(fd);
    return st;
  }
  return fd;
}

}  // namespace

Result<int> StartConnect(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  Result<int> fd = OpenSocket(host, port, &addr);
  if (!fd.ok()) return fd;
  int rc = ::connect(fd.value(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status st = ErrnoStatus("connect");
    ::close(fd.value());
    return st;
  }
  SetNoDelay(fd.value());
  return fd;
}

Status FinishConnect(int fd) {
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
    return ErrnoStatus("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::Internal(std::string("connect: ") + ::strerror(err));
  }
  return Status::Ok();
}

Result<Listening> Listen(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  Result<int> fd = OpenSocket(host, port, &addr);
  if (!fd.ok()) return fd.status();
  Listening out;
  out.fd = fd.value();
  int one = 1;
  ::setsockopt(out.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  Status st = Status::Ok();
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::bind(out.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    st = ErrnoStatus("bind");
  } else if (::listen(out.fd, 128) != 0) {
    st = ErrnoStatus("listen");
  } else if (::getsockname(out.fd, reinterpret_cast<sockaddr*>(&bound),
                           &bound_len) != 0) {
    st = ErrnoStatus("getsockname");
  }
  if (!st.ok()) {
    ::close(out.fd);
    return st;
  }
  out.port = ntohs(bound.sin_port);
  return out;
}

int Accept(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return -1;  // backlog empty (EAGAIN) or a transient failure
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    SetNoDelay(fd);
    return fd;
  }
}

}  // namespace upa::net
