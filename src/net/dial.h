// Non-blocking TCP socket helpers. The dial pair is shared by the blocking
// Client (which starts a connect and polls it to completion) and the
// cluster router's shard links (which keep many connects in flight on one
// event loop and learn the outcome from writability); Listen/Accept are
// the listening side of net::Server and cluster::Router.
//
// The dial split matches the kernel's state machine: StartConnect() returns a
// non-blocking socket whose three-way handshake may still be in progress;
// once the fd polls writable, FinishConnect() reads SO_ERROR to learn
// whether the handshake succeeded.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace upa::net {

/// Creates a non-blocking TCP socket and initiates a connect to host:port
/// (host must be a numeric IPv4 address). Returns the fd with the connect
/// either already established or in progress; on failure no fd is leaked.
Result<int> StartConnect(const std::string& host, uint16_t port);

/// After `fd` (from StartConnect) polls writable: reports whether the
/// handshake succeeded. Does not close the fd on failure — the caller owns
/// it either way.
Status FinishConnect(int fd);

/// A bound, listening, non-blocking socket and the port it got.
struct Listening {
  int fd = -1;
  uint16_t port = 0;
};

/// Binds host:port (numeric IPv4; port 0 picks an ephemeral one) with
/// SO_REUSEADDR and listens. On failure no fd is leaked.
Result<Listening> Listen(const std::string& host, uint16_t port);

/// Accepts one pending connection on a listening fd from Listen() as a
/// non-blocking TCP_NODELAY socket. Returns -1 when none is pending (or
/// accept failed transiently; the listener stays usable).
int Accept(int listen_fd);

}  // namespace upa::net
