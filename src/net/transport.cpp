#include "src/net/transport.hpp"

#include "src/util/check.hpp"

namespace qserv::net {

std::unique_ptr<Socket> Transport::open(uint16_t port) {
  OpenError err = OpenError::kNone;
  std::unique_ptr<Socket> s = try_open(port, &err);
  QSERV_CHECK_MSG(s != nullptr, "transport open failed (port collision?)");
  return s;
}

}  // namespace qserv::net
