// The sequential (single-threaded) QuakeWorld-style server: one thread,
// one UDP port, the §2.1 frame loop — select, world physics, drain
// requests, reply — with no synchronization anywhere.
#pragma once

#include "src/core/server.hpp"

namespace qserv::core {

class SequentialServer final : public Server {
 public:
  SequentialServer(vt::Platform& platform, net::Transport& net,
                   const spatial::GameMap& map, ServerConfig cfg);

  void start() override;

 private:
  void main_loop();
};

}  // namespace qserv::core
