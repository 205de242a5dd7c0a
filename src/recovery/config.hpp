// Crash-recovery knobs, nested into ServerConfig as `recovery`. Off by
// default: the seed server's behavior (and cost profile) is unchanged
// unless a harness opts in.
#pragma once

#include <cstdint>
#include <string>

namespace qserv::recovery {

struct Config {
  // Master switch: journal inbound traffic, record per-frame world
  // digests plus a 32-bit hash per entity (so divergence reports name the
  // first offending entity) and take periodic checkpoints. Everything
  // below is inert when false.
  bool enabled = false;

  // Frames between checkpoints (0 = never automatically; a black-box dump
  // still captures one on demand). The journal ring must span at least
  // one interval for replay verification to find a usable anchor.
  uint32_t checkpoint_interval = 64;

  // Ring bound on retained per-frame journals ("the last N frames of
  // input are always in memory").
  uint32_t journal_frames = 2048;

  // Where black-box dumps land; "" = current directory. An invariant
  // violation or a watchdog stall verdict always dumps.
  std::string dump_dir;
};

}  // namespace qserv::recovery
