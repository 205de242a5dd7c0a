// World-state digests for deterministic replay: an FNV-1a 64 hash over
// every active entity in id order (float fields hashed by bit pattern, so
// "bit-identical" means exactly that), plus the free-id stack and world
// RNG state — allocator or RNG drift shows up the frame it happens, not
// frames later when it first moves an entity. The same hash seals the
// checkpoint and journal images (seal_content / content_sealed).
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/world.hpp"

namespace qserv::recovery {

inline constexpr uint64_t kFnvOffset64 = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime64 = 0x100000001b3ull;

inline uint64_t fnv1a64(const void* data, size_t n,
                        uint64_t h = kFnvOffset64) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime64;
  }
  return h;
}

// Whole-file content checksum shared by the checkpoint and journal
// codecs: the FNV-1a 64 of every byte before it, appended as a trailing
// little-endian u64. Last in the image, so a single-pass writer needs no
// reserved slot.
inline void seal_content(std::vector<uint8_t>& image) {
  const uint64_t h = fnv1a64(image.data(), image.size());
  for (int i = 0; i < 8; ++i)
    image.push_back(static_cast<uint8_t>(h >> (8 * i)));
}
// True iff the last 8 bytes of data[0, n) are the seal of the rest.
inline bool content_sealed(const uint8_t* data, size_t n) {
  if (n < 8) return false;
  uint64_t stored = 0;
  for (size_t i = 0; i < 8; ++i)
    stored |= static_cast<uint64_t>(data[n - 8 + i]) << (8 * i);
  return fnv1a64(data, n - 8) == stored;
}

struct EntityDigest {
  uint32_t id = 0;
  uint32_t hash = 0;
};

// Hash of one entity's replay-relevant state (excludes `cluster` and
// `areanode`, which are derived from origin/links and checked elsewhere).
uint32_t entity_digest(const sim::Entity& e);

// Frame digest over the whole world. If `per_entity` is non-null it is
// filled with (id, hash) for every active entity in id order — the data a
// divergence report uses to name the first offending entity.
uint64_t world_digest(const sim::World& w,
                      std::vector<EntityDigest>* per_entity = nullptr);

}  // namespace qserv::recovery
