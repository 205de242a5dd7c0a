// Crash recovery — what does the safety net cost at capacity, and how
// fast is the way back?
//
// Part 1 — recording cost at the 160-player capacity anchor (4 threads,
// conservative locking). Recovery off vs on: "on" journals every world
// mutation (world steps, executed moves, lifecycle operations) with its
// serialization index, records per-frame world digests, and checkpoints
// the full server image every 512 frames inside the master's
// between-frames window. We report the throughput delta, the encoded checkpoint size,
// and the worst host-clock serialize pause — the acceptance bound is
// 12.5 ms, half a 25 ms master frame, so a checkpoint can never cost a
// frame even if it lands at the worst point of the budget. The ON run
// ends with a digest-verified replay of the journal from the latest
// checkpoint; every replayed frame must match the live digests.
//
// Part 2 — warm-restart latency. Take the final checkpoint image from a
// fresh 160-player soak, then time decode + restore into a brand-new
// server instance on the host clock. This is the "how long is the
// service dark after a crash" number (client resume happens on their
// next packet and is covered by recovery_test's chaos kill/restart).
//
// Exit code: non-zero if the pause bound, the replay verification, or
// the restore-latency guard fails (CI runs this as a smoke check).
#include <chrono>
#include <cinttypes>
#include <memory>

#include "bench_common.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/vthread/sim_platform.hpp"

using namespace qserv;
using namespace qserv::harness;

namespace {

constexpr int kCapacityPlayers = 160;       // paper's 4-thread anchor
constexpr double kMaxPauseMs = 12.5;        // half a 25 ms master frame
constexpr double kMaxRestoreMs = 250.0;     // decode + rebuild, host clock

ExperimentConfig base_config(int players) {
  auto cfg = paper_config(ServerMode::kParallel, 4, players,
                          core::LockPolicy::kConservative);
  bench::apply_windows(cfg);
  return cfg;
}

void enable_recovery(core::ServerConfig& scfg) {
  auto& r = scfg.recovery;
  r.enabled = true;
  r.checkpoint_interval = 512;  // ~8 checkpoints per ring span
  r.journal_frames = 4096;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOutput out("recovery", argc, argv);
  bench::print_header(
      "Crash recovery — checkpoint/journal cost and warm-restart latency",
      "robustness extension (frame-aligned checkpoints, digest replay)");

  bool failed = false;

  // ---- Part 1: recording cost + replay verification -----------------
  Table cost("Recording cost at capacity (160 players, 4 threads)");
  cost.header({"recovery", "replies/s", "resp p95 ms", "ckpts", "ckpt KB",
               "worst pause ms", "jrnl frames", "jrnl records"});

  double pause_ms = 0.0;
  bool replay_ran = false, replay_ok = false;
  std::string replay_summary;
  for (const bool on : {false, true}) {
    auto cfg = base_config(kCapacityPlayers);
    if (on) {
      enable_recovery(cfg.server);
      cfg.verify_replay = true;
    }
    const auto r = run_experiment(cfg);
    out.add("cost", on ? "recording" : "baseline", cfg, r);
    const double pm = static_cast<double>(r.checkpoint_pause_ns) / 1e6;
    if (on) {
      pause_ms = pm;
      replay_ran = r.replay_ran;
      replay_ok = r.replay_ok;
      replay_summary = r.replay_summary;
    }
    cost.row({on ? "on" : "off", Table::num(r.response_rate, 0),
              Table::num(r.response_ms_p95, 2),
              std::to_string(r.checkpoints_taken),
              Table::num(static_cast<double>(r.checkpoint_bytes) / 1024.0, 1),
              on ? Table::num(pm, 3) : "-",
              std::to_string(r.journal_frames),
              std::to_string(r.journal_records)});
  }
  std::printf("\n");
  cost.print();

  if (pause_ms >= kMaxPauseMs) {
    std::fprintf(stderr,
                 "FAIL: worst checkpoint pause %.3f ms breaches the %.1f ms "
                 "between-frames budget\n",
                 pause_ms, kMaxPauseMs);
    failed = true;
  } else {
    std::printf("\ncheckpoint pause budget (< %.1f ms) held: worst %.3f ms\n",
                kMaxPauseMs, pause_ms);
  }
  if (!replay_ran || !replay_ok) {
    std::fprintf(stderr, "FAIL: replay verification %s (%s)\n",
                 replay_ran ? "diverged" : "did not run",
                 replay_summary.c_str());
    failed = true;
  } else {
    std::printf("replay verification: %s\n", replay_summary.c_str());
  }

  // ---- Part 2: warm-restart latency ---------------------------------
  // A dedicated short soak so we hold the server (run_experiment owns and
  // tears down its own); grab the final image, then time the way back.
  std::vector<uint8_t> image;
  {
    vt::SimPlatform p(base_config(kCapacityPlayers).machine);
    net::VirtualNetwork net(p, {});
    const auto map = default_map();
    core::ServerConfig scfg = base_config(kCapacityPlayers).server;
    enable_recovery(scfg);
    core::ParallelServer server(p, net, *map, scfg);
    bots::ClientDriver::Config dcfg;
    dcfg.players = kCapacityPlayers;
    bots::ClientDriver driver(p, net, *map, server, dcfg);
    server.start();
    driver.start();
    p.call_after(vt::seconds(3), [&] {
      server.request_stop();
      driver.request_stop();
    });
    p.run();
    image = server.checkpoints()->latest();
  }

  double restore_ms = 0.0;
  uint64_t restored_frame = 0;
  size_t restored_entities = 0;
  if (image.empty()) {
    std::fprintf(stderr, "FAIL: capacity soak produced no checkpoint\n");
    failed = true;
  } else {
    recovery::CheckpointData peek;
    if (recovery::decode_checkpoint(image, peek) !=
        recovery::LoadError::kNone) {
      std::fprintf(stderr, "FAIL: final checkpoint image does not decode\n");
      failed = true;
    } else {
      restored_frame = peek.frame;
      restored_entities = peek.entities.size();
      vt::SimPlatform p(base_config(kCapacityPlayers).machine);
      net::VirtualNetwork net(p, {});
      const auto map = default_map();
      core::ServerConfig scfg = base_config(kCapacityPlayers).server;
      enable_recovery(scfg);
      core::ParallelServer server(p, net, *map, scfg);
      const auto h0 = std::chrono::steady_clock::now();
      const auto err = server.restore_from(image);
      const auto h1 = std::chrono::steady_clock::now();
      restore_ms = std::chrono::duration<double, std::milli>(h1 - h0).count();
      if (err != recovery::LoadError::kNone) {
        std::fprintf(stderr, "FAIL: restore_from rejected the image\n");
        failed = true;
      }
    }
  }

  Table restart("Warm restart (decode + restore, host clock)");
  restart.header({"image KB", "frame", "entities", "restore ms"});
  restart.row({Table::num(static_cast<double>(image.size()) / 1024.0, 1),
               std::to_string(restored_frame),
               std::to_string(restored_entities),
               Table::num(restore_ms, 3)});
  std::printf("\n");
  restart.print();

  if (restore_ms >= kMaxRestoreMs) {
    std::fprintf(stderr,
                 "FAIL: restore latency %.3f ms breaches the %.0f ms guard\n",
                 restore_ms, kMaxRestoreMs);
    failed = true;
  } else if (!failed) {
    std::printf("\nrestore latency guard (< %.0f ms) held\n", kMaxRestoreMs);
  }

  out.add_raw("restart",
              "{\"label\":\"warm_restart\",\"image_bytes\":" +
                  std::to_string(image.size()) +
                  ",\"entities\":" + std::to_string(restored_entities) +
                  ",\"restore_ms\":" + std::to_string(restore_ms) + "}");

  const int rc = out.finish();
  return failed ? 1 : rc;
}
