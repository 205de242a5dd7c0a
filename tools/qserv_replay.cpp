// qserv-replay: offline digest-verified deterministic replay.
//
// Feed it the two artifacts a black-box dump (or a live server's
// recovery ring) produces — a checkpoint image and a journal — and it
// restores the world, re-executes every recorded frame, and cross-checks
// the FNV world digest after each one against the digest recorded live.
// On divergence it names the first offending frame and, when the journal
// carries per-entity digests, the first offending entity.
//
//   qserv-replay <dump-dir>                  # checkpoint.qckpt + journal.qjrnl
//   qserv-replay <checkpoint> <journal>      # explicit files
//   qserv-replay --selftest [min-frames] [--dump <dir>]
//       CI mode: record + verify a fresh simulated soak; with --dump,
//       also write the artifacts so the offline form can be chained.
//
// Exit codes: 0 = replay identical, 1 = diverged, 2 = setup error
// (unreadable file, corrupt image, journal gap, usage).
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/net/virtual_udp.hpp"
#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/harness/experiment.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/recovery/journal.hpp"
#include "src/recovery/replay.hpp"
#include "src/vthread/sim_platform.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qserv-replay <dump-dir>\n"
               "       qserv-replay <checkpoint.qckpt> <journal.qjrnl>\n"
               "       qserv-replay --selftest [min-frames] [--dump <dir>]\n");
  return 2;
}

bool read_file(const std::string& path, std::vector<uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
}

int report(const qserv::recovery::ReplayResult& r) {
  if (!r.error.empty()) {
    std::fprintf(stderr, "setup error: %s\n", r.error.c_str());
    return 2;
  }
  std::printf("%s\n", r.summary().c_str());
  if (r.diverged) {
    std::printf("  frame %" PRIu64 ": want digest %016" PRIx64
                ", got %016" PRIx64 "\n",
                r.divergent_frame, r.want_digest, r.got_digest);
    if (r.divergent_entity != 0)
      std::printf("  first divergent entity: %u\n", r.divergent_entity);
    if (!r.detail.empty()) std::printf("  %s\n", r.detail.c_str());
    return 1;
  }
  return r.ok ? 0 : 2;
}

// CI mode: run a short simulated soak with recovery on, capture a
// checkpoint mid-run, keep journaling past it, then verify the recorded
// tail replays bit-identically for at least `min_frames` frames. This
// exercises the same encode/decode path the offline mode uses.
bool write_file(const std::string& path, const std::vector<uint8_t>& buf) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  return static_cast<bool>(out);
}

int selftest(uint64_t min_frames, const std::string& dump_dir) {
  using namespace qserv;
  // ~360 frames/s form with 12 clients at 30 fps; pad the post-anchor
  // window so the ring holds at least min_frames beyond the checkpoint.
  const int64_t tail_s =
      static_cast<int64_t>(min_frames / 300 + 2);

  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = harness::default_map();
  core::ServerConfig scfg;
  scfg.threads = 4;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = 64;
  scfg.recovery.journal_frames = 8192;
  core::ParallelServer server(p, net, *map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 12;
  bots::ClientDriver driver(p, net, *map, server, dcfg);

  std::vector<uint8_t> ckpt_bytes;
  server.start();
  driver.start();
  p.call_after(vt::seconds(2), [&] {
    ckpt_bytes = server.checkpoints()->latest();
  });
  p.call_after(vt::seconds(2 + tail_s), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  if (ckpt_bytes.empty()) {
    std::fprintf(stderr, "selftest: no checkpoint formed by 2s\n");
    return 2;
  }
  recovery::CheckpointData ckpt;
  if (recovery::decode_checkpoint(ckpt_bytes, ckpt) !=
      recovery::LoadError::kNone) {
    std::fprintf(stderr, "selftest: checkpoint image does not decode\n");
    return 2;
  }
  const std::vector<uint8_t> jrnl_bytes = server.recorder()->encode();
  recovery::JournalFile journal;
  if (recovery::decode_journal(jrnl_bytes, journal) !=
      recovery::LoadError::kNone) {
    std::fprintf(stderr, "selftest: journal does not decode\n");
    return 2;
  }
  if (!dump_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dump_dir, ec);
    if (!write_file(dump_dir + "/checkpoint.qckpt", ckpt_bytes) ||
        !write_file(dump_dir + "/journal.qjrnl", jrnl_bytes)) {
      std::fprintf(stderr, "selftest: cannot write artifacts to %s\n",
                   dump_dir.c_str());
      return 2;
    }
  }

  const auto r = recovery::replay_verify(ckpt, journal);
  const int rc = report(r);
  if (rc != 0) return rc;
  if (r.frames_checked < min_frames) {
    std::fprintf(stderr,
                 "selftest: only %" PRIu64 " frames checked, wanted >= %" PRIu64
                 "\n",
                 r.frames_checked, min_frames);
    return 2;
  }
  std::printf("selftest ok: %" PRIu64 " frames bit-identical\n",
              r.frames_checked);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  if (std::strcmp(argv[1], "--selftest") == 0) {
    uint64_t frames = 500;
    std::string dump_dir;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
        dump_dir = argv[++i];
      } else {
        frames = std::strtoull(argv[i], nullptr, 10);
      }
    }
    return selftest(frames, dump_dir);
  }

  std::string ckpt_path, jrnl_path;
  if (argc == 2) {
    if (!std::filesystem::is_directory(argv[1])) {
      std::fprintf(stderr, "%s: not a dump directory\n", argv[1]);
      return 2;
    }
    ckpt_path = std::string(argv[1]) + "/checkpoint.qckpt";
    jrnl_path = std::string(argv[1]) + "/journal.qjrnl";
  } else if (argc == 3) {
    ckpt_path = argv[1];
    jrnl_path = argv[2];
  } else {
    return usage();
  }

  std::vector<uint8_t> ckpt_bytes, jrnl_bytes;
  if (!read_file(ckpt_path, ckpt_bytes)) {
    std::fprintf(stderr, "%s: cannot read\n", ckpt_path.c_str());
    return 2;
  }
  if (!read_file(jrnl_path, jrnl_bytes)) {
    std::fprintf(stderr, "%s: cannot read\n", jrnl_path.c_str());
    return 2;
  }

  qserv::recovery::CheckpointData ckpt;
  if (const auto err = qserv::recovery::decode_checkpoint(ckpt_bytes, ckpt);
      err != qserv::recovery::LoadError::kNone) {
    std::fprintf(stderr, "%s: corrupt or unsupported checkpoint (%s)\n",
                 ckpt_path.c_str(), qserv::recovery::load_error_name(err));
    return 2;
  }
  qserv::recovery::JournalFile journal;
  if (const auto err = qserv::recovery::decode_journal(jrnl_bytes, journal);
      err != qserv::recovery::LoadError::kNone) {
    std::fprintf(stderr, "%s: corrupt or unsupported journal (%s)\n",
                 jrnl_path.c_str(), qserv::recovery::load_error_name(err));
    return 2;
  }

  std::printf("checkpoint: frame %" PRIu64 ", %zu entities, %zu clients\n",
              ckpt.frame, ckpt.entities.size(), ckpt.clients.size());
  std::printf("journal: %zu frames\n", journal.frames.size());
  return report(qserv::recovery::replay_verify(ckpt, journal));
}
