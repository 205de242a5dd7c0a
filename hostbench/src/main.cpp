// Host-clock benchmark of the qserv game server: the parallel server runs
// on real threads (RealPlatform) behind kernel UDP on loopback, driven by
// an open-loop farm of bot clients in the same process. It reports what a
// player and an operator see — reply latency, server CPU, reply-phase time
// and heap allocations per reply — plus set-up time, and with --trace 1 a
// per-layer split.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status is non-zero only when the run could not be made.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "metered.hpp"
#include "src/core/parallel_server.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"

namespace {

namespace core = qserv::core;
namespace net = qserv::net;
using hostbench::mono_ns;

// Traffic mixes. Both put 160 players (the fig5 and bench_real_transport
// anchor) on a 2-thread server (fig5's smallest thread count; on a 4-CPU
// host it leaves one CPU to the client farm and one to the kernel's
// loopback path). Players arrive as the repo's bots do: one move per
// 33 ms client frame (bots::Client::frame_interval), client i's frames
// offset by i x 5 ms (ClientDriver's connect_stagger) plus under a
// millisecond of seeded connect round trip. The mixes differ only in the
// reply path the server runs.
struct Workload {
  const char* name;
  // DESIGN.md section 15 hot path: SoA frame view + shared cluster
  // baselines, as bench_fig5_scaling runs it.
  bool shared_reply;
};
constexpr Workload kWorkloads[] = {
    {"legacy", false},
    {"shared", true},
};

constexpr int kPlayers = 160;
constexpr int kServerThreads = 2;
constexpr int64_t kStaggerNs = 5'000'000;
constexpr int kSetupReps = 15;
constexpr int64_t kTickNs = 33'000'000;
constexpr int64_t kWarmupNs = 1'500'000'000;
constexpr int64_t kSliceNs = 1'000'000'000;
constexpr int64_t kDrainNs = 500'000'000;
constexpr int64_t kConnectTimeoutNs = 20'000'000'000;
constexpr uint64_t kMapSeed = 7;  // the map qserv-serve serves

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, v) == 0) a.workload = &w;
      if (a.workload == nullptr) return false;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a.workload != nullptr && a.seconds > 0;
}

bool port_free(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok =
      bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  close(fd);
  return ok;
}

// A block of `n` consecutive loopback ports nobody holds (the transport
// binds with SO_REUSEPORT, which would silently share a port taken by
// another process, so probe with a plain bind first).
uint16_t find_port_block(int n) {
  uint64_t x = qserv::derive_seed(static_cast<uint64_t>(getpid()), 77);
  for (int attempt = 0; attempt < 200; ++attempt) {
    x = qserv::derive_seed(x, 1);
    const auto base = static_cast<uint16_t>(20000 + x % 40000);
    bool ok = true;
    for (int p = 0; p < n && ok; ++p)
      ok = port_free(static_cast<uint16_t>(base + p));
    if (ok) return base;
  }
  return 0;
}

// Turns the shared reply path on while the server still offers it as an
// option; once it is the only path, both mixes run it.
template <class Config>
void use_shared_reply(Config& c) {
  if constexpr (requires { c.reply.shared_baselines; }) {
    c.reply.soa_view = true;
    c.reply.shared_baselines = true;
  }
}

// One complete server + client population.
struct Instance {
  Instance(const Workload& w, uint64_t seed, uint16_t port_base, bool trace,
           const std::vector<int>& server_cpus)
      : map(qserv::spatial::make_large_deathmatch(kMapSeed)),
        platform(server_cpus) {
    const uint16_t first_client = static_cast<uint16_t>(port_base + 8);
    net::Transport* server_transport = &server_net;
    if (trace) {
      ledger = std::make_unique<hostbench::MoveLedger>(first_client, kPlayers);
      timed = std::make_unique<hostbench::TimedTransport>(server_net, *ledger);
      server_transport = timed.get();
    }
    core::ServerConfig scfg;
    scfg.threads = kServerThreads;
    scfg.lock_policy = core::LockPolicy::kOptimized;
    scfg.base_port = port_base;
    scfg.seed = seed;
    if (w.shared_reply) use_shared_reply(scfg);
    server = std::make_unique<core::ParallelServer>(platform, *server_transport,
                                                    map, scfg);

    hostbench::FarmConfig fc;
    fc.clients = kPlayers;
    fc.first_port = first_client;
    fc.tick_ns = kTickNs;
    fc.slice_ns = kSliceNs;
    fc.seed = seed;
    fc.ledger = ledger.get();
    qserv::Rng rng(qserv::derive_seed(seed, 99));
    for (int i = 0; i < kPlayers; ++i) {
      fc.join_ports.push_back(server->port_for_client(i, kPlayers));
      const double u = rng.uniform();
      fc.phase_ns.push_back((i * kStaggerNs + static_cast<int64_t>(u * 1e6)) %
                            kTickNs);
    }
    farm = std::make_unique<hostbench::ClientFarm>(client_net, map, fc);
  }

  ~Instance() { stop(); }

  void stop() {
    if (stopped) return;
    stopped = true;
    server->request_stop();
    platform.join_all();
  }

  qserv::spatial::GameMap map;
  hostbench::MeteredPlatform platform;
  net::RealUdpTransport server_net{platform, {}};
  std::unique_ptr<hostbench::MoveLedger> ledger;
  std::unique_ptr<hostbench::TimedTransport> timed;
  std::unique_ptr<core::ParallelServer> server;
  net::RealUdpTransport client_net{platform, {}};
  std::unique_ptr<hostbench::ClientFarm> farm;
  bool stopped = false;
};

double quantile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void sleep_until_ns(int64_t t) {
  timespec ts{};
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// Where threads run: server thread k on cpus[k], the client farm (the
// main thread) on the last usable CPU. Pinned, the run-to-run spread of
// server CPU per reply halved against letting the scheduler place them.
// With too few CPUs nothing is pinned.
struct CpuPlan {
  std::vector<int> server;
  std::vector<int> idle;  // every CPU but the farm's
};

CpuPlan plan_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  CpuPlan p;
  if (static_cast<int>(cpus.size()) <= kServerThreads) return p;
  hostbench::pin_this_thread(cpus.back());
  p.server.assign(cpus.begin(), cpus.begin() + kServerThreads);
  p.idle.assign(cpus.begin(), cpus.end() - 1);
  return p;
}

// Keeps the given CPUs polling with SCHED_IDLE threads, which yield to
// any normal thread at once. On a virtual machine a halted vCPU can take
// milliseconds to wake; without this, a server thread woken by a
// datagram measures the hypervisor rather than the server.
class KeepCpusAwake {
 public:
  explicit KeepCpusAwake(const std::vector<int>& cpus) {
    for (const int cpu : cpus)
      threads_.emplace_back([this, cpu] {
        hostbench::pin_this_thread(cpu);
        sched_param sp{};
        sched_setscheduler(0, SCHED_IDLE, &sp);
        while (!stop_.load(std::memory_order_relaxed)) cpu_relax();
      });
  }
  ~KeepCpusAwake() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }
  KeepCpusAwake(const KeepCpusAwake&) = delete;
  KeepCpusAwake& operator=(const KeepCpusAwake&) = delete;

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload legacy|shared "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Workload& w = *args.workload;
  const CpuPlan cpus = plan_cpus();
  const KeepCpusAwake awake(cpus.idle);
  const uint16_t port_base = find_port_block(8 + kPlayers);
  if (port_base == 0) {
    std::fprintf(stderr, "hostbench: no free loopback port block\n");
    return 1;
  }

  // Set-up (map, server, sockets, every client connected) is repeated and
  // its median reported; the last instance goes on to the measurement.
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inst.reset();
    const int64_t s0 = mono_ns();
    inst = std::make_unique<Instance>(w, args.seed, port_base, args.trace,
                                      cpus.server);
    inst->server->start();
    if (!inst->farm->connect_all(s0 + kConnectTimeoutNs)) {
      std::fprintf(stderr, "hostbench: clients failed to connect\n");
      return 1;
    }
    setup_s.push_back(static_cast<double>(mono_ns() - s0) * 1e-9);
  }

  const int64_t t0 = mono_ns() + 10'000'000;
  const int64_t window_start = t0 + kWarmupNs;
  const int64_t window_end =
      window_start + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t drain_end = window_end + kDrainNs;

  // Server CPU and allocations are sampled at every slice edge while the
  // farm runs the schedule on this thread.
  const auto slices = static_cast<size_t>(
      (window_end - window_start + kSliceNs - 1) / kSliceNs);
  std::vector<int64_t> cpu(slices + 1);
  std::vector<uint64_t> allocs(slices + 1);
  std::thread sampler([&] {
    for (size_t k = 0; k <= slices; ++k) {
      sleep_until_ns(std::min(
          window_start + static_cast<int64_t>(k) * kSliceNs, window_end));
      cpu[k] = inst->platform.server_cpu_ns();
      allocs[k] = hostbench::server_allocs();
    }
  });
  const hostbench::FarmResult r =
      inst->farm->run(t0, window_start, window_end, drain_end);
  sampler.join();
  inst->stop();

  const core::ParallelServer& server = *inst->server;
  const bool cpu_ok = cpu.front() >= 0 && cpu.back() > cpu.front() &&
                      inst->platform.server_threads() == kServerThreads;
  const bool correct = r.bad_replies == 0 && r.moves > 0 && cpu_ok &&
                       server.connected_clients() == kPlayers &&
                       server.total_replies() >= r.replies;
  const uint64_t failed = r.moves - r.answered;
  const double replies = static_cast<double>(r.replies);

  // Server phases are host wall time on RealPlatform, summed over the
  // whole session and normalized by every reply the server sent.
  const core::Breakdown b = server.total_breakdown();
  const double server_replies = static_cast<double>(server.total_replies());
  auto us = [server_replies](qserv::vt::Duration d) {
    return per(static_cast<double>(d.ns) * 1e-3, server_replies);
  };
  // Per-slice figures; the medians over slices are reported, so a burst
  // of interference from outside the process moves at most a few slices.
  std::vector<double> cpu_us_per_reply, allocs_per_reply;
  std::vector<double> p50_ms, p90_ms, p99_ms;
  for (size_t k = 0; k < slices; ++k) {
    const double n = static_cast<double>(r.replies_by_slice[k]);
    cpu_us_per_reply.push_back(
        per(static_cast<double>(cpu[k + 1] - cpu[k]) * 1e-3, n));
    allocs_per_reply.push_back(
        per(static_cast<double>(allocs[k + 1] - allocs[k]), n));
    p50_ms.push_back(quantile(r.latency_by_slice[k], 0.50) * 1e-6);
    p90_ms.push_back(quantile(r.latency_by_slice[k], 0.90) * 1e-6);
    p99_ms.push_back(quantile(r.latency_by_slice[k], 0.99) * 1e-6);
  }

  std::vector<Metric> m;
  if (!args.trace) {
    m.push_back({"latency_p50_ms", median(p50_ms), "ms"});
    m.push_back({"cpu_us_per_reply", median(cpu_us_per_reply), "us"});
    m.push_back({"reply_us_per_reply", us(b.reply), "us"});
    m.push_back({"allocs_per_reply", median(allocs_per_reply), "count"});
    m.push_back({"setup_s", median(setup_s), "s"});
  } else {
    const hostbench::SocketTimes& st = inst->timed->times();
    const double hits = static_cast<double>(st.recv_hits.load());
    const double frames = static_cast<double>(server.frames());
    // Tail latency is reported here rather than bounded: it follows the
    // shared host's load more than the median does. On a 4-vCPU virtual
    // machine, over ten runs of one build, the middle half of the p90s
    // spread up to 27% of their median, and the p99s several-fold.
    m.push_back({"latency_p90_ms", median(p90_ms), "ms"});
    m.push_back({"latency_p99_ms", median(p99_ms), "ms"});
    m.push_back({"gen_lateness_us", quantile(r.lateness_ns, 0.5) * 1e-3, "us"});
    m.push_back({"queue_us", quantile(r.queue_ns, 0.5) * 1e-3, "us"});
    m.push_back({"server_us", quantile(r.server_ns, 0.5) * 1e-3, "us"});
    m.push_back({"return_us", quantile(r.return_ns, 0.5) * 1e-3, "us"});
    m.push_back({"receive_us_per_reply", us(b.receive), "us"});
    m.push_back({"exec_us_per_reply", us(b.exec), "us"});
    m.push_back({"lock_us_per_reply", us(b.lock()), "us"});
    m.push_back({"world_us_per_reply", us(b.world), "us"});
    m.push_back({"sync_wait_us_per_reply", us(b.intra_wait + b.inter_wait()),
                 "us"});
    m.push_back({"reply_share",
                 per(static_cast<double>(b.reply.ns),
                     static_cast<double>(b.busy().ns)),
                 "ratio"});
    m.push_back({"sendto_us_per_datagram",
                 per(static_cast<double>(st.send_ns.load()) * 1e-3,
                     static_cast<double>(st.sends.load())),
                 "us"});
    m.push_back({"recv_us_per_datagram",
                 per(static_cast<double>(st.recv_ns.load()) * 1e-3, hits),
                 "us"});
    m.push_back({"moves_per_frame",
                 per(static_cast<double>(server.total_requests()), frames),
                 "count"});
    // Window allocations per reply, scaled by the session's replies per
    // frame (the frame count cannot be read while the server runs).
    m.push_back({"allocs_per_frame",
                 median(allocs_per_reply) * per(server_replies, frames),
                 "count"});
    m.push_back({"reply_bytes",
                 per(static_cast<double>(r.reply_bytes), replies), "bytes"});
    m.push_back({"entities_per_reply",
                 per(static_cast<double>(r.entities), replies), "count"});
    m.push_back({"client_decode_us_per_reply",
                 per(static_cast<double>(r.decode_ns) * 1e-3, replies), "us"});
  }

  std::fprintf(stderr,
               "hostbench %s seed=%" PRIu64 ": %d players, %" PRIu64
               " moves, %" PRIu64 " replies, %" PRIu64 " bad, %" PRIu64
               " failed, server frames %" PRIu64 "\n",
               w.name, args.seed, kPlayers, r.moves, r.replies,
               r.bad_replies, failed, server.frames());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.moves);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m[i].name.c_str(), m[i].value,
                  m[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
