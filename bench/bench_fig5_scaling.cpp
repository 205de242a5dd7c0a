// Figure 5: parallel server performance with conservative locking.
//   (a) average execution-time breakdowns for 2/4/8 threads across player
//       counts,
//   (b) total server response rate vs players per thread count,
//   (c) average server response time.
// Paper findings to match: receive and reply scale with threads; lock
// time grows from ~2% to ~35% from 64 to 160 players; total wait times
// reach 40%+ with inter-frame > intra-frame; saturation at roughly
// 128/144/160 players for 2/4/8 threads; 8 threads barely beats 4
// (hyper-threaded contexts share cores).
#include "alloc_counter.hpp"
#include "bench_common.hpp"

using namespace qserv;
using namespace qserv::harness;

int main(int argc, char** argv) {
  bench::BenchOutput out("fig5_scaling", argc, argv);
  bench::print_header("Figure 5 — parallel server performance",
                      "Fig. 5(a,b,c), §4.2");

  // The paper sweeps 64..160; we extend to 192 so the saturation point of
  // every thread count is visible (our simulated testbed's capacity
  // frontier sits slightly above the original hardware's).
  const std::vector<int> threads{2, 4, 8};
  const std::vector<int> players{64, 96, 128, 144, 160, 176, 192};

  // Sequential reference for the rate plot (the paper overlays it).
  std::vector<SweepPoint> seq;
  for (const int n : players) {
    SweepPoint p;
    p.label = "seq/" + std::to_string(n) + "p";
    p.config =
        paper_config(ServerMode::kSequential, 1, n, core::LockPolicy::kNone);
    bench::apply_windows(p.config);
    seq.push_back(std::move(p));
  }
  run_sweep(seq);

  auto grid = paper_grid(threads, players, core::LockPolicy::kConservative);
  for (auto& p : grid) bench::apply_windows(p.config);
  const uint64_t allocs_before = bench::heap_allocs();
  run_sweep(grid);
  const uint64_t sweep_allocs = bench::heap_allocs() - allocs_before;
  uint64_t sweep_frames = 0;
  for (const auto& p : grid) sweep_frames += p.result.frames;
  std::printf(
      "\nheap allocations over the conservative sweep: %llu"
      " (%.1f per server frame, %llu frames; whole process incl. clients)\n",
      static_cast<unsigned long long>(sweep_allocs),
      sweep_frames > 0
          ? static_cast<double>(sweep_allocs) / static_cast<double>(sweep_frames)
          : 0.0,
      static_cast<unsigned long long>(sweep_frames));

  out.add_points("sequential", seq);
  out.add_points("conservative", grid);

  Table breakdowns("Fig 5(a): execution time breakdowns (% of total)");
  breakdowns.header(breakdown_header("threads/players"));
  for (const auto& p : grid) breakdowns.row(breakdown_row(p.label, p.result));
  std::printf("\n");
  breakdowns.print();

  Table rates("Fig 5(b): total server response rate (replies/s)");
  {
    std::vector<std::string> hdr{"players", "seq"};
    for (const int t : threads) hdr.push_back(std::to_string(t) + "t");
    rates.header(hdr);
    for (size_t i = 0; i < players.size(); ++i) {
      std::vector<std::string> row{std::to_string(players[i]),
                                   Table::num(seq[i].result.response_rate, 0)};
      for (size_t t = 0; t < threads.size(); ++t) {
        row.push_back(
            Table::num(grid[t * players.size() + i].result.response_rate, 0));
      }
      rates.row(row);
    }
  }
  std::printf("\n");
  rates.print();

  Table resp("Fig 5(c): average server response time (ms)");
  {
    std::vector<std::string> hdr{"players", "seq"};
    for (const int t : threads) hdr.push_back(std::to_string(t) + "t");
    resp.header(hdr);
    for (size_t i = 0; i < players.size(); ++i) {
      std::vector<std::string> row{
          std::to_string(players[i]),
          Table::num(seq[i].result.response_ms_mean, 1)};
      for (size_t t = 0; t < threads.size(); ++t) {
        row.push_back(Table::num(
            grid[t * players.size() + i].result.response_ms_mean, 1));
      }
      resp.row(row);
    }
  }
  std::printf("\n");
  resp.print();

  // Saturation summary (§4.2: "the server starts to saturate at 128, 144,
  // and 160 players with 2, 4, and 8 server threads").
  Table sat("Saturation (player count where response rate stops improving)");
  sat.header({"server", "saturation players"});
  {
    std::vector<SweepPoint> s(seq.begin(), seq.end());
    sat.row({"sequential",
             std::to_string(saturation_players(s, players))});
    for (size_t t = 0; t < threads.size(); ++t) {
      std::vector<SweepPoint> slice(grid.begin() + long(t * players.size()),
                                    grid.begin() + long((t + 1) * players.size()));
      sat.row({std::to_string(threads[t]) + " threads",
               std::to_string(saturation_players(slice, players))});
    }
  }
  std::printf("\n");
  sat.print();

  // Representative timeline: the 4-thread server at 128 players.
  out.capture_trace(paper_config(ServerMode::kParallel, 4, 128,
                                 core::LockPolicy::kConservative));
  return out.finish();
}
