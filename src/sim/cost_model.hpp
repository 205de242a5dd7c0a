// Calibrated virtual-CPU costs of game-server operations.
//
// On the paper's testbed these costs were simply how long the Quake code
// took on a 1.4 GHz Xeon; on the simulated platform every operation
// charges its modelled cost through Platform::compute(). The absolute
// values are calibrated (see EXPERIMENTS.md) so that the *ratios* the
// paper reports hold: world physics < 5% of a frame, reply processing
// >= 2x request processing, and a sequential server that saturates near
// 128 players at ~30 ms client frames.
#pragma once

#include "src/vthread/time.hpp"

namespace qserv::sim {

struct CostModel {
  // --- request processing ---
  vt::Duration recv_parse = vt::micros(6);        // recvfrom + parse, per request
  vt::Duration move_base = vt::micros(50);        // fixed part of move execution
  // Weapon simulation on top of traces/gathers; executed while the
  // long-range region locks are held.
  vt::Duration hitscan_exec = vt::micros(120);
  vt::Duration grenade_exec = vt::micros(100);
  vt::Duration per_brush_trace = vt::nanos(500);  // per brush tested in a trace
  vt::Duration per_entity_scan = vt::nanos(200);  // per object-list entry tested
  vt::Duration per_node_visit = vt::nanos(300);   // per areanode visited
  vt::Duration per_touch = vt::micros(4);         // per touch interaction applied
  // Region-lock bookkeeping: determining the region and one lock/unlock
  // pair (the parallelization overhead of §4.1).
  vt::Duration lock_op = vt::micros(6);
  // Short per-node object-list lock/unlock (parent-areanode locking).
  vt::Duration list_lock_op = vt::micros(1);

  // --- world physics phase ---
  // Charged once per server frame; servers near saturation run thousands
  // of short frames per second, so these stay small to keep the world
  // phase under 5% of execution time (ISPASS'01 measurement).
  vt::Duration world_base = vt::micros(8);
  vt::Duration per_projectile_step = vt::micros(2);
  vt::Duration per_item_check = vt::nanos(50);

  // --- reply processing ---
  // Charged for every client of the thread's complete set each frame:
  // the global-state buffer is used to update every client's message
  // buffer regardless of whether it is being replied to (§3.3). This is
  // the dominant per-frame constant; it is what stretches frames enough
  // for several requests to batch into one frame near saturation.
  vt::Duration per_buffer_update = vt::nanos(2500);
  vt::Duration reply_base = vt::micros(6);         // per client replied to
  vt::Duration per_interest_check = vt::nanos(200); // cheap distance culling
  vt::Duration per_pvs_check = vt::nanos(80);       // PVS matrix lookup
  vt::Duration per_los_trace_brush = vt::nanos(450);// line-of-sight trace
                                                    // (maps without PVS)
  vt::Duration per_visible_entity = vt::nanos(1500); // delta-encode one entity
  vt::Duration per_event = vt::nanos(200);
  vt::Duration send_syscall = vt::micros(4);

  // --- misc ---
  vt::Duration select_syscall = vt::micros(5);
  vt::Duration signal_syscall = vt::micros(15);
};

}  // namespace qserv::sim
