#include "src/sim/cost_model.hpp"

namespace qserv::sim {

CostModel CostModel::scaled(double f) const {
  CostModel out = *this;
  auto s = [f](vt::Duration& d) { d = d * f; };
  s(out.recv_parse);
  s(out.move_base);
  s(out.hitscan_exec);
  s(out.grenade_exec);
  s(out.per_brush_trace);
  s(out.per_entity_scan);
  s(out.per_node_visit);
  s(out.per_touch);
  s(out.lock_op);
  s(out.list_lock_op);
  s(out.world_base);
  s(out.per_projectile_step);
  s(out.per_item_check);
  s(out.per_buffer_update);
  s(out.reply_base);
  s(out.per_interest_check);
  s(out.per_pvs_check);
  s(out.per_los_trace_brush);
  s(out.per_visible_entity);
  s(out.per_event);
  s(out.send_syscall);
  s(out.select_syscall);
  s(out.signal_syscall);
  return out;
}

}  // namespace qserv::sim
