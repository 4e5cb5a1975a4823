#pragma once

#include "axi/traffic_gen.hpp"
#include "tmu/config.hpp"

/// Field lists (sim/jsonio.hpp) for the config blocks that appear in
/// more than one document schema: SocDesc topologies (tmu-soc-desc-v2)
/// embed TMU and traffic configs per guard/manager, and campaign spec
/// files (tmu-campaign-spec-v1) embed the same blocks per trial. One
/// list per block keeps the two schemas field-compatible and equally
/// strict. Each list sits in its type's namespace so jsonio finds it.

namespace axi {

template <typename V>
void fields(V& v, RandomTrafficConfig& t) {
  v("enabled", t.enabled);
  v("p_new_txn", t.p_new_txn);
  v("write_fraction", t.write_fraction);
  v("max_outstanding", t.max_outstanding);
  v("id_min", t.id_min);
  v("id_max", t.id_max);
  v("addr_min", t.addr_min);
  v("addr_max", t.addr_max);
  v("len_min", t.len_min);
  v("len_max", t.len_max);
  v("size", t.size);
}

}  // namespace axi

namespace tmu {

template <typename V>
void fields(V& v, PhaseBudgets& b) {
  v("aw_vld_aw_rdy", b.aw_vld_aw_rdy);
  v("aw_rdy_w_vld", b.aw_rdy_w_vld);
  v("w_vld_w_rdy", b.w_vld_w_rdy);
  v("w_first_w_last", b.w_first_w_last);
  v("w_last_b_vld", b.w_last_b_vld);
  v("b_vld_b_rdy", b.b_vld_b_rdy);
  v("ar_vld_ar_rdy", b.ar_vld_ar_rdy);
  v("ar_rdy_r_vld", b.ar_rdy_r_vld);
  v("r_vld_r_rdy", b.r_vld_r_rdy);
  v("r_vld_r_last", b.r_vld_r_last);
}

template <typename V>
void fields(V& v, AdaptiveBudget& a) {
  v("enabled", a.enabled);
  v("cycles_per_beat", a.cycles_per_beat);
  v("cycles_per_ahead", a.cycles_per_ahead);
}

template <typename V>
void fields(V& v, TmuConfig& c) {
  v.name("variant", c.variant, Variant::kFullCounter, "TMU variant");
  v("max_uniq_ids", c.max_uniq_ids);
  v("txn_per_uniq_id", c.txn_per_uniq_id);
  v.object("budgets", c.budgets);
  v("tc_total_budget", c.tc_total_budget);
  v.object("adaptive", c.adaptive);
  v("prescaler_step", c.prescaler_step);
  v("sticky_bit", c.sticky_bit);
  v("enabled", c.enabled);
  v("irq_enabled", c.irq_enabled);
  v("reset_on_fault", c.reset_on_fault);
  v("max_txn_cycles", c.max_txn_cycles);
  v("fault_log_depth", c.fault_log_depth);
  v("perf_log_depth", c.perf_log_depth);
}

}  // namespace tmu
