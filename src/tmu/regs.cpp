#include "tmu/regs.hpp"
#include "tmu/tmu.hpp"

namespace tmu {

std::uint32_t Tmu::read_reg(std::uint32_t offset) {
  using namespace regs;
  switch (offset) {
    case kCtrl:
      return std::uint32_t{cfg_.enabled} | std::uint32_t{cfg_.irq_enabled} << 1 |
             std::uint32_t{cfg_.reset_on_fault} << 2 |
             std::uint32_t{cfg_.adaptive.enabled} << 3 |
             std::uint32_t{cfg_.variant == Variant::kFullCounter} << 8;
    case kStatus:
      return std::uint32_t{severed_} | std::uint32_t{irq_state_()} << 1 |
             static_cast<std::uint32_t>(recoveries_ & 0xFFFF) << 16;
    case kPrescaler:
      return cfg_.prescaler_step | std::uint32_t{cfg_.sticky_bit} << 31;
    case kTcBudget:
      return cfg_.tc_total_budget;
    case kBudgetAw: return cfg_.budgets.aw_vld_aw_rdy;
    case kBudgetWEntry: return cfg_.budgets.aw_rdy_w_vld;
    case kBudgetWHs: return cfg_.budgets.w_vld_w_rdy;
    case kBudgetWData: return cfg_.budgets.w_first_w_last;
    case kBudgetBWait: return cfg_.budgets.w_last_b_vld;
    case kBudgetBHs: return cfg_.budgets.b_vld_b_rdy;
    case kBudgetAr: return cfg_.budgets.ar_vld_ar_rdy;
    case kBudgetREntry: return cfg_.budgets.ar_rdy_r_vld;
    case kBudgetRHs: return cfg_.budgets.r_vld_r_rdy;
    case kBudgetRData: return cfg_.budgets.r_vld_r_last;
    case kAdaptPerBeat: return cfg_.adaptive.cycles_per_beat;
    case kAdaptPerAhead: return cfg_.adaptive.cycles_per_ahead;
    case kFaultCount:
      return static_cast<std::uint32_t>(fault_log_.size());
    case kFaultInfo: {
      if (fault_read_ptr_ >= fault_log_.size()) return 0;
      const FaultRecord& f = fault_log_[fault_read_ptr_++];
      return pack_fault(static_cast<std::uint8_t>(f.kind), f.phase,
                        f.is_write, f.phase_valid, f.id, f.elapsed);
    }
    case kOccupancy:
      return (wg_.ott().occupancy() & 0xFFu) |
             (rg_.ott().occupancy() & 0xFFu) << 8 |
             (wg_.remapper().active_ids() & 0xFFu) << 16 |
             (rg_.remapper().active_ids() & 0xFFu) << 24;
    case kTxnCount:
      return static_cast<std::uint32_t>(wg_.stats().completed +
                                        rg_.stats().completed);
    case kCapacity:
      return (cfg_.max_uniq_ids & 0xFFu) |
             (cfg_.txn_per_uniq_id & 0xFFu) << 8 |
             (cfg_.max_outstanding() & 0xFFFFu) << 16;
    case kWrLatMin:
      return static_cast<std::uint32_t>(wg_.stats().total_latency.min());
    case kWrLatMax:
      return static_cast<std::uint32_t>(wg_.stats().total_latency.max());
    case kWrLatAvg:
      return static_cast<std::uint32_t>(wg_.stats().total_latency.mean() +
                                        0.5);
    case kRdLatMin:
      return static_cast<std::uint32_t>(rg_.stats().total_latency.min());
    case kRdLatMax:
      return static_cast<std::uint32_t>(rg_.stats().total_latency.max());
    case kRdLatAvg:
      return static_cast<std::uint32_t>(rg_.stats().total_latency.mean() +
                                        0.5);
    case kWrBeats:
      return static_cast<std::uint32_t>(wg_.stats().beats);
    case kRdBeats:
      return static_cast<std::uint32_t>(rg_.stats().beats);
    case kLogDropped:
      return static_cast<std::uint32_t>(fault_log_dropped_ & 0xFFFF) |
             static_cast<std::uint32_t>(
                 (wg_.perf_log_dropped() + rg_.perf_log_dropped()) & 0xFFFF)
                 << 16;
    default:
      return 0;
  }
}

void Tmu::write_reg(std::uint32_t offset, std::uint32_t value) {
  using namespace regs;
  // CTRL may flip `enabled`, which decides what a skipped tick did:
  // catch up under the old configuration first.
  wake();
  switch (offset) {
    case kCtrl:
      cfg_.enabled = value & 1u;
      cfg_.irq_enabled = value & 2u;
      cfg_.reset_on_fault = value & 4u;
      cfg_.adaptive.enabled = value & 8u;
      break;
    case kPrescaler:
      cfg_.prescaler_step = value & 0x7FFFFFFFu;
      if (cfg_.prescaler_step == 0) cfg_.prescaler_step = 1;
      cfg_.sticky_bit = value >> 31;
      break;
    case kTcBudget: cfg_.tc_total_budget = value; break;
    case kBudgetAw: cfg_.budgets.aw_vld_aw_rdy = value; break;
    case kBudgetWEntry: cfg_.budgets.aw_rdy_w_vld = value; break;
    case kBudgetWHs: cfg_.budgets.w_vld_w_rdy = value; break;
    case kBudgetWData: cfg_.budgets.w_first_w_last = value; break;
    case kBudgetBWait: cfg_.budgets.w_last_b_vld = value; break;
    case kBudgetBHs: cfg_.budgets.b_vld_b_rdy = value; break;
    case kBudgetAr: cfg_.budgets.ar_vld_ar_rdy = value; break;
    case kBudgetREntry: cfg_.budgets.ar_rdy_r_vld = value; break;
    case kBudgetRHs: cfg_.budgets.r_vld_r_rdy = value; break;
    case kBudgetRData: cfg_.budgets.r_vld_r_last = value; break;
    case kAdaptPerBeat: cfg_.adaptive.cycles_per_beat = value; break;
    case kAdaptPerAhead: cfg_.adaptive.cycles_per_ahead = value; break;
    case kIrqClear: clear_irq(); break;
    default:
      break;  // read-only or unmapped: ignore
  }
  // Register writes change eval-visible config without touching a wire
  // (tests call write_reg directly, bypassing the MMIO front-end).
  notify_state_change();
}

}  // namespace tmu
