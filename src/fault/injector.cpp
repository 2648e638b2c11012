#include "fault/injector.hpp"

#include "util/assert.hpp"

namespace rdmasem::fault {

void FaultInjector::schedule(const FaultPlan& plan) {
  // One event per edge, keyed by the scheduling lane (the driver): all
  // edges of one call take consecutive keys, so at any timestamp they form
  // one contiguous run in (at, key) order with no traffic inside it.
  for (const FaultEvent& ev : plan.events) {
    const std::uint32_t lane = notify_lane(ev);
    engine_.schedule_on(lane, ev.at, [this, ev] { begin(ev); });
    if (ev.kind != FaultKind::kCrash && ev.kind != FaultKind::kRestart)
      engine_.schedule_on(lane, ev.at + ev.duration,
                          [this, ev] { end(ev); });
  }
}

void FaultInjector::apply_begin(FaultState& st, const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kLossBurst:
      st.link(ev.machine, ev.port).loss_prob = ev.loss_prob;
      st.retain();
      break;
    case FaultKind::kLatencySpike:
      st.link(ev.machine, ev.port).extra_latency += ev.extra_latency;
      st.retain();
      break;
    case FaultKind::kLinkDown:
      ++st.link(ev.machine, ev.port).down;
      st.retain();
      break;
    case FaultKind::kPartition:
      st.add_partition(ev.machine, ev.peer);
      st.retain();
      break;
    case FaultKind::kNicStall:
      // The pipeline freeze itself is a listener effect (the cluster owns
      // the RNIC resources); the state only flags activity.
      st.retain();
      break;
    case FaultKind::kCrash:
      st.crash(ev.machine);
      st.retain();
      break;
    case FaultKind::kRestart:
      st.restore(ev.machine);
      st.release();
      break;
  }
}

bool FaultInjector::apply_end(FaultState& st, const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kLossBurst:
      st.link(ev.machine, ev.port).loss_prob = -1.0;
      st.release();
      break;
    case FaultKind::kLatencySpike: {
      auto& lf = st.link(ev.machine, ev.port);
      RDMASEM_CHECK_MSG(lf.extra_latency >= ev.extra_latency,
                        "latency spike underflow");
      lf.extra_latency -= ev.extra_latency;
      st.release();
      break;
    }
    case FaultKind::kLinkDown: {
      auto& lf = st.link(ev.machine, ev.port);
      RDMASEM_CHECK_MSG(lf.down > 0, "link up without link down");
      --lf.down;
      st.release();
      break;
    }
    case FaultKind::kPartition:
      st.remove_partition(ev.machine, ev.peer);
      st.release();
      break;
    case FaultKind::kNicStall:
      st.release();
      break;
    case FaultKind::kCrash:
    case FaultKind::kRestart:
      // Begin-only edges; a crash lifts via an explicit kRestart event.
      return false;
  }
  return true;
}

void FaultInjector::begin(const FaultEvent& ev) {
  apply_begin(state_, ev);
  ++injected_;
  notify(ev, /*is_begin=*/true);
}

void FaultInjector::end(const FaultEvent& ev) {
  if (apply_end(state_, ev)) notify(ev, /*is_begin=*/false);
}

void FaultInjector::notify(const FaultEvent& ev, bool is_begin) {
  for (const auto& l : listeners_) l(ev, is_begin);
}

}  // namespace rdmasem::fault
