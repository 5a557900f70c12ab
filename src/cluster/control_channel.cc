#include "cluster/control_channel.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace dlrover {

ControlChannelStats& ControlChannelStats::operator+=(
    const ControlChannelStats& o) {
  messages_sent += o.messages_sent;
  messages_delivered += o.messages_delivered;
  messages_dropped += o.messages_dropped;
  messages_partition_dropped += o.messages_partition_dropped;
  messages_duplicated += o.messages_duplicated;
  messages_reordered += o.messages_reordered;
  retries += o.retries;
  sends_expired += o.sends_expired;
  acks_lost += o.acks_lost;
  epoch_fenced += o.epoch_fenced;
  plans_fenced_stale += o.plans_fenced_stale;
  stale_plan_applies += o.stale_plan_applies;
  node_partitions += o.node_partitions;
  cell_partitions += o.cell_partitions;
  master_crashes += o.master_crashes;
  master_restarts += o.master_restarts;
  return *this;
}

ControlChannel::ControlChannel(Simulator* sim,
                               const ControlChannelOptions& options)
    : sim_(sim), options_(options), rng_(options.seed) {}

ControlChannel::~ControlChannel() = default;

void ControlChannel::Record(ControlEventKind kind, uint64_t a, uint64_t b) {
  // Always on: a `b` past 56 bits would be truncated silently.
  if (b > ControlEvent::kMaxB) {
    DLROVER_LOG_STREAM(Error) << "control event detail " << b
                              << " does not fit in 56 bits";
    std::abort();
  }
  log_.push_back(ControlEvent{sim_->Now(), a, b, kind});
}

bool ControlChannel::Severed(ControlEndpoint src, ControlEndpoint dst,
                             bool charge) {
  const SimTime now = sim_->Now();
  if ((src == kBrain || dst == kBrain) && now < cell_partition_until_) {
    if (charge) ++cell_partition_drops_;
    return true;
  }
  for (ControlEndpoint ep : {src, dst}) {
    if (ep < 0) continue;
    const auto node = static_cast<size_t>(ep);
    if (node < node_partition_until_.size() &&
        now < node_partition_until_[node]) {
      if (charge) ++node_partition_drops_[node];
      return true;
    }
  }
  return false;
}

uint32_t ControlChannel::ArmSlot(ControlMessageKind kind, ControlEndpoint src,
                                 ControlEndpoint dst, int dst_master,
                                 bool reliable, InlineCallback&& deliver,
                                 InlineCallback&& on_expire) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Message& m = slots_[slot];
  m.kind = kind;
  m.src = src;
  m.dst = dst;
  m.dst_master = dst_master;
  m.reliable = reliable;
  m.acked = false;
  m.closed = false;
  m.seq = next_seq_++;
  m.first_send = sim_->Now();
  m.attempts = 0;
  m.inflight = 0;
  m.retry_held = false;
  m.retry_event = 0;
  m.deliver = std::move(deliver);
  m.on_expire = std::move(on_expire);
  m.armed = true;
  return slot;
}

void ControlChannel::MaybeRelease(uint32_t slot) {
  Message& m = slots_[slot];
  if (!m.armed || !m.closed || m.inflight != 0 || m.retry_event != 0) return;
  m.armed = false;
  ++m.gen;
  m.deliver = nullptr;
  m.on_expire = nullptr;
  free_slots_.push_back(slot);
}

void ControlChannel::Close(uint32_t slot) {
  slots_[slot].closed = true;
  MaybeRelease(slot);
}

void ControlChannel::Send(ControlMessageKind kind, ControlEndpoint src,
                          ControlEndpoint dst, InlineCallback deliver) {
  const uint32_t slot = ArmSlot(kind, src, dst, /*dst_master=*/-1,
                                /*reliable=*/false, std::move(deliver),
                                nullptr);
  Attempt(slot);
  // One shot: whatever copies (if any) made it onto the wire are all there
  // will ever be.
  Close(slot);
}

void ControlChannel::SendReliable(ControlMessageKind kind, ControlEndpoint src,
                                  ControlEndpoint dst, InlineCallback deliver,
                                  InlineCallback on_expire, int dst_master) {
  const uint32_t slot = ArmSlot(kind, src, dst, dst_master, /*reliable=*/true,
                                std::move(deliver), std::move(on_expire));
  Attempt(slot);
  if (!options_.retries_enabled) {
    // Retries disabled: the single attempt is all we get and the expiry
    // hook never fires (the unprotected arm's hazard).
    Close(slot);
  }
}

void ControlChannel::Attempt(uint32_t slot) {
  Message& m = slots_[slot];
  ++m.attempts;
  ++stats_.messages_sent;
  const ControlMessageKind kind = m.kind;
  const uint64_t seq = m.seq;
  const bool reliable = m.reliable;

  // Arrival of the earliest copy this attempt put on the wire.
  SimTime first_arrival = std::numeric_limits<SimTime>::infinity();
  if (Severed(m.src, m.dst, /*charge=*/true)) {
    ++stats_.messages_partition_dropped;
    Record(ControlEventKind::kPartitionDropped, static_cast<uint64_t>(kind),
           seq);
  } else if (rng_.Bernoulli(options_.drop_prob)) {
    ++stats_.messages_dropped;
    Record(ControlEventKind::kDropped, static_cast<uint64_t>(kind), seq);
  } else {
    first_arrival = ScheduleDelivery(slot);
    if (rng_.Bernoulli(options_.duplicate_prob)) {
      ++stats_.messages_duplicated;
      Record(ControlEventKind::kDuplicated, static_cast<uint64_t>(kind), seq);
      first_arrival = std::min(first_arrival, ScheduleDelivery(slot));
    }
  }

  Message& m2 = slots_[slot];
  if (reliable && options_.retries_enabled && !m2.acked && !m2.closed) {
    const double factor =
        std::min(static_cast<double>(1ull << std::min(m2.attempts - 1, 20)),
                 options_.retry_cap / std::max(options_.retry_base, 1e-9));
    const Duration backoff =
        std::min(options_.retry_base * factor, options_.retry_cap) *
        rng_.Uniform(0.5, 1.5);
    // The retry takes its time and its place in equal-time order now. A
    // copy due first holds it back: that copy's delivery either arms it or
    // drops it (Deliver).
    m2.retry_held = true;
    m2.retry_at = sim_->Now() + std::max(0.0, backoff);
    m2.retry_seq = sim_->ReserveSeq();
    if (first_arrival >= m2.retry_at) ArmRetry(slot);
  }
}

SimTime ControlChannel::ScheduleDelivery(uint32_t slot) {
  Message& m = slots_[slot];
  Duration latency = rng_.Uniform(options_.min_latency, options_.max_latency);
  if (rng_.Bernoulli(options_.reorder_prob)) {
    ++stats_.messages_reordered;
    Record(ControlEventKind::kReordered, static_cast<uint64_t>(m.kind), m.seq);
    latency += kReorderDelay;
  }
  const uint64_t attempt_epoch =
      (m.dst_master >= 0 &&
       static_cast<size_t>(m.dst_master) < masters_.size())
          ? masters_[m.dst_master].epoch
          : 0;
  ++m.inflight;
  const uint32_t gen = m.gen;
  const SimTime arrival = sim_->Now() + std::max(0.0, latency);
  sim_->ScheduleAt(arrival, [this, slot, gen, attempt_epoch] {
    Deliver(slot, gen, attempt_epoch);
  });
  return arrival;
}

void ControlChannel::ArmRetry(uint32_t slot) {
  Message& m = slots_[slot];
  if (!m.retry_held) return;
  m.retry_held = false;
  const uint32_t gen = m.gen;
  m.retry_event = sim_->ScheduleReserved(
      m.retry_at, m.retry_seq, [this, slot, gen] { RetryFire(slot, gen); });
}

void ControlChannel::Deliver(uint32_t slot, uint32_t gen,
                             uint64_t attempt_epoch) {
  {
    Message& m = slots_[slot];
    if (!m.armed || m.gen != gen) return;  // defensive; refcount prevents this
    assert(m.inflight > 0);
    --m.inflight;

    if (m.dst_master >= 0) {
      const auto h = static_cast<size_t>(m.dst_master);
      const bool landable = h < masters_.size() && masters_[h].registered &&
                            masters_[h].up &&
                            masters_[h].epoch == attempt_epoch;
      if (!landable) {
        // The destination master is down, or a replacement with a newer
        // epoch took over since this copy left the sender: fence it. The
        // retry loop re-captures the epoch, so a later attempt lands.
        ++stats_.epoch_fenced;
        Record(ControlEventKind::kEpochFenced, static_cast<uint64_t>(m.kind),
               m.seq);
        ArmRetry(slot);
        MaybeRelease(slot);
        return;
      }
    }
  }

  // Move the callback out while it runs: it may Send (growing the slab) or
  // even expire/ack this very message.
  InlineCallback deliver = std::move(slots_[slot].deliver);
  const bool reliable = slots_[slot].reliable;
  const ControlMessageKind kind = slots_[slot].kind;
  const uint64_t seq = slots_[slot].seq;
  const ControlEndpoint src = slots_[slot].src;
  const ControlEndpoint dst = slots_[slot].dst;
  ++stats_.messages_delivered;
  if (deliver) deliver();
  if (slots_[slot].armed && slots_[slot].gen == gen) {
    slots_[slot].deliver = std::move(deliver);
  }

  if (reliable) {
    // Ack return path: acks ride the same lossy network.
    if (Severed(dst, src, /*charge=*/true) ||
        rng_.Bernoulli(options_.drop_prob)) {
      ++stats_.acks_lost;
      Record(ControlEventKind::kAckLost, static_cast<uint64_t>(kind), seq);
      ArmRetry(slot);
    } else {
      Message& m = slots_[slot];
      if (m.armed && m.gen == gen) {
        const Duration latency =
            rng_.Uniform(options_.min_latency, options_.max_latency);
        const SimTime ack_at = sim_->Now() + std::max(0.0, latency);
        ++m.inflight;
        if (ack_at < m.retry_at) {
          // The ack lands first and closes the message: a held retry is
          // never needed.
          m.retry_held = false;
        } else {
          ArmRetry(slot);
        }
        sim_->ScheduleAt(ack_at, [this, slot, gen] {
          Message& mm = slots_[slot];
          if (!mm.armed || mm.gen != gen) return;
          assert(mm.inflight > 0);
          --mm.inflight;
          if (!mm.acked) {
            mm.acked = true;
            mm.retry_held = false;
            if (mm.retry_event != 0) {
              sim_->Cancel(mm.retry_event);
              mm.retry_event = 0;
            }
            Close(slot);
            return;
          }
          MaybeRelease(slot);
        });
      }
    }
  }
  MaybeRelease(slot);
}

void ControlChannel::RetryFire(uint32_t slot, uint32_t gen) {
  Message& m = slots_[slot];
  if (!m.armed || m.gen != gen) return;
  m.retry_event = 0;
  if (m.acked || m.closed) {
    MaybeRelease(slot);
    return;
  }
  if (sim_->Now() - m.first_send > options_.retry_deadline) {
    ++stats_.sends_expired;
    Record(ControlEventKind::kExpired, static_cast<uint64_t>(m.kind), m.seq);
    InlineCallback on_expire = std::move(m.on_expire);
    Close(slot);
    if (on_expire) on_expire();
    return;
  }
  ++stats_.retries;
  Record(ControlEventKind::kRetried, static_cast<uint64_t>(m.kind), m.seq);
  Attempt(slot);
}

void ControlChannel::PartitionNode(NodeId node, Duration duration) {
  const auto idx = static_cast<size_t>(node);
  if (idx >= node_partition_until_.size()) {
    node_partition_until_.resize(idx + 1, -1.0);
    node_partition_drops_.resize(idx + 1, 0);
  }
  const SimTime until = sim_->Now() + duration;
  node_partition_until_[idx] = std::max(node_partition_until_[idx], until);
  ++stats_.node_partitions;
  Record(ControlEventKind::kNodePartitionStart, node, 0);
  sim_->ScheduleAt(node_partition_until_[idx], [this, node] {
    if (!NodePartitioned(node)) {
      Record(ControlEventKind::kNodePartitionEnd, node, 0);
    }
  });
}

void ControlChannel::PartitionCell(Duration duration) {
  const SimTime until = sim_->Now() + duration;
  cell_partition_until_ = std::max(cell_partition_until_, until);
  ++stats_.cell_partitions;
  Record(ControlEventKind::kCellPartitionStart, 0, 0);
  sim_->ScheduleAt(cell_partition_until_, [this] {
    if (!CellPartitioned()) {
      Record(ControlEventKind::kCellPartitionEnd, 0, 0);
    }
  });
}

bool ControlChannel::NodePartitioned(NodeId node) const {
  const auto idx = static_cast<size_t>(node);
  return idx < node_partition_until_.size() &&
         sim_->Now() < node_partition_until_[idx];
}

bool ControlChannel::CellPartitioned() const {
  return sim_->Now() < cell_partition_until_;
}

uint64_t ControlChannel::node_partition_drops(NodeId node) const {
  const auto idx = static_cast<size_t>(node);
  return idx < node_partition_drops_.size() ? node_partition_drops_[idx] : 0;
}

int ControlChannel::RegisterMaster(ControlMasterEndpoint* master) {
  const int handle = static_cast<int>(masters_.size());
  MasterSlot slot;
  slot.endpoint = master;
  slot.registered = true;
  masters_.push_back(slot);
  return handle;
}

void ControlChannel::UnregisterMaster(int handle) {
  if (handle < 0 || static_cast<size_t>(handle) >= masters_.size()) return;
  masters_[handle].registered = false;
  masters_[handle].endpoint = nullptr;
}

bool ControlChannel::MasterUp(int handle) const {
  return handle >= 0 && static_cast<size_t>(handle) < masters_.size() &&
         masters_[handle].registered && masters_[handle].up;
}

uint64_t ControlChannel::MasterEpoch(int handle) const {
  if (handle < 0 || static_cast<size_t>(handle) >= masters_.size()) return 0;
  return masters_[handle].epoch;
}

size_t ControlChannel::MastersUp() const {
  size_t n = 0;
  for (const MasterSlot& m : masters_) {
    if (m.registered && m.up) ++n;
  }
  return n;
}

int ControlChannel::CrashMasterByOrdinal(size_t ordinal) {
  size_t seen = 0;
  for (size_t h = 0; h < masters_.size(); ++h) {
    MasterSlot& m = masters_[h];
    if (!m.registered || !m.up) continue;
    if (seen++ != ordinal) continue;
    m.up = false;
    ++stats_.master_crashes;
    Record(ControlEventKind::kMasterCrash, h, m.epoch);
    if (m.endpoint) m.endpoint->OnMasterCrash();
    if (options_.failover_enabled) {
      sim_->ScheduleAfter(options_.master_restart_delay, [this, h] {
        MasterSlot& mm = masters_[h];
        if (!mm.registered || mm.up) return;
        mm.up = true;
        ++mm.epoch;
        ++stats_.master_restarts;
        Record(ControlEventKind::kMasterRestart, h, mm.epoch);
        if (mm.endpoint) mm.endpoint->OnMasterRestart();
      });
    }
    return static_cast<int>(h);
  }
  return -1;
}

void ControlChannel::NotePlanFenced(uint64_t source, uint64_t plan_seq) {
  ++stats_.plans_fenced_stale;
  Record(ControlEventKind::kPlanFencedStale, source, plan_seq);
}

void ControlChannel::NoteStalePlanApplied(uint64_t source, uint64_t plan_seq) {
  ++stats_.stale_plan_applies;
  Record(ControlEventKind::kStalePlanApplied, source, plan_seq);
}

}  // namespace dlrover
