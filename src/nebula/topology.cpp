#include "nebula/topology.hpp"

#include <algorithm>
#include <limits>

namespace nebulameos::nebula {

Status Topology::AddNode(TopologyNode node) {
  for (const TopologyNode& n : nodes_) {
    if (n.id == node.id) {
      return Status::AlreadyExists("duplicate node id " +
                                   std::to_string(node.id));
    }
  }
  nodes_.push_back(std::move(node));
  return Status::OK();
}

Status Topology::AddLink(TopologyLink link) {
  if (link.bandwidth_bytes_per_sec <= 0.0) {
    return Status::InvalidArgument("link bandwidth must be > 0");
  }
  if (!GetNode(link.from).ok() || !GetNode(link.to).ok()) {
    return Status::InvalidArgument("link endpoint unknown");
  }
  if (GetLink(link.from, link.to).ok()) {
    return Status::AlreadyExists("duplicate link " +
                                 std::to_string(link.from) + "->" +
                                 std::to_string(link.to));
  }
  links_.push_back(link);
  return Status::OK();
}

Result<TopologyNode> Topology::GetNode(int id) const {
  for (const TopologyNode& n : nodes_) {
    if (n.id == id) return n;
  }
  return Status::NotFound("no node " + std::to_string(id));
}

Result<TopologyLink> Topology::GetLink(int from, int to) const {
  for (const TopologyLink& l : links_) {
    if (l.from == from && l.to == to) return l;
  }
  return Status::NotFound("no link " + std::to_string(from) + "->" +
                          std::to_string(to));
}

Result<std::vector<TopologyLink>> Topology::ShortestPath(int from,
                                                         int to) const {
  NM_RETURN_NOT_OK(GetNode(from).status());
  NM_RETURN_NOT_OK(GetNode(to).status());
  if (from == to) return std::vector<TopologyLink>{};
  // Dijkstra over the (small) node set. Hop weight: the transfer time of
  // a nominal 1 KB frame, so a 1 GB/s datacenter hop beats a cellular hop
  // even when their latencies match. Ties resolve toward fewer hops, then
  // the lower predecessor id, making routes deterministic.
  struct Best {
    double cost = std::numeric_limits<double>::infinity();
    int hops = std::numeric_limits<int>::max();
    int prev = -1;           // predecessor node id
    int via = -1;            // index into links_ of the arriving link
    bool settled = false;
  };
  constexpr double kNominalFrameBytes = 1024.0;
  std::map<int, Best> best;
  best[from] = Best{0.0, 0, -1, -1, false};
  while (true) {
    // Pick the cheapest unsettled node (lowest cost, then hops, then id).
    int current = -1;
    for (const auto& [id, b] : best) {
      if (b.settled) continue;
      if (current < 0) {
        current = id;
        continue;
      }
      const Best& c = best[current];
      if (b.cost < c.cost || (b.cost == c.cost && b.hops < c.hops)) {
        current = id;
      }
    }
    if (current < 0) break;
    if (current == to) break;
    Best& settled = best[current];
    settled.settled = true;
    for (size_t i = 0; i < links_.size(); ++i) {
      const TopologyLink& link = links_[i];
      if (link.from != current) continue;
      const double hop_cost = kNominalFrameBytes / link.bandwidth_bytes_per_sec +
                              ToSeconds(link.latency);
      const double cost = settled.cost + hop_cost;
      const int hops = settled.hops + 1;
      Best& b = best[link.to];  // default-inserts at infinity
      if (cost < b.cost || (cost == b.cost && hops < b.hops) ||
          (cost == b.cost && hops == b.hops && current < b.prev)) {
        b.cost = cost;
        b.hops = hops;
        b.prev = current;
        b.via = static_cast<int>(i);
      }
    }
  }
  const auto it = best.find(to);
  if (it == best.end() || it->second.via < 0) {
    return Status::NotFound("no route " + std::to_string(from) + "->" +
                            std::to_string(to));
  }
  std::vector<TopologyLink> route;
  for (int node = to; node != from;) {
    const Best& b = best[node];
    route.push_back(links_[static_cast<size_t>(b.via)]);
    node = b.prev;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

Topology Topology::SncbReference(int num_trains, double uplink_bytes_per_sec,
                                 Duration uplink_latency) {
  Topology topo;
  (void)topo.AddNode({0, NodeKind::kCoordinator, "coordinator", 4.0});
  (void)topo.AddNode({1, NodeKind::kCloudWorker, "cloud-worker", 4.0});
  // Coordinator <-> cloud worker on a fast datacenter link.
  (void)topo.AddLink({1, 0, 1e9, Millis(1)});
  (void)topo.AddLink({0, 1, 1e9, Millis(1)});
  for (int i = 0; i < num_trains; ++i) {
    const int id = 2 + i;
    (void)topo.AddNode(
        {id, NodeKind::kEdgeWorker, "train-" + std::to_string(i), 1.0});
    // Cellular uplink/downlink between the train and the cloud.
    (void)topo.AddLink({id, 1, uplink_bytes_per_sec, uplink_latency});
    (void)topo.AddLink({1, id, uplink_bytes_per_sec, uplink_latency});
  }
  return topo;
}

Result<std::shared_ptr<NetworkChannel>> NetworkChannel::Connect(
    const Topology& topology, int from, int to) {
  if (from == to) {
    return Status::InvalidArgument("channel endpoints must differ (node " +
                                   std::to_string(from) + ")");
  }
  NM_ASSIGN_OR_RETURN(std::vector<TopologyLink> route,
                      topology.ShortestPath(from, to));
  std::vector<bool> hop_is_uplink;
  hop_is_uplink.reserve(route.size());
  for (const TopologyLink& link : route) {
    NM_ASSIGN_OR_RETURN(TopologyNode from_node, topology.GetNode(link.from));
    NM_ASSIGN_OR_RETURN(TopologyNode to_node, topology.GetNode(link.to));
    hop_is_uplink.push_back(from_node.kind == NodeKind::kEdgeWorker &&
                            to_node.kind != NodeKind::kEdgeWorker);
  }
  auto channel = std::shared_ptr<NetworkChannel>(new NetworkChannel(
      from, to, std::move(route), std::move(hop_is_uplink)));
  // Lossy links make the channel lossy out of the box; ConfigureFaults
  // later combines the engine-level profile on top.
  FaultProfile link_profile;
  bool any_link_fault = false;
  for (const TopologyLink& link : channel->route_) {
    if (!link.fault.Any()) continue;
    link_profile = any_link_fault
                       ? CombineFaultProfiles(link_profile, link.fault)
                       : link.fault;
    any_link_fault = true;
  }
  if (any_link_fault) {
    channel->link_profile_ = link_profile;
    channel->effective_profile_ = link_profile;
    channel->injector_ = std::make_unique<FaultInjector>(link_profile);
    channel->retain_frames_ = true;
  }
  return channel;
}

void NetworkChannel::ConfigureFaults(const FaultProfile& profile,
                                     const RetryOptions& retry) {
  std::lock_guard<std::mutex> lock(mutex_);
  retry_ = retry;
  effective_profile_ = link_profile_.Any() && profile.Any()
                           ? CombineFaultProfiles(link_profile_, profile)
                           : (profile.Any() ? profile : link_profile_);
  if (effective_profile_.Any()) {
    injector_ = std::make_unique<FaultInjector>(effective_profile_);
    retain_frames_ = true;
  } else {
    injector_.reset();
    retain_frames_ = false;
  }
}

double NetworkChannel::RouteSeconds(size_t wire_bytes) const {
  double seconds = 0.0;
  for (const TopologyLink& link : route_) {
    seconds += static_cast<double>(wire_bytes) / link.bandwidth_bytes_per_sec +
               ToSeconds(link.latency);
  }
  return seconds;
}

void NetworkChannel::Deliver(std::vector<uint8_t> frame) {
  in_flight_.push_back(std::move(frame));
  if (reorder_held_) {
    // The held frame's successor just went out ahead of it: release it
    // behind the overtaker, completing the swap.
    in_flight_.push_back(std::move(reorder_slot_));
    reorder_slot_.clear();
    reorder_held_ = false;
  }
}

void NetworkChannel::KillLocked() {
  disconnected_ = true;
  in_flight_.clear();
  retained_.clear();
  reorder_slot_.clear();
  reorder_held_ = false;
  delayed_frames_.clear();
}

void NetworkChannel::Kill() {
  std::lock_guard<std::mutex> lock(mutex_);
  KillLocked();
}

void NetworkChannel::Send(uint64_t seq, std::vector<uint8_t> frame,
                          uint64_t payload_bytes, uint64_t events) {
  const double frame_seconds = RouteSeconds(frame.size());
  std::lock_guard<std::mutex> lock(mutex_);
  if (disconnected_) {
    // Sends into a dead channel vanish, counted only as lost; the
    // receiver's accounting against `seq_end_` is what surfaces the loss.
    lost_ += 1;
    return;
  }
  // The registry counts the sends the channel's own counters count.
  if (m_wire_bytes_ != nullptr) {
    m_wire_bytes_->Add(frame.size());
    m_frames_->Increment();
    m_events_->Add(events);
    m_transfer_micros_->Record(static_cast<int64_t>(frame_seconds * 1e6));
  }
  frames_ += 1;
  payload_bytes_ += payload_bytes;
  wire_bytes_ += frame.size();
  transfer_seconds_ += frame_seconds;
  seq_end_ = std::max(seq_end_, seq + 1);
  // Age delayed frames on every send; expired ones re-enter the stream
  // here, before the new frame, preserving "held back N sends" semantics.
  for (auto it = delayed_frames_.begin(); it != delayed_frames_.end();) {
    if (it->release_after > 0) {
      --it->release_after;
      ++it;
      continue;
    }
    Deliver(std::move(it->frame));
    it = delayed_frames_.erase(it);
  }
  if (injector_ == nullptr) {
    Deliver(std::move(frame));
    return;
  }
  // Retain a copy for retransmission until the receiver acknowledges it.
  if (retain_frames_) {
    if (retained_.size() >= retry_.retain_limit &&
        retry_.shed_policy != ShedPolicy::kBlock) {
      shed_ += 1;
      if (m_shed_ != nullptr) m_shed_->Increment();
      if (retry_.shed_policy == ShedPolicy::kDropOldest) {
        retained_.erase(retained_.begin());
        retained_[seq] = Retained{frame, payload_bytes, events, 0};
      }
      // kDropLate: the new frame is delivered but not retained — losing
      // it in transit would be unrepairable.
    } else {
      // kBlock retains past the limit: in this simulation the sender
      // cannot pause mid-Send, so "block" trades bounded memory for
      // guaranteed repairability (health turns Degraded via the shed
      // counter staying 0 but the queue depth showing in metrics).
      retained_[seq] = Retained{frame, payload_bytes, events, 0};
    }
  }
  switch (injector_->NextFate()) {
    case FaultInjector::Fate::kDeliver:
      Deliver(std::move(frame));
      break;
    case FaultInjector::Fate::kDrop:
      dropped_ += 1;
      if (m_dropped_ != nullptr) m_dropped_->Increment();
      break;
    case FaultInjector::Fate::kDuplicate: {
      duplicated_ += 1;
      std::vector<uint8_t> copy = frame;
      Deliver(std::move(frame));
      Deliver(std::move(copy));
      break;
    }
    case FaultInjector::Fate::kReorder:
      if (reorder_held_) {
        // Only one frame holds at a time; a second reorder while the slot
        // is occupied degenerates to a delivery completing the first swap.
        Deliver(std::move(frame));
      } else {
        reordered_ += 1;
        reorder_slot_ = std::move(frame);
        reorder_held_ = true;
      }
      break;
    case FaultInjector::Fate::kDelay:
      delayed_ += 1;
      delayed_frames_.push_back(
          DelayedFrame{std::move(frame), injector_->DelaySends()});
      break;
  }
  if (injector_->ShouldDisconnect(frames_)) KillLocked();
}

bool NetworkChannel::Receive(std::vector<uint8_t>* frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (in_flight_.empty()) return false;
  *frame = std::move(in_flight_.front());
  in_flight_.pop_front();
  return true;
}

void NetworkChannel::Ack(uint64_t up_to_seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  retained_.erase(retained_.begin(), retained_.upper_bound(up_to_seq));
  acked_through_ = std::max(acked_through_, up_to_seq + 1);
}

Status NetworkChannel::RequestRetransmit(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (disconnected_) {
    return Status::Unavailable("channel " + EndpointsString() +
                               " disconnected; frame " + std::to_string(seq) +
                               " unrecoverable");
  }
  if (seq < acked_through_) return Status::OK();  // duplicate request
  auto it = retained_.find(seq);
  if (it == retained_.end()) {
    return Status::DataLoss("channel " + EndpointsString() + ": frame " +
                            std::to_string(seq) +
                            " not retained (shed from the retransmit queue)");
  }
  Retained& entry = it->second;
  if (entry.attempts >= retry_.max_attempts) {
    return Status::ResourceExhausted(
        "channel " + EndpointsString() + ": frame " + std::to_string(seq) +
        " exceeded " + std::to_string(retry_.max_attempts) +
        " retransmission attempts");
  }
  entry.attempts += 1;
  // Backoff: base * 2^(attempt-1), capped, with seeded jitter of ±kJitter/2
  // of it — priced as simulated transfer time so lossy deployments show
  // their recovery cost deterministically.
  constexpr double kBackoffBaseSeconds = 0.05;
  constexpr double kBackoffCapSeconds = 2.0;
  constexpr double kJitter = 0.5;
  double backoff = kBackoffBaseSeconds;
  for (uint32_t a = 1; a < entry.attempts; ++a) backoff *= 2.0;
  backoff = std::min(backoff, kBackoffCapSeconds);
  if (injector_ != nullptr) {
    backoff *= 1.0 + kJitter * (injector_->JitterDraw() - 0.5);
  }
  retransmits_ += 1;
  if (m_retransmits_ != nullptr) m_retransmits_->Increment();
  frames_ += 1;
  payload_bytes_ += entry.payload_bytes;
  wire_bytes_ += entry.frame.size();
  const double retry_seconds = RouteSeconds(entry.frame.size()) + backoff;
  transfer_seconds_ += retry_seconds;
  if (m_wire_bytes_ != nullptr) {
    m_wire_bytes_->Add(entry.frame.size());
    m_frames_->Increment();
    m_events_->Add(entry.events);
    m_transfer_micros_->Record(static_cast<int64_t>(retry_seconds * 1e6));
  }
  // Retransmissions ride the recovery path directly — re-injecting faults
  // here would make bounded-attempt convergence probabilistic, and the
  // attempt cap already models a link too lossy to repair.
  in_flight_.push_front(entry.frame);
  return Status::OK();
}

void NetworkChannel::FlushFaults() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (disconnected_) return;
  if (reorder_held_) {
    in_flight_.push_back(std::move(reorder_slot_));
    reorder_slot_.clear();
    reorder_held_ = false;
  }
  for (DelayedFrame& delayed : delayed_frames_) {
    in_flight_.push_back(std::move(delayed.frame));
  }
  delayed_frames_.clear();
}

HealthState NetworkChannel::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return HealthLocked();
}

HealthState NetworkChannel::HealthLocked() const {
  if (disconnected_) return HealthState::kDisconnected;
  if (dropped_ > 0 || duplicated_ > 0 || reordered_ > 0 || delayed_ > 0 ||
      retransmits_ > 0 || shed_ > 0 || dup_suppressed_ > 0 || lost_ > 0) {
    return HealthState::kDegraded;
  }
  return HealthState::kHealthy;
}

void NetworkChannel::NoteDuplicateSuppressed() {
  std::lock_guard<std::mutex> lock(mutex_);
  dup_suppressed_ += 1;
}

void NetworkChannel::NoteFrameLost(uint64_t frames) {
  std::lock_guard<std::mutex> lock(mutex_);
  lost_ += frames;
  shed_ += frames;
  if (m_shed_ != nullptr) m_shed_->Add(frames);
}

Result<DeploymentReport> MeasureDeployment(
    const std::vector<std::shared_ptr<NetworkChannel>>& channels) {
  DeploymentReport report;
  for (const std::shared_ptr<NetworkChannel>& channel : channels) {
    if (!channel) return Status::InvalidArgument("null channel");
    std::lock_guard<std::mutex> lock(channel->mutex_);
    report.wire_bytes += channel->wire_bytes_;
    report.frames += channel->frames_;
    report.total_transfer_seconds += channel->transfer_seconds_;
    report.frames_dropped += channel->dropped_;
    report.frames_duplicated += channel->duplicated_;
    report.frames_reordered += channel->reordered_;
    report.frames_delayed += channel->delayed_;
    report.retransmits += channel->retransmits_;
    report.frames_shed += channel->shed_;
    report.duplicates_suppressed += channel->dup_suppressed_;
    report.frames_lost += channel->lost_;
    // Worst-of health: one dead channel marks the deployment Disconnected.
    const HealthState ch_health = channel->HealthLocked();
    if (static_cast<int>(ch_health) > static_cast<int>(report.health)) {
      report.health = ch_health;
    }
    for (size_t h = 0; h < channel->route_.size(); ++h) {
      const TopologyLink& link = channel->route_[h];
      const auto key = std::make_pair(link.from, link.to);
      report.link_bytes[key] += channel->payload_bytes_;
      report.link_seconds[key] +=
          static_cast<double>(channel->wire_bytes_) /
              link.bandwidth_bytes_per_sec +
          static_cast<double>(channel->frames_) * ToSeconds(link.latency);
      if (channel->hop_is_uplink_[h]) {
        report.uplink_bytes += channel->payload_bytes_;
      }
    }
  }
  return report;
}

}  // namespace nebulameos::nebula
