/// \file topology.hpp
/// \brief Simulated IoT topology: coordinator, edge and cloud workers,
/// links, multi-hop routes, operator placement, and network channels.
///
/// The paper's architecture (Figure 1) runs NebulaMEOS on an Intel-Atom
/// edge device aboard the train, shipping only processed results to a
/// server. This module reproduces that architecture as a measurable
/// simulation: a topology of nodes and links, shortest-path routing
/// between any two nodes, and `NetworkChannel` — a simulated connection
/// that carries serialized tuple frames between two placed pipeline
/// segments while counting every byte. The optimizer's `PlacementPass`
/// (optimizer.hpp) annotates a plan with target nodes, `CompilePlan`
/// lowers node transitions to `NetworkChannelSink`/`NetworkChannelSource`
/// pairs over these channels, and `NodeEngine::Deployment` reports the
/// traffic each channel actually carried — the only way a
/// `DeploymentReport` is made.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "nebula/fault.hpp"
#include "nebula/metrics/metrics.hpp"

namespace nebulameos::nebula {

/// Role of a topology node.
enum class NodeKind { kCoordinator, kEdgeWorker, kCloudWorker };

/// \brief One physical (simulated) node.
struct TopologyNode {
  int id = 0;
  NodeKind kind = NodeKind::kEdgeWorker;
  std::string name;
  /// Relative compute speed (1.0 = reference edge device).
  double cpu_factor = 1.0;
};

/// \brief A directed link with bandwidth and propagation latency.
struct TopologyLink {
  int from = 0;
  int to = 0;
  double bandwidth_bytes_per_sec = 0.0;
  Duration latency = 0;
  /// Fault behaviour of this link (default: perfectly reliable). Channels
  /// routed over the link combine the profiles of every hop with the
  /// engine-level profile (fault.hpp).
  FaultProfile fault = {};
};

/// \brief A topology: nodes + links with lookup helpers.
class Topology {
 public:
  /// Adds a node; fails on duplicate id.
  Status AddNode(TopologyNode node);

  /// Adds a link; fails when an endpoint is unknown, bandwidth <= 0, or a
  /// link with the same (from, to) pair already exists (`AlreadyExists` —
  /// a silent duplicate would make `GetLink` ambiguous).
  Status AddLink(TopologyLink link);

  const std::vector<TopologyNode>& nodes() const { return nodes_; }
  const std::vector<TopologyLink>& links() const { return links_; }

  /// Node by id.
  Result<TopologyNode> GetNode(int id) const;

  /// Direct link from \p from to \p to.
  Result<TopologyLink> GetLink(int from, int to) const;

  /// Cheapest multi-hop route from \p from to \p to (Dijkstra; hop weight
  /// is the transfer time of a nominal 1 KB frame, so latency and
  /// bandwidth both count). Empty when \p from == \p to; `NotFound` when
  /// no route exists. Deterministic: ties resolve toward fewer hops, then
  /// lower node ids.
  Result<std::vector<TopologyLink>> ShortestPath(int from, int to) const;

  /// Builds the paper's reference topology: one coordinator (cloud), one
  /// cloud worker, and \p num_trains edge workers, each connected to the
  /// cloud worker by a constrained cellular uplink.
  static Topology SncbReference(int num_trains, double uplink_bytes_per_sec,
                                Duration uplink_latency);

 private:
  std::vector<TopologyNode> nodes_;
  std::vector<TopologyLink> links_;
};

/// \brief Traffic and latency accounting of one deployed query, measured
/// from the traffic its executed `NetworkChannel`s carried
/// (`MeasureDeployment`, read through `NodeEngine::Deployment`): payload
/// bytes per hop plus serialized wire bytes and frame counts.
struct DeploymentReport {
  /// Record payload bytes crossing each used link, keyed by (from, to).
  std::map<std::pair<int, int>, uint64_t> link_bytes;
  /// Serialization+propagation seconds per link: the wire bytes over the
  /// link's bandwidth plus one latency per frame.
  std::map<std::pair<int, int>, double> link_seconds;
  /// Total record payload bytes entering non-edge nodes from edge nodes.
  uint64_t uplink_bytes = 0;
  /// Sum over channels of their frames' transfer seconds along the route
  /// (sequential path model), retransmission backoff included.
  double total_transfer_seconds = 0.0;
  /// Serialized bytes including frame headers.
  uint64_t wire_bytes = 0;
  /// Frames shipped across all channels.
  uint64_t frames = 0;

  // --- Fault accounting (all zero when every channel ran fault-free) ---
  uint64_t frames_dropped = 0;     ///< injected in-transit losses
  uint64_t frames_duplicated = 0;  ///< injected duplicate deliveries
  uint64_t frames_reordered = 0;   ///< injected swaps with a later frame
  uint64_t frames_delayed = 0;     ///< injected multi-send delays
  uint64_t retransmits = 0;        ///< recovery re-sends that succeeded
  uint64_t frames_shed = 0;        ///< shed by policy (retain queue or gap)
  uint64_t duplicates_suppressed = 0;  ///< receiver-side dedup hits
  uint64_t frames_lost = 0;  ///< unrecoverable frames skipped by policy
  /// Worst health across the measured channels: Degraded once any fault
  /// was observed, Disconnected once any channel died.
  HealthState health = HealthState::kHealthy;
};

/// \brief One simulated network connection between two placed pipeline
/// segments, following the (possibly multi-hop) cheapest route between
/// its endpoints.
///
/// A `NetworkChannelSink` serializes each tuple buffer into a wire frame
/// and pushes it here; the paired `NetworkChannelSource` pops and
/// deserializes (operators.hpp). The channel accounts every transfer —
/// frames, record payload bytes, serialized wire bytes, and the transfer
/// seconds implied by each hop's bandwidth and latency — and
/// `MeasureDeployment` reads those counts into the deployment report.
///
/// Channels are reliable by default. `ConfigureFaults` arms a seeded
/// `FaultInjector` (fault.hpp) that drops, duplicates, reorders, delays
/// or disconnects frames deterministically, plus the retransmit machinery
/// that repairs those faults: every `Send` retains a bounded copy of the
/// frame keyed by its channel sequence number until the receiver `Ack`s
/// it; a receiver that detects a gap calls `RequestRetransmit`, which
/// re-injects the retained copy and prices the retry's exponential
/// backoff (plus seeded jitter) into the channel's transfer seconds.
class NetworkChannel {
 public:
  /// Resolves the cheapest route from \p from to \p to in \p topology and
  /// pre-classifies which hops are cellular uplink (edge → non-edge).
  /// The fault profiles of the route's links combine into the channel's
  /// base profile (reliable links leave it empty). Fails when an endpoint
  /// is unknown or no route exists.
  static Result<std::shared_ptr<NetworkChannel>> Connect(
      const Topology& topology, int from, int to);

  int from_node() const { return from_; }
  int to_node() const { return to_; }
  std::string EndpointsString() const {
    return std::to_string(from_) + "->" + std::to_string(to_);
  }

  /// Arms fault injection and recovery: the effective profile combines
  /// \p profile (engine- or env-level) with the route's link profiles,
  /// and \p retry bounds the retransmit queue and repair buffer. Call
  /// before the first `Send`; a profile with no behaviour and default
  /// retry options keep the channel on the zero-overhead reliable path.
  void ConfigureFaults(const FaultProfile& profile, const RetryOptions& retry);

  /// The effective fault profile (link profiles combined with whatever
  /// `ConfigureFaults` added; empty when unconfigured and reliable).
  const FaultProfile& fault_profile() const { return effective_profile_; }
  const RetryOptions& retry_options() const { return retry_; }

  /// Enqueues one serialized frame of \p payload_bytes record bytes
  /// carrying \p events records under channel sequence number \p seq
  /// (sender-assigned, contiguous from 0), accounting the transfer on
  /// every hop and applying the injected fault fate, if any. Sends on a
  /// disconnected channel are silently lost: counted as lost, and in no
  /// wire, frame or drop count of the channel or its instruments.
  void Send(uint64_t seq, std::vector<uint8_t> frame, uint64_t payload_bytes,
            uint64_t events);

  /// Pops the next in-flight frame; false when the channel is drained
  /// (or dead).
  bool Receive(std::vector<uint8_t>* frame);

  /// Receiver acknowledgement: retained copies of every frame with
  /// sequence number <= \p up_to_seq are released.
  void Ack(uint64_t up_to_seq);

  /// Receiver-driven recovery of frame \p seq: re-injects the retained
  /// copy (pricing the attempt's backoff into the transfer seconds) so the
  /// next `Receive` round can pick it up. Fails `Unavailable` when the
  /// channel is disconnected, `DataLoss` when the frame's retained copy
  /// was shed or never retained, `ResourceExhausted` past the attempt cap.
  Status RequestRetransmit(uint64_t seq);

  /// Releases any fault-held frames (the reorder slot, delayed frames)
  /// into the in-flight queue — the sender's end-of-stream flush, so no
  /// frame stays parked behind a send that never comes. No-op when dead.
  void FlushFaults();

  /// Permanently kills the channel, dropping in-flight, held and retained
  /// frames: the mid-run disconnect the degradation tests script, and the
  /// fate a `disconnect_after_frames` profile triggers on its own.
  void Kill();

  // --- Fault state (all zero / Healthy on the reliable path) ---

  bool disconnected() const { return Locked(disconnected_); }
  /// One past the highest sequence number accepted by `Send` — what the
  /// receiver must account for before declaring end-of-stream.
  uint64_t seq_end() const { return Locked(seq_end_); }
  uint64_t frames_dropped() const { return Locked(dropped_); }
  uint64_t frames_duplicated() const { return Locked(duplicated_); }
  uint64_t frames_reordered() const { return Locked(reordered_); }
  uint64_t frames_delayed() const { return Locked(delayed_); }
  uint64_t retransmits() const { return Locked(retransmits_); }
  /// Frames shed from the retain queue by policy plus gaps skipped by the
  /// receiver's shed policy.
  uint64_t frames_shed() const { return Locked(shed_); }
  uint64_t duplicates_suppressed() const { return Locked(dup_suppressed_); }
  uint64_t frames_lost() const { return Locked(lost_); }

  /// `Disconnected` when dead, `Degraded` once any fault/shed/loss was
  /// observed, else `Healthy`.
  HealthState health() const;

  /// Receiver-side bookkeeping hooks (`NetworkChannelSource`): surfaced
  /// here so deployment reports and metrics see the full per-channel
  /// fault story in one place.
  void NoteDuplicateSuppressed();
  void NoteFrameLost(uint64_t frames);

  /// Resolves this channel's live instruments: wire-byte/frame/event
  /// counters plus a per-frame transfer-latency histogram, recorded on
  /// every `Send` into a live channel (its route time) and every
  /// retransmit (its route time plus backoff, the seconds it adds to the
  /// deployment's transfer time), so the histogram's count equals the
  /// frames counter. Pointers must outlive the channel (the engine binds
  /// them out of the query's registry before the run starts). All four
  /// must be set together; unbound channels record nothing.
  void BindMetrics(metrics::Counter* wire_bytes, metrics::Counter* frames,
                   metrics::Counter* events,
                   metrics::Histogram* transfer_micros) {
    m_wire_bytes_ = wire_bytes;
    m_frames_ = frames;
    m_events_ = events;
    m_transfer_micros_ = transfer_micros;
  }

  /// Fault-path instruments, bound alongside `BindMetrics` when a fault
  /// profile is armed: injected drops, receiver retransmits, and frames
  /// shed or lost by policy. All three set together.
  void BindFaultMetrics(metrics::Counter* dropped, metrics::Counter* retrans,
                        metrics::Counter* shed) {
    m_dropped_ = dropped;
    m_retransmits_ = retrans;
    m_shed_ = shed;
  }

 private:
  NetworkChannel(int from, int to, std::vector<TopologyLink> route,
                 std::vector<bool> hop_is_uplink)
      : from_(from),
        to_(to),
        route_(std::move(route)),
        hop_is_uplink_(std::move(hop_is_uplink)) {}

  friend Result<DeploymentReport> MeasureDeployment(
      const std::vector<std::shared_ptr<NetworkChannel>>& channels);

  template <typename T>
  T Locked(const T& counter) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counter;
  }

  /// A retained frame awaiting acknowledgement.
  struct Retained {
    std::vector<uint8_t> frame;
    uint64_t payload_bytes = 0;
    uint64_t events = 0;
    uint32_t attempts = 0;  ///< retransmission attempts so far
  };

  /// Seconds one frame of \p wire_bytes takes across the whole route.
  double RouteSeconds(size_t wire_bytes) const;

  /// `health()`'s rule. Caller holds `mutex_`.
  HealthState HealthLocked() const;

  /// Appends \p frame to the in-flight queue, releasing a held reorder
  /// slot behind it. Caller holds `mutex_`.
  void Deliver(std::vector<uint8_t> frame);

  /// Kills the channel. Caller holds `mutex_`.
  void KillLocked();

  int from_ = 0;
  int to_ = 0;
  std::vector<TopologyLink> route_;
  std::vector<bool> hop_is_uplink_;

  mutable std::mutex mutex_;
  std::deque<std::vector<uint8_t>> in_flight_;
  uint64_t frames_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t wire_bytes_ = 0;
  double transfer_seconds_ = 0.0;

  // --- Fault machinery (inert until ConfigureFaults arms the injector
  // or a link profile configures one) ---
  FaultProfile link_profile_;       ///< combined route-link profiles
  FaultProfile effective_profile_;  ///< link + configured profiles
  RetryOptions retry_;
  std::unique_ptr<FaultInjector> injector_;  ///< null = reliable fast path
  bool retain_frames_ = false;  ///< retain copies for retransmission
  std::map<uint64_t, Retained> retained_;
  uint64_t seq_end_ = 0;       ///< one past the highest seq sent
  uint64_t acked_through_ = 0;  ///< one past the highest acked seq
  bool disconnected_ = false;
  /// One frame held back so the next send overtakes it (reorder fate).
  std::vector<uint8_t> reorder_slot_;
  bool reorder_held_ = false;
  /// Frames held back for `release_after` further sends (delay fate).
  struct DelayedFrame {
    std::vector<uint8_t> frame;
    uint64_t release_after = 0;
  };
  std::deque<DelayedFrame> delayed_frames_;
  uint64_t dropped_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t reordered_ = 0;
  uint64_t delayed_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t shed_ = 0;
  uint64_t dup_suppressed_ = 0;
  uint64_t lost_ = 0;

  // Metrics instruments (null until bound; set before the run starts and
  // immutable afterwards). They count what the fields above count.
  metrics::Counter* m_wire_bytes_ = nullptr;
  metrics::Counter* m_frames_ = nullptr;
  metrics::Counter* m_events_ = nullptr;
  metrics::Histogram* m_transfer_micros_ = nullptr;
  metrics::Counter* m_dropped_ = nullptr;
  metrics::Counter* m_retransmits_ = nullptr;
  metrics::Counter* m_shed_ = nullptr;
};

/// \brief Aggregates the traffic a set of executed channels carried into
/// one `DeploymentReport` (per-hop payload bytes and seconds, uplink
/// bytes, wire bytes, frames).
Result<DeploymentReport> MeasureDeployment(
    const std::vector<std::shared_ptr<NetworkChannel>>& channels);

}  // namespace nebulameos::nebula
