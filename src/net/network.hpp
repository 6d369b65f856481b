// Simulated message-passing network.
//
// Gossip messages in GossipTrust travel over an unreliable network: the
// paper claims the protocol "does not require error recovery mechanisms"
// and "tolerates link failures", so the network model supports per-message
// loss, per-link outages, node up/down state, latency, network partitions,
// and duplication/corruption in transit (the knobs the fault-injection
// subsystem drives).
//
// One send path, send_pooled(): the payload lives in a slab-recycled
// MessagePool buffer and the sender provides plain function pointers
// (deliver / drop / release) plus one context pointer, so an in-flight
// message costs zero heap allocations in steady state and its scheduler
// event captures just {network, handle, flag}. It accounts message and
// byte counts for the overhead experiments, plus logical item counts so a
// batched wire message (one event, k triplets) still reports its k items
// to TrafficStats and telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "net/message_pool.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "trace/trace.hpp"

namespace gt::net {

using NodeId = std::size_t;

/// Aggregate traffic counters, one per Network instance. Invariant (once
/// all in-flight messages have been drained by the scheduler):
///   messages_sent == messages_delivered + messages_dropped
///   items_sent    == items_delivered + items_dropped
///   bytes_sent    == bytes_delivered + bytes_dropped + in-flight bytes
/// messages_* count wire messages (a batch is one message); items_* count
/// the logical units the sender declared (e.g. gossip triplets in a batch),
/// so the two series reconcile batching against per-item accounting.
/// Duplicate copies are accounted separately (messages_duplicated /
/// duplicates_delivered) and never perturb the primary invariant.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;   ///< lost to link failure / dead node
  std::uint64_t messages_corrupted = 0; ///< subset of dropped: checksum fail
  std::uint64_t messages_duplicated = 0;   ///< extra copies created in transit
  std::uint64_t duplicates_delivered = 0;  ///< extra copies that landed
  std::uint64_t items_sent = 0;        ///< logical units across all messages
  std::uint64_t items_delivered = 0;
  std::uint64_t items_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t bytes_dropped = 0;      ///< payload of dropped messages
                                        ///< (send-time and delivery-time)

  double delivery_ratio() const noexcept {
    return messages_sent ? static_cast<double>(messages_delivered) /
                               static_cast<double>(messages_sent)
                         : 1.0;
  }

  void reset() { *this = TrafficStats{}; }
};

/// Network configuration knobs.
struct NetworkConfig {
  double loss_probability = 0.0;      ///< i.i.d. per-message drop probability
  double base_latency = 1.0;          ///< fixed propagation delay (sim time units)
  double jitter = 0.0;                ///< uniform extra delay in [0, jitter)
  double duplicate_probability = 0.0; ///< per-message chance of a second copy
  double corrupt_probability = 0.0;   ///< per-copy chance of in-transit corruption
};

/// Simulated network: connects node callbacks through the event scheduler.
class Network {
 public:
  /// Send callbacks: plain function pointers sharing one context pointer,
  /// so registering them allocates nothing. The payload span is valid only
  /// for the duration of the call. A drop's `reason` is a static string
  /// ("receiver_down_in_flight", "partitioned_in_flight", "corrupted").
  using DeliverFn = void (*)(void* ctx, std::span<const std::byte> payload,
                             NodeId from, NodeId to);
  using DropFn = void (*)(void* ctx, std::span<const std::byte> payload,
                          NodeId from, NodeId to, const char* reason);
  using ReleaseFn = void (*)(void* ctx);

  /// Sink for one pooled message. `on_deliver` runs at delivery (possibly
  /// twice when a duplicate copy lands); `on_drop` runs instead for an
  /// in-flight loss of the primary copy (send-time drops are reported only
  /// by send_pooled() returning false; duplicate-copy losses are silent);
  /// `on_release` runs exactly once when the message's pool slot retires —
  /// after the last deliver or drop — and is the hook for freeing `ctx`.
  /// Any of the three may be null.
  struct PooledSend {
    DeliverFn on_deliver = nullptr;
    DropFn on_drop = nullptr;
    ReleaseFn on_release = nullptr;
    void* ctx = nullptr;
  };

  Network(sim::Scheduler& scheduler, std::size_t num_nodes, NetworkConfig config,
          Rng rng);

  std::size_t num_nodes() const noexcept { return node_up_.size(); }

  /// Takes a recycled payload buffer of `bytes` writable bytes. Fill it via
  /// payload(), then pass the handle to send_pooled(), which assumes
  /// ownership (including on send-time drop).
  MsgHandle acquire_payload(std::size_t bytes) { return pool_.acquire(bytes); }
  std::span<std::byte> payload(MsgHandle h) { return pool_.payload(h); }

  /// Sends the pooled message `h` (accounted as `size_bytes` wire bytes and
  /// `items` logical units) from `from` to `to`. Returns true when the
  /// message was enqueued for delivery; false means it was dropped at send
  /// time — the payload is still readable until this call returns, but the
  /// handle is consumed either way. A duplicate copy is scheduled before
  /// the primary. When a trace sink is attached and `tctx.active()`, the
  /// hop's send and its outcome (deliver/drop) are recorded under the
  /// caller's span — purely observational, no scheduling or RNG impact.
  /// An out-of-range node id aborts.
  bool send_pooled(NodeId from, NodeId to, std::size_t size_bytes,
                   std::uint32_t items, MsgHandle h, const PooledSend& sink,
                   const trace::TraceCtx& tctx = {});

  /// Marks a node down: messages to/from it are dropped.
  void set_node_up(NodeId node, bool up);
  bool is_node_up(NodeId node) const;

  /// Fails or heals a specific (unordered) link.
  void fail_link(NodeId a, NodeId b);
  void heal_link(NodeId a, NodeId b);
  bool link_failed(NodeId a, NodeId b) const;
  std::size_t failed_link_count() const noexcept { return failed_links_.size(); }

  /// Splits the network: `group_of_node[i]` is node i's partition group;
  /// traffic between different groups is dropped ("partitioned" at send
  /// time, "partitioned_in_flight" at delivery time). Must have exactly
  /// num_nodes() entries. clear_partition() heals the split.
  void set_partition(const std::vector<int>& group_of_node);
  void clear_partition();
  bool partitioned() const noexcept { return !partition_.empty(); }
  /// True when a and b are currently in different partition groups.
  bool cross_partition(NodeId a, NodeId b) const;

  const TrafficStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// The payload pool (exposed for allocation-behaviour assertions: slab
  /// high-water mark, live count, freelist reuse).
  const MessagePool& pool() const noexcept { return pool_; }

  const NetworkConfig& config() const noexcept { return config_; }
  void set_loss_probability(double p) { config_.loss_probability = p; }
  void set_duplicate_probability(double p) { config_.duplicate_probability = p; }
  void set_corrupt_probability(double p) { config_.corrupt_probability = p; }

  /// Mirrors traffic counters into `registry` (lane 0; the simulated
  /// network is single-threaded) and emits one `net_drop` record per
  /// dropped message plus `net_outage` records on node/link/partition
  /// state changes into `events`. Either pointer may be null; call before
  /// traffic flows.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::EventLog* events);

  /// Records per-message hop spans into `sink` for sends that carry an
  /// active TraceCtx. Null detaches. Observational only.
  void attach_trace(trace::TraceSink* sink) { trace_ = sink; }

 private:
  /// Per-in-flight-message bookkeeping, parallel to the pool slab (indexed
  /// by slot). Valid while the slot is live; scheduler events carry only
  /// the generation-checked handle.
  struct InFlightMeta {
    PooledSend sink;
    trace::TraceCtx tctx;
    NodeId from = 0;
    NodeId to = 0;
    std::size_t size_bytes = 0;
    std::uint32_t items = 0;
    bool corrupt_primary = false;
    bool corrupt_dup = false;
  };

  static std::uint64_t link_key(NodeId a, NodeId b) noexcept;
  void check_node(NodeId node, const char* fn) const;
  void count_drop(NodeId from, NodeId to, std::size_t size_bytes,
                  std::uint32_t items, const char* reason);
  void trace_event(const trace::TraceCtx& tctx, trace::SpanKind kind,
                   NodeId node, NodeId peer, std::uint32_t flags, double value);
  void deliver_primary(MsgHandle h);
  void deliver_duplicate(MsgHandle h);
  /// Drops one pool reference; on retirement fires the sink's release hook.
  void finish(MsgHandle h, const PooledSend& sink);

  sim::Scheduler& scheduler_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<bool> node_up_;
  std::unordered_set<std::uint64_t> failed_links_;
  std::vector<int> partition_;  ///< empty = no partition
  TrafficStats stats_;
  MessagePool pool_;
  std::vector<InFlightMeta> meta_;  ///< slot-indexed, grown with the slab

  telemetry::EventLog* events_ = nullptr;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  trace::TraceSink* trace_ = nullptr;
  telemetry::Counter m_sent_, m_delivered_, m_dropped_;
  telemetry::Counter m_items_sent_, m_items_delivered_, m_items_dropped_;
  telemetry::Counter m_bytes_sent_, m_bytes_delivered_, m_bytes_dropped_;
};

}  // namespace gt::net
