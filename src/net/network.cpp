#include "net/network.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace gt::net {

Network::Network(sim::Scheduler& scheduler, std::size_t num_nodes,
                 NetworkConfig config, Rng rng)
    : scheduler_(scheduler),
      config_(config),
      rng_(rng),
      node_up_(num_nodes, true) {}

std::uint64_t Network::link_key(NodeId a, NodeId b) noexcept {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
}

void Network::check_node(NodeId node, const char* fn) const {
  // Out-of-range node ids are always caller bugs; a release-mode-silent
  // assert would index out of bounds downstream, so fail loudly in every
  // build type (same convention as Rng::next_below(0)).
  if (node >= node_up_.size()) {
    std::fprintf(stderr, "fatal: net::Network::%s: node %zu out of range (n=%zu)\n",
                 fn, node, node_up_.size());
    std::abort();
  }
}

bool Network::is_node_up(NodeId node) const {
  check_node(node, "is_node_up");
  return node_up_[node];
}

void Network::attach_telemetry(telemetry::MetricsRegistry* registry,
                               telemetry::EventLog* events) {
  metrics_ = registry;
  events_ = events;
  if (metrics_ != nullptr) {
    m_sent_ = metrics_->counter("net.messages_sent");
    m_delivered_ = metrics_->counter("net.messages_delivered");
    m_dropped_ = metrics_->counter("net.messages_dropped");
    m_items_sent_ = metrics_->counter("net.items_sent");
    m_items_delivered_ = metrics_->counter("net.items_delivered");
    m_items_dropped_ = metrics_->counter("net.items_dropped");
    m_bytes_sent_ = metrics_->counter("net.bytes_sent");
    m_bytes_delivered_ = metrics_->counter("net.bytes_delivered");
    m_bytes_dropped_ = metrics_->counter("net.bytes_dropped");
  }
}

void Network::count_drop(NodeId from, NodeId to, std::size_t size_bytes,
                         std::uint32_t items, const char* reason) {
  ++stats_.messages_dropped;
  stats_.items_dropped += items;
  stats_.bytes_dropped += size_bytes;
  if (metrics_ != nullptr) {
    metrics_->add(m_dropped_);
    metrics_->add(m_items_dropped_, items);
    metrics_->add(m_bytes_dropped_, size_bytes);
  }
  if (events_ != nullptr) {
    events_->record("net_drop")
        .field("sim_time", scheduler_.now())
        .field("from", from)
        .field("to", to)
        .field("bytes", size_bytes)
        .field("reason", reason);
  }
}

bool Network::cross_partition(NodeId a, NodeId b) const {
  return !partition_.empty() && partition_[a] != partition_[b];
}

void Network::trace_event(const trace::TraceCtx& tctx, trace::SpanKind kind,
                          NodeId node, NodeId peer, std::uint32_t flags,
                          double value) {
  trace::TraceRecord rec;
  rec.t_start = rec.t_end = scheduler_.now();
  rec.trace_id = tctx.trace_id;
  rec.span_id = tctx.span_id;
  rec.parent_id = tctx.parent_id;
  rec.kind = static_cast<std::uint32_t>(kind);
  rec.flags = flags;
  rec.node = static_cast<std::uint32_t>(node);
  rec.peer = static_cast<std::uint32_t>(peer);
  rec.value = value;
  trace_->emit(rec);
}

void Network::finish(MsgHandle h, const PooledSend& sink) {
  if (pool_.release(h) && sink.on_release != nullptr) sink.on_release(sink.ctx);
}

void Network::deliver_primary(MsgHandle h) {
  // Copy the metadata: handlers may send (growing the slab and relocating
  // meta_), so a reference must not be held across them.
  const InFlightMeta m = meta_[h.slot];
  // The receiver may have gone down (or a partition opened) while the
  // message was in flight, and corrupted payloads fail their checksum on
  // arrival: the payload bytes never land, so they are accounted as
  // dropped and the sender's drop hook (if any) is told why.
  const char* drop_reason = nullptr;
  if (!node_up_[m.to]) {
    drop_reason = "receiver_down_in_flight";
  } else if (cross_partition(m.from, m.to)) {
    drop_reason = "partitioned_in_flight";
  } else if (m.corrupt_primary) {
    drop_reason = "corrupted";
    ++stats_.messages_corrupted;
  }
  if (drop_reason != nullptr) {
    count_drop(m.from, m.to, m.size_bytes, m.items, drop_reason);
    if (trace_ != nullptr && m.tctx.active())
      trace_event(m.tctx,
                  m.tctx.ack ? trace::SpanKind::kAckDrop
                             : trace::SpanKind::kMsgDrop,
                  m.from, m.to, trace::drop_reason_code(drop_reason),
                  static_cast<double>(m.size_bytes));
    if (m.sink.on_drop != nullptr)
      m.sink.on_drop(m.sink.ctx, pool_.payload(h), m.from, m.to, drop_reason);
  } else {
    ++stats_.messages_delivered;
    stats_.items_delivered += m.items;
    stats_.bytes_delivered += m.size_bytes;
    if (metrics_ != nullptr) {
      metrics_->add(m_delivered_);
      metrics_->add(m_items_delivered_, m.items);
      metrics_->add(m_bytes_delivered_, m.size_bytes);
    }
    if (trace_ != nullptr && m.tctx.active())
      trace_event(m.tctx,
                  m.tctx.ack ? trace::SpanKind::kAckDeliver
                             : trace::SpanKind::kMsgDeliver,
                  m.to, m.from, m.tctx.attempt,
                  static_cast<double>(m.size_bytes));
    if (m.sink.on_deliver != nullptr)
      m.sink.on_deliver(m.sink.ctx, pool_.payload(h), m.from, m.to);
  }
  finish(h, m.sink);
}

void Network::deliver_duplicate(MsgHandle h) {
  const InFlightMeta m = meta_[h.slot];
  // The duplicate is best-effort bonus traffic: its losses are silent and
  // never touch the primary sent/delivered/dropped invariant.
  if (node_up_[m.to] && !cross_partition(m.from, m.to) && !m.corrupt_dup) {
    ++stats_.duplicates_delivered;
    if (m.sink.on_deliver != nullptr)
      m.sink.on_deliver(m.sink.ctx, pool_.payload(h), m.from, m.to);
  }
  finish(h, m.sink);
}

bool Network::send_pooled(NodeId from, NodeId to, std::size_t size_bytes,
                          std::uint32_t items, MsgHandle h,
                          const PooledSend& sink, const trace::TraceCtx& tctx) {
  check_node(from, "send_pooled");
  check_node(to, "send_pooled");
  const bool traced = trace_ != nullptr && tctx.active();
  if (traced)
    trace_event(tctx,
                tctx.ack ? trace::SpanKind::kAckSend : trace::SpanKind::kMsgSend,
                from, to, tctx.attempt, static_cast<double>(size_bytes));
  ++stats_.messages_sent;
  stats_.items_sent += items;
  stats_.bytes_sent += size_bytes;
  if (metrics_ != nullptr) {
    metrics_->add(m_sent_);
    metrics_->add(m_items_sent_, items);
    metrics_->add(m_bytes_sent_, size_bytes);
  }

  const char* reason = nullptr;
  if (!node_up_[from]) {
    reason = "sender_down";
  } else if (!node_up_[to]) {
    reason = "receiver_down";
  } else if (link_failed(from, to)) {
    reason = "link_failed";
  } else if (cross_partition(from, to)) {
    reason = "partitioned";
  } else if (rng_.next_bool(config_.loss_probability)) {
    reason = "loss";
  }
  if (reason != nullptr) {
    count_drop(from, to, size_bytes, items, reason);
    if (traced)
      trace_event(tctx,
                  tctx.ack ? trace::SpanKind::kAckDrop : trace::SpanKind::kMsgDrop,
                  from, to, trace::drop_reason_code(reason),
                  static_cast<double>(size_bytes));
    finish(h, sink);
    return false;
  }

  // RNG draw order is part of the determinism contract: corruption
  // (primary), duplication, primary jitter, then — only when a duplicate
  // was drawn — duplicate corruption and duplicate jitter. Disabled knobs
  // (probability 0) consume no randomness, so runs without faults keep
  // the exact streams of earlier revisions.
  const bool corrupt_primary = rng_.next_bool(config_.corrupt_probability);
  const bool duplicate = rng_.next_bool(config_.duplicate_probability);
  double delay = config_.base_latency;
  if (config_.jitter > 0.0) delay += rng_.next_double(0.0, config_.jitter);

  if (meta_.size() < pool_.slab_size()) meta_.resize(pool_.slab_size());
  InFlightMeta& m = meta_[h.slot];
  m.sink = sink;
  m.tctx = tctx;
  m.from = from;
  m.to = to;
  m.size_bytes = size_bytes;
  m.items = items;
  m.corrupt_primary = corrupt_primary;
  m.corrupt_dup = false;

  if (duplicate) {
    ++stats_.messages_duplicated;
    m.corrupt_dup = rng_.next_bool(config_.corrupt_probability);
    double dup_delay = config_.base_latency;
    if (config_.jitter > 0.0) dup_delay += rng_.next_double(0.0, config_.jitter);
    pool_.add_ref(h);  // the copy shares the payload slot
    // Scheduled before the primary so that at equal delivery times the
    // copy's lower sequence number runs first (legacy event order).
    scheduler_.schedule_after(dup_delay, [this, h] { deliver_duplicate(h); });
  }

  scheduler_.schedule_after(delay, [this, h] { deliver_primary(h); });
  return true;
}

void Network::set_node_up(NodeId node, bool up) {
  check_node(node, "set_node_up");
  if (events_ != nullptr && node_up_[node] != up) {
    events_->record("net_outage")
        .field("sim_time", scheduler_.now())
        .field("kind", up ? "node_up" : "node_down")
        .field("node", node);
  }
  node_up_[node] = up;
}

void Network::fail_link(NodeId a, NodeId b) {
  check_node(a, "fail_link");
  check_node(b, "fail_link");
  if (events_ != nullptr && !link_failed(a, b)) {
    events_->record("net_outage")
        .field("sim_time", scheduler_.now())
        .field("kind", "link_failed")
        .field("a", a)
        .field("b", b);
  }
  failed_links_.insert(link_key(a, b));
}

void Network::heal_link(NodeId a, NodeId b) {
  check_node(a, "heal_link");
  check_node(b, "heal_link");
  if (events_ != nullptr && link_failed(a, b)) {
    events_->record("net_outage")
        .field("sim_time", scheduler_.now())
        .field("kind", "link_healed")
        .field("a", a)
        .field("b", b);
  }
  failed_links_.erase(link_key(a, b));
}

bool Network::link_failed(NodeId a, NodeId b) const {
  check_node(a, "link_failed");
  check_node(b, "link_failed");
  return failed_links_.count(link_key(a, b)) != 0;
}

void Network::set_partition(const std::vector<int>& group_of_node) {
  if (group_of_node.size() != node_up_.size()) {
    std::fprintf(stderr,
                 "fatal: net::Network::set_partition: %zu group entries for "
                 "%zu nodes\n",
                 group_of_node.size(), node_up_.size());
    std::abort();
  }
  if (events_ != nullptr) {
    events_->record("net_outage")
        .field("sim_time", scheduler_.now())
        .field("kind", "partition_start")
        .field("nodes", group_of_node.size());
  }
  partition_ = group_of_node;
}

void Network::clear_partition() {
  if (events_ != nullptr && !partition_.empty()) {
    events_->record("net_outage")
        .field("sim_time", scheduler_.now())
        .field("kind", "partition_end");
  }
  partition_.clear();
}

}  // namespace gt::net
