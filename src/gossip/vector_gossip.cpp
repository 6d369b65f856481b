#include "gossip/vector_gossip.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/scoped_timer.hpp"

namespace gt::gossip {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

VectorGossip::VectorGossip(std::size_t n, PushSumConfig config, ThreadPool* pool)
    : n_(n),
      config_(config),
      pool_(pool),
      x_(simd::padded_size(n * n), 0.0),
      w_(simd::padded_size(n * n), 0.0),
      inbox_x_(simd::padded_size(n * n), 0.0),
      inbox_w_(simd::padded_size(n * n), 0.0),
      prev_ratio_(simd::padded_size(n * n), kNaN),
      stable_count_(n, 0),
      target_(n, kNoTarget),
      delivered_(n, 0),
      keep_(n, 1.0),
      in_off_(n + 1, 0),
      in_senders_(n, 0) {
  if (n == 0) throw std::invalid_argument("VectorGossip: n must be positive");
  // Written as negated in-range tests so NaN fails every one of them.
  if (!(std::isfinite(config_.epsilon) && config_.epsilon > 0.0))
    throw std::invalid_argument("VectorGossip: epsilon must be finite and > 0");
  if (!(config_.loss_probability >= 0.0 && config_.loss_probability <= 1.0))
    throw std::invalid_argument(
        "VectorGossip: loss_probability must be in [0, 1]");
  if (config_.stable_rounds == 0 || config_.max_steps == 0)
    throw std::invalid_argument(
        "VectorGossip: stable_rounds and max_steps must be >= 1");
  simd_level_ = simd::resolve_level(simd::SimdLevel::kAuto);
  kn_ = &simd::kernels(simd_level_);
  simd::assert_aligned(x_.data(), simd::kAlignment, "VectorGossip::x_");
  simd::assert_aligned(w_.data(), simd::kAlignment, "VectorGossip::w_");
  simd::assert_aligned(inbox_x_.data(), simd::kAlignment,
                       "VectorGossip::inbox_x_");
  simd::assert_aligned(inbox_w_.data(), simd::kAlignment,
                       "VectorGossip::inbox_w_");
  if (pool_ == nullptr && config_.num_threads != 1) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    pool_ = owned_pool_.get();
  }

  // One registry lane per worker lane; phase timings land in log-bucket
  // histograms spanning ~30ns .. ~30s.
  metrics_ = std::make_unique<telemetry::MetricsRegistry>(lanes());
  c_sent_ = metrics_->counter("gossip.messages_sent");
  c_lost_ = metrics_->counter("gossip.messages_lost");
  c_triplets_ = metrics_->counter("gossip.triplets_sent");
  telemetry::HistogramOptions phase_buckets{3e-8, 2.0, 30};
  h_send_ = metrics_->histogram("gossip.send_phase_seconds", phase_buckets);
  h_book_ = metrics_->histogram("gossip.bookkeeping_phase_seconds", phase_buckets);
}

void VectorGossip::set_event_log(telemetry::EventLog* events,
                                 std::size_t sample_every) {
  events_ = events;
  step_sample_every_ = sample_every;
}

void VectorGossip::set_trace(trace::TraceSink* sink, double base_time,
                             std::uint64_t trace_id,
                             std::uint64_t parent_span) {
  trace_ = sink;
  trace_base_time_ = base_time;
  trace_trace_id_ = trace_id;
  trace_parent_span_ = parent_span;
}

VectorGossip::CounterTotals VectorGossip::counter_totals() const noexcept {
  return CounterTotals{metrics_->counter_value(c_sent_),
                       metrics_->counter_value(c_lost_),
                       metrics_->counter_value(c_triplets_)};
}

void VectorGossip::for_chunks(std::size_t count, std::size_t num_chunks,
                              const ThreadPool::ChunkFn& fn) const {
  if (count == 0 || num_chunks == 0) return;
  if (num_chunks > count) num_chunks = count;
  if (pool_ != nullptr && pool_->num_threads() > 1 && num_chunks > 1) {
    pool_->parallel_for(0, count, num_chunks, fn);
  } else {
    ThreadPool::run_serial(0, count, num_chunks, fn);
  }
}

void VectorGossip::set_participants(std::vector<std::uint8_t> alive) {
  if (!alive.empty() && alive.size() != n_)
    throw std::invalid_argument("VectorGossip::set_participants: size mismatch");
  alive_ = std::move(alive);
  alive_list_.clear();
  if (!alive_.empty()) {
    for (NodeId v = 0; v < n_; ++v)
      if (alive_[v]) alive_list_.push_back(v);
    if (alive_list_.empty())
      throw std::invalid_argument("VectorGossip::set_participants: nobody alive");
  }
}

void VectorGossip::set_adversary(std::span<const double> x_scale,
                                 std::span<const std::uint8_t> withhold) {
  if (!x_scale.empty() && x_scale.size() != n_)
    throw std::invalid_argument("VectorGossip::set_adversary: x_scale size");
  if (!withhold.empty() && withhold.size() != n_)
    throw std::invalid_argument("VectorGossip::set_adversary: withhold size");
  for (const double c : x_scale)
    if (!(std::isfinite(c) && c > 0.0))
      throw std::invalid_argument(
          "VectorGossip::set_adversary: x_scale values must be finite and > 0");
  adv_scale_.assign(x_scale.begin(), x_scale.end());
  adv_withhold_.assign(withhold.begin(), withhold.end());
}

void VectorGossip::initialize(const trust::SparseMatrix& s, std::span<const double> v) {
  if (s.size() != n_ || v.size() != n_)
    throw std::invalid_argument("VectorGossip::initialize: size mismatch");
  std::fill(x_.begin(), x_.end(), 0.0);
  std::fill(w_.begin(), w_.end(), 0.0);
  std::fill(inbox_x_.begin(), inbox_x_.end(), 0.0);
  std::fill(inbox_w_.begin(), inbox_w_.end(), 0.0);
  std::fill(prev_ratio_.begin(), prev_ratio_.end(), kNaN);
  std::fill(stable_count_.begin(), stable_count_.end(), 0);
  streams_seeded_ = false;  // next step derives fresh per-node streams
  metrics_->reset();        // counters and timers cover this run only

  const double uniform = 1.0 / static_cast<double>(n_);
  for (NodeId i = 0; i < n_; ++i) {
    if (!is_alive(i)) continue;  // departed peers inject no reports
    double* xi = row_x(i);
    const auto entries = s.row(i);
    if (entries.empty()) {
      // Dangling rater: its reputation mass spreads uniformly, the same
      // rule SparseMatrix::transpose_multiply applies.
      const double share = v[i] * uniform;
      for (NodeId j = 0; j < n_; ++j) xi[j] = share;
    } else {
      for (const auto& e : entries) xi[e.col] = e.value * v[i];
    }
    row_w(i)[i] = 1.0;  // only node j holds the consensus factor for j
  }
}

void VectorGossip::seed_streams(std::uint64_t base) {
  if (node_rng_.size() != n_) node_rng_.resize(n_);
  for (NodeId i = 0; i < n_; ++i) node_rng_[i].reseed(mix64(base, i));
  streams_seeded_ = true;
}

void VectorGossip::route_phase(const graph::Graph* overlay) {
  const bool masked = !alive_.empty();
  const std::size_t chunks = std::min(lanes(), n_);
  for_chunks(n_, chunks, [&](std::size_t b, std::size_t e, std::size_t c) {
    CounterTotals ctr;  // chunk-local, folded into this lane's slots below
    for (NodeId i = b; i < e; ++i) {
      target_[i] = kNoTarget;
      delivered_[i] = 0;
      keep_[i] = 1.0;
      if (masked && !alive_[i]) continue;
      Rng& nr = node_rng_[i];

      NodeId target = i;
      bool have_target = true;
      if (config_.neighbors_only && overlay != nullptr) {
        const auto nbrs = overlay->neighbors(i);
        if (masked) {
          // Defensive: only push to live neighbors.
          NodeId pick = i;
          std::size_t seen = 0;
          for (const NodeId u : nbrs) {
            if (!alive_[u]) continue;
            ++seen;
            if (nr.next_below(seen) == 0) pick = u;  // reservoir-sample one
          }
          if (seen == 0) {
            have_target = false;
          } else {
            target = pick;
          }
        } else if (nbrs.empty()) {
          have_target = false;
        } else {
          target = nbrs[nr.next_below(nbrs.size())];
        }
      } else if (masked) {
        if (alive_list_.size() <= 1) {
          have_target = false;
        } else {
          do {
            target = alive_list_[nr.next_below(alive_list_.size())];
          } while (target == i);
        }
      } else if (n_ == 1) {
        // Single node: no other peer exists, keep both halves local (the
        // unguarded path would call next_below(0) and shift one past n).
        have_target = false;
      } else {
        target = nr.next_below(n_ - 1);
        if (target >= i) ++target;  // uniform over others
      }

      bool lost = false;
      if (have_target) {
        ++ctr.sent;
        if (config_.loss_probability > 0.0 &&
            nr.next_bool(config_.loss_probability)) {
          ++ctr.lost;
          lost = true;
        }
      }
      keep_[i] = have_target ? 0.5 : 1.0;
      if (have_target && !lost) {
        target_[i] = target;
        delivered_[i] = 1;
      }

      if (have_target) {
        // Route counts only the payloads gather never folds: a lost message
        // still carried its (un-halved) payload onto the wire, and a
        // withholding adversary ships only its own component. A delivered
        // full share is counted by its receiver in the same pass that
        // folds it (gather_phase).
        const double* xi = row_x(i);
        const double* wi = row_w(i);
        if (adv_withholds(i)) {
          const double h = lost ? 1.0 : 0.5;
          ctr.triplets += (h * xi[i] != 0.0 || h * wi[i] != 0.0) ? 1 : 0;
        } else if (lost) {
          ctr.triplets += kn_->count_nonzero_pair(xi, wi, 1.0, n_);
        }
      }
    }
    metrics_->add(c_sent_, ctr.sent, c);
    metrics_->add(c_lost_, ctr.lost, c);
    metrics_->add(c_triplets_, ctr.triplets, c);
  });
}

void VectorGossip::bucket_phase() {
  // Counting sort of delivered senders by target; iterating senders in
  // ascending order makes each receiver's bucket ascending too, which is
  // what pins the floating-point fold order in the gather phase.
  std::fill(in_off_.begin(), in_off_.end(), 0);
  for (NodeId i = 0; i < n_; ++i)
    if (delivered_[i]) ++in_off_[target_[i] + 1];
  for (std::size_t k = 1; k <= n_; ++k) in_off_[k] += in_off_[k - 1];
  for (NodeId i = 0; i < n_; ++i)
    if (delivered_[i]) in_senders_[in_off_[target_[i]]++] = i;
  // The insert pass advanced each start cursor to its end offset; shift
  // right to recover [start, end) ranges.
  for (std::size_t k = n_; k >= 1; --k) in_off_[k] = in_off_[k - 1];
  in_off_[0] = 0;
}

void VectorGossip::gather_phase() {
  const bool masked = !alive_.empty();
  const std::size_t chunks = std::min(lanes(), n_);
  for_chunks(n_, chunks, [&](std::size_t b, std::size_t e, std::size_t chunk) {
    std::uint64_t triplets = 0;  // delivered payloads folded by this chunk
    for (NodeId r = b; r < e; ++r) {
      if (masked && !alive_[r]) continue;  // dead rows stay zero in both buffers
      const double keep = keep_[r];
      const double* xr = row_x(r);
      const double* wr = row_w(r);
      double* nx = inbox_x_.data() + r * n_;
      double* nw = inbox_w_.data() + r * n_;
      const std::size_t sb = in_off_[r];
      const std::size_t se = in_off_[r + 1];

      // The keep-half assignment overwrites whatever the stale inbox row
      // held, so no separate clearing sweep is needed. A withholding
      // receiver that pushed this step (keep == 0.5) only parted with its
      // own component; the withheld halves stay whole.
      if (adv_withholds(r) && keep != 1.0) {
        std::copy_n(xr, n_, nx);
        std::copy_n(wr, n_, nw);
        nx[r] = keep * xr[r];
        nw[r] = keep * wr[r];
      } else {
        kn_->scale_assign(nx, xr, keep, n_);
        kn_->scale_assign(nw, wr, keep, n_);
      }
      // Every delivered share is folded as px = 0.5*x, pw = 0.5*w, senders
      // in ascending id so each component's accumulation order is a pure
      // function of the data, and counted as payload when either half is
      // nonzero (the predicate simd::Kernels::count_nonzero_pair applies).
      // A withholding sender's single component was counted by route_phase.
      for (std::size_t k = sb; k < se; ++k) {
        const NodeId s = in_senders_[k];
        const double* xs = row_x(s);
        const double* ws = row_w(s);
        if (adv_withholds(s)) {
          nx[s] += 0.5 * xs[s];
          nw[s] += 0.5 * ws[s];
        } else {
          triplets += kn_->accumulate_pair_count(nx, nw, xs, ws, 0.5, n_);
        }
      }

      // Gossip-layer liars: scale the *received* own-component x share,
      // minting (c-1) * half-share of counterfeit x mass per delivery.
      if (!adv_scale_.empty()) {
        for (std::size_t k = sb; k < se; ++k) {
          const NodeId s = in_senders_[k];
          const double c = adv_scale_[s];
          if (c != 1.0) nx[s] += (c - 1.0) * 0.5 * row_x(s)[s];
        }
      }

      track_row(r, nx, nw);
    }
    metrics_->add(c_triplets_, triplets, chunk);
  });
}

void VectorGossip::track_row(NodeId r, const double* x, const double* w) {
  // Local convergence bookkeeping (Algorithm 1 line 14, per component) on
  // row r's next state, run by gather while the row is still in L1. Only
  // live nodes get here, and only components owned by live peers can ever
  // hold a defined ratio (the owner seeds the consensus factor); a node is
  // stable only once every owned component is defined and has moved by at
  // most epsilon.
  double* prev = prev_ratio_.data() + r * n_;
  bool stable = true;
  if (alive_.empty()) {
    // Every component is owned: the vector kernel applies the same
    // per-element branches (see simd::Kernels::residual_nan).
    stable = kn_->residual_nan(x, w, prev, kWeightFloor, config_.epsilon, n_);
  } else {
    for (NodeId j = 0; j < n_; ++j) {
      if (!alive_[j]) continue;  // unowned component
      if (w[j] <= kWeightFloor) {
        prev[j] = kNaN;
        stable = false;
        continue;
      }
      const double ratio = x[j] / w[j];
      if (std::isnan(prev[j]) || std::abs(ratio - prev[j]) > config_.epsilon)
        stable = false;
      prev[j] = ratio;
    }
  }
  stable_count_[r] = stable ? stable_count_[r] + 1 : 0;
}

bool VectorGossip::bookkeeping_phase(VectorGossipResult& result) const {
  // The residual sweep itself ran inside gather (track_row); what is left
  // is the run's convergence verdict and the two sparsity figures, which
  // are derived rather than counted: the dense state holds n components
  // per live node, and every push leaves its zero pairs off the wire.
  const bool masked = !alive_.empty();
  const std::size_t live = masked ? alive_list_.size() : n_;
  result.active_triplets = static_cast<std::uint64_t>(live) * n_;
  result.zero_components_skipped =
      result.messages_sent * n_ - result.triplets_sent;
  for (std::size_t si = 0; si < live; ++si) {
    const NodeId i = masked ? alive_list_[si] : si;
    if (stable_count_[i] < config_.stable_rounds) return false;
  }
  return true;
}

bool VectorGossip::step(Rng& rng, const graph::Graph* overlay,
                        VectorGossipResult& result) {
  if (!streams_seeded_) seed_streams(rng.next_u64());
  // Counter partials land in the registry lanes during the phases; the
  // caller's result struct receives this step's merged delta.
  const CounterTotals before = counter_totals();
  {
    telemetry::ScopedTimer timer(*metrics_, h_send_, 0,
                                 &result.send_phase_seconds);
    route_phase(overlay);
    bucket_phase();
    gather_phase();
    x_.swap(inbox_x_);
    w_.swap(inbox_w_);
  }
  const CounterTotals after = counter_totals();
  result.messages_sent += after.sent - before.sent;
  result.messages_lost += after.lost - before.lost;
  result.triplets_sent += after.triplets - before.triplets;
  telemetry::ScopedTimer timer(*metrics_, h_book_, 0,
                               &result.bookkeeping_phase_seconds);
  return bookkeeping_phase(result);
}

VectorGossipResult VectorGossip::run(Rng& rng, const graph::Graph* overlay) {
  VectorGossipResult result;
  // Synchronous trace axis: step k of this run covers [base + k, base + k + 1).
  const bool traced = trace_ != nullptr;
  double trace_base = 0.0;
  std::uint64_t run_trace = 0;
  std::uint64_t prev_sent = 0, prev_lost = 0, prev_triplets = 0;
  if (traced) {
    trace_base =
        trace_base_time_ >= 0.0 ? trace_base_time_ : trace_->time_cursor();
    run_trace =
        trace_trace_id_ != 0 ? trace_trace_id_ : trace_->alloc_trace();
  }
  while (result.steps < config_.max_steps) {
    const bool all_stable = step(rng, overlay, result);
    ++result.steps;
    if (traced) {
      const double t0 = trace_base + static_cast<double>(result.steps - 1);
      const std::uint64_t step_span = trace_->alloc_span();
      // Phase sub-spans are synthetic equal quarters of the step interval
      // (wall timings would break byte-identical same-seed traces); their
      // values are this step's deterministic counter deltas. Emitted
      // before the step span so the mirrored JSONL sim_time stream stays
      // non-decreasing within the run's trace id.
      const double sent = static_cast<double>(result.messages_sent - prev_sent);
      const double lost = static_cast<double>(result.messages_lost - prev_lost);
      const double phase_value[4] = {
          sent, sent - lost,
          static_cast<double>(result.triplets_sent - prev_triplets),
          static_cast<double>(result.active_triplets)};
      prev_sent = result.messages_sent;
      prev_lost = result.messages_lost;
      prev_triplets = result.triplets_sent;
      for (std::uint32_t k = 0; k < 4; ++k) {
        trace::TraceRecord rec;
        rec.t_start = t0 + 0.25 * k;
        rec.t_end = t0 + 0.25 * (k + 1);
        rec.trace_id = run_trace;
        rec.span_id = trace_->alloc_span();
        rec.parent_id = step_span;
        rec.kind = static_cast<std::uint32_t>(trace::SpanKind::kPhase);
        rec.flags = k;
        rec.value = phase_value[k];
        trace_->emit(rec);
      }
      trace::TraceRecord rec;
      rec.t_start = t0;
      rec.t_end = t0 + 1.0;
      rec.trace_id = run_trace;
      rec.span_id = step_span;
      rec.parent_id = trace_parent_span_;
      rec.kind = static_cast<std::uint32_t>(trace::SpanKind::kGossipStep);
      rec.flags = static_cast<std::uint32_t>(result.steps - 1);
      rec.value = static_cast<double>(result.active_triplets);
      trace_->emit(rec);
    }
    if (events_ != nullptr && step_sample_every_ > 0 &&
        result.steps % step_sample_every_ == 0) {
      events_->record("gossip_step")
          .field("step", result.steps)
          .field("messages_sent", result.messages_sent)
          .field("messages_dropped", result.messages_lost)
          .field("triplets_sent", result.triplets_sent)
          .field("active_triplets", result.active_triplets);
    }
    if (all_stable) {
      result.converged = true;
      break;
    }
  }
  if (traced)
    trace_->bump_time_cursor(trace_base + static_cast<double>(result.steps));
  if (events_ != nullptr) {
    events_->record("gossip_run")
        .field("n", n_)
        .field("gossip_steps", result.steps)
        .field("converged", result.converged)
        .field("messages_sent", result.messages_sent)
        .field("messages_dropped", result.messages_lost)
        .field("triplets_sent", result.triplets_sent)
        .field("active_triplets", result.active_triplets)
        .field("zero_components_skipped", result.zero_components_skipped)
        .field("send_phase_seconds", result.send_phase_seconds)
        .field("bookkeeping_phase_seconds", result.bookkeeping_phase_seconds);
  }
  return result;
}

double VectorGossip::estimate(NodeId i, NodeId j) const {
  const double w = row_w(i)[j];
  if (w <= kWeightFloor) return std::numeric_limits<double>::quiet_NaN();
  return row_x(i)[j] / w;
}

std::vector<double> VectorGossip::node_view(NodeId i) const {
  std::vector<double> view(n_, 0.0);
  for (NodeId j = 0; j < n_; ++j) {
    const double e = estimate(i, j);
    if (!std::isnan(e)) view[j] = e;
  }
  return view;
}

std::vector<double> VectorGossip::consensus_means() const {
  // Fixed chunk grid: the reduction's merge order depends on (n, kChunks)
  // only, so the read-out is bit-identical for any thread count.
  constexpr std::size_t kReduceChunks = 32;
  const std::size_t chunks = std::min(n_, kReduceChunks);
  std::vector<std::vector<double>> acc(chunks);
  std::vector<std::vector<std::uint32_t>> cnt(chunks);
  for_chunks(n_, chunks, [&](std::size_t b, std::size_t e, std::size_t c) {
    auto& a = acc[c];
    auto& k = cnt[c];
    a.assign(n_, 0.0);
    k.assign(n_, 0);
    for (NodeId i = b; i < e; ++i) {
      if (!is_alive(i)) continue;
      kn_->ratio_accumulate(a.data(), k.data(), row_x(i), row_w(i),
                            kWeightFloor, n_);
    }
  });
  std::vector<double> mean(n_, 0.0);
  std::vector<std::uint32_t> total(n_, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    if (acc[c].empty()) continue;  // chunk never ran (count < chunks)
    // Chunk merge order stays c-ascending; within a chunk the add is
    // elementwise, so the fixed (n, kChunks) grid still pins every sum.
    kn_->add(mean.data(), acc[c].data(), n_);
    for (NodeId j = 0; j < n_; ++j) total[j] += cnt[c][j];
  }
  for (NodeId j = 0; j < n_; ++j)
    mean[j] = total[j] ? mean[j] / static_cast<double>(total[j]) : 0.0;
  return mean;
}

double VectorGossip::column_x_mass(NodeId j) const {
  double s = 0.0;
  for (NodeId i = 0; i < n_; ++i) s += row_x(i)[j];
  return s;
}

double VectorGossip::column_w_mass(NodeId j) const {
  double s = 0.0;
  for (NodeId i = 0; i < n_; ++i) s += row_w(i)[j];
  return s;
}

double VectorGossip::max_view_disagreement(NodeId a, NodeId b) const {
  double worst = 0.0;
  for (NodeId j = 0; j < n_; ++j) {
    const double ea = estimate(a, j);
    const double eb = estimate(b, j);
    if (std::isnan(ea) || std::isnan(eb)) continue;
    worst = std::max(worst, std::abs(ea - eb));
  }
  return worst;
}

}  // namespace gt::gossip
