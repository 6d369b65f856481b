// Causal tracing layer: deterministic span/trace ids for gossip cycles,
// phases, and individual network messages, recorded in sim-time into a
// ring-buffered binary flight-recorder sink.
//
// Design contract (the reason this file exists as its own subsystem):
//
//   * Observational. Emitting a record never schedules an event, never
//     draws randomness, and never touches protocol state, so gossip
//     results are bit-identical with tracing on or off, at any thread
//     count. All emissions happen from serial orchestration sections.
//   * Deterministic. Records carry *simulated* time only — never wall
//     clock — and every id comes from a monotonic counter advanced in
//     event-execution order. Two runs with the same seed therefore
//     produce byte-identical trace files.
//   * Causal. A span's parent_id links it to the span that caused it:
//     a retransmitted data copy parents to the previous hop, an ack
//     parents to the data hop it confirms, a gossip step parents to its
//     aggregation cycle — so a triplet's full hop chain (send -> drop ->
//     retransmit -> ack) is one tree under one trace id.
//   * Bounded. Records land in a fixed-capacity ring (overwrite-oldest);
//     the file header reports how many were emitted vs. retained, so an
//     overflowing recorder is loud, not silently truncated.
//
// The binary file (header + fixed 64-byte records) is read back by
// read_trace_file(); tools/trace_analyze renders it, checks invariants,
// and exports Chrome trace-event JSON loadable in Perfetto (perfetto.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/event_log.hpp"

namespace gt::trace {

/// Record kinds. Span kinds (kCycle, kGossipStep, kPhase) cover a time
/// interval [t_start, t_end); everything else is an instant (t_start ==
/// t_end). Values are part of the on-disk format — append only.
enum class SpanKind : std::uint32_t {
  kCycle = 1,        ///< one aggregation cycle (sync engine); value = change
  kGossipStep = 2,   ///< one synchronous gossip step; value = active triplets
  kPhase = 3,        ///< step sub-phase; flags = PhaseId, value = phase count
  kMsgSend = 4,      ///< data copy handed to the network; value = bytes
  kMsgDeliver = 5,   ///< data copy landed; value = bytes
  kMsgDrop = 6,      ///< data copy lost; flags = DropReason, value = bytes
  kAckSend = 7,      ///< ack handed to the network
  kAckDeliver = 8,   ///< ack landed
  kAckDrop = 9,      ///< ack lost; flags = DropReason
  kRetransmit = 10,  ///< retransmission decision; flags = attempt, value = rto
  kReclaim = 11,     ///< retries exhausted, mass reclaimed; value = triplets
  kSuspicion = 12,   ///< node suspects peer; value = failure streak
  kEpochRestart = 13,///< mass-repair epoch restart; value = new epoch
  kFault = 14,       ///< fault-injector marker; flags = fault::FaultKind
  kProbe = 15,       ///< flight-recorder sample; flags = ProbeField
  kAttack = 16,      ///< attack-injector marker; flags = attack::AttackKind
};

const char* kind_name(SpanKind kind) noexcept;

/// Step sub-phases (kPhase flags).
enum class PhaseId : std::uint32_t {
  kRoute = 0,
  kBucket = 1,
  kGather = 2,
  kBookkeeping = 3,
};

/// Flight-recorder probe fields (kProbe flags). One sample per node emits
/// five kProbe records, one per field, sharing trace_id (the sweep) and
/// `peer` (the sweep's series index). kRatingBias records are emitted
/// separately (probe_field) by the attack monitors, one per flagged rater.
enum class ProbeField : std::uint32_t {
  kWeight = 0,        ///< local/column weight mass
  kMassResidual = 1,  ///< weight mass minus its conserved expectation
  kDeltaV = 2,        ///< |estimate(t) - estimate(t-1)|
  kScore = 3,         ///< the component's reputation estimate (pre-alpha-mix)
  kXMassResidual = 4, ///< x mass minus its legitimate expectation
                      ///< (> 0 = counterfeit mass injected into the column)
  kRatingBias = 5,    ///< per-rater slander bias of a feedback burst
};

const char* probe_field_name(ProbeField field) noexcept;

/// Numeric drop reasons (kMsgDrop/kAckDrop flags), mirroring the static
/// reason strings net::Network reports.
enum DropReason : std::uint32_t {
  kDropUnknown = 0,
  kDropSenderDown = 1,
  kDropReceiverDown = 2,
  kDropLinkFailed = 3,
  kDropPartitioned = 4,
  kDropLoss = 5,
  kDropReceiverDownInFlight = 6,
  kDropPartitionedInFlight = 7,
  kDropCorrupted = 8,
};

std::uint32_t drop_reason_code(const char* reason) noexcept;
const char* drop_reason_name(std::uint32_t code) noexcept;

/// `node` value for records that belong to no node track (cycles, steps,
/// epoch restarts) and `peer` value for records with no counterpart.
inline constexpr std::uint32_t kGlobalNode = 0xffffffffu;
inline constexpr std::uint32_t kNoPeer = 0xffffffffu;

/// One fixed-size binary trace record. Times are simulated time (the
/// scheduler clock for async runs; cumulative gossip-step index for
/// synchronous runs) — never wall clock, by the determinism contract.
struct TraceRecord {
  double t_start = 0.0;
  double t_end = 0.0;
  std::uint64_t trace_id = 0;   ///< causal tree: cycle / message / sweep
  std::uint64_t span_id = 0;    ///< unique per record batch of a span
  std::uint64_t parent_id = 0;  ///< span that caused this one; 0 = root
  std::uint32_t kind = 0;       ///< SpanKind
  std::uint32_t flags = 0;      ///< kind-specific (reason/phase/field/attempt)
  std::uint32_t node = kGlobalNode;
  std::uint32_t peer = kNoPeer;
  double value = 0.0;           ///< kind-specific scalar
};
static_assert(sizeof(TraceRecord) == 64, "TraceRecord must be 64 bytes");

/// On-disk header. 48 bytes, written verbatim (no wall clock, no paths).
struct TraceFileHeader {
  char magic[8] = {'G', 'T', 'T', 'R', 'A', 'C', 'E', '1'};
  std::uint32_t version = 1;
  std::uint32_t record_size = sizeof(TraceRecord);
  std::uint64_t record_count = 0;      ///< records present in the file
  std::uint64_t records_emitted = 0;   ///< total emitted (>= record_count)
  std::uint64_t span_high_water = 0;   ///< last span id allocated
  std::uint32_t node_count = 0;        ///< max real node id + 1
  std::uint32_t reserved = 0;
};
static_assert(sizeof(TraceFileHeader) == 48, "TraceFileHeader must be 48 bytes");

/// Per-message causal context threaded through net::Network::send_pooled. A
/// default-constructed ctx (span_id == 0) means "untraced"; the network
/// then emits nothing for this message.
struct TraceCtx {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;    ///< this hop's span (caller-allocated)
  std::uint64_t parent_id = 0;  ///< previous hop / confirmed data hop
  std::uint32_t attempt = 0;    ///< 0 = first transmission
  bool ack = false;             ///< ack-class message (kAck* kinds)

  bool active() const noexcept { return span_id != 0; }
};

struct TraceConfig {
  std::string path;                      ///< output file; empty disables
  std::size_t ring_capacity = 1 << 20;   ///< records retained (64 MiB)
};

/// Ring-buffered binary trace sink. Single-writer: emissions must come
/// from serial orchestration sections (which is also what makes them
/// thread-count invariant). A default-constructed sink is disabled and
/// every call is a cheap no-op.
class TraceSink {
 public:
  TraceSink() = default;
  explicit TraceSink(TraceConfig config);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Monotonic id allocators (first id is 1; 0 means "none").
  std::uint64_t alloc_span() noexcept { return ++next_span_; }
  std::uint64_t alloc_trace() noexcept { return ++next_trace_; }

  /// Appends a record to the ring (overwrite-oldest when full). Also
  /// mirrors it as a `trace` JSONL record when an EventLog is attached
  /// (kProbe records are mirrored by probe() as `probe` records instead).
  void emit(const TraceRecord& rec);

  /// Flight-recorder sample: one node's (weight, mass residual, delta,
  /// score, x residual) tuple at time t. Emits five kProbe records sharing
  /// `sweep_trace` (one probe sweep = one trace id) with `series` as the
  /// sweep index, plus one consolidated `probe` JSONL record when
  /// mirroring. Non-finite values are mirrored as 0 (JSON has no NaN).
  void probe(std::uint64_t sweep_trace, std::uint64_t series, double t,
             std::uint32_t node, double weight, double mass_residual,
             double delta_v, double score, double x_residual);

  /// Emits a single kProbe record for one (node, field, value) sample —
  /// the attack monitors use it for kRatingBias series. Mirrored as a
  /// `probe_field` JSONL record (field name + value) when mirroring.
  void probe_field(std::uint64_t sweep_trace, std::uint64_t series, double t,
                   std::uint32_t node, ProbeField field, double value);

  /// Synthetic time cursor for synchronous traces (time axis = cumulative
  /// gossip steps): kernels resolve their base offset from it and bump it
  /// past their last step, so several runs share one monotone axis.
  double time_cursor() const noexcept { return time_cursor_; }
  void bump_time_cursor(double t) noexcept {
    if (t > time_cursor_) time_cursor_ = t;
  }

  /// Mirrors every emitted record into `events` (see emit()/probe()).
  void set_event_log(telemetry::EventLog* events) { events_ = events; }

  std::uint64_t records_emitted() const noexcept { return emitted_; }
  std::uint64_t records_dropped() const noexcept {
    return emitted_ - static_cast<std::uint64_t>(ring_.size());
  }

  /// Retained records in emission order (for in-process analysis/tests).
  std::vector<TraceRecord> records() const;

  /// Writes header + retained records to the configured path and disables
  /// the sink. Idempotent; the destructor calls it. Returns false on I/O
  /// failure (also reported on stderr).
  bool finish();

 private:
  bool enabled_ = false;
  TraceConfig config_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  ///< oldest record once the ring has wrapped
  std::uint64_t emitted_ = 0;
  std::uint64_t next_span_ = 0;
  std::uint64_t next_trace_ = 0;
  double time_cursor_ = 0.0;
  std::uint32_t max_node_ = 0;  ///< high-water real node id + 1
  bool finished_ = false;
  telemetry::EventLog* events_ = nullptr;
};

/// Reads a trace file back. Returns false (with a stderr diagnostic) on
/// open failure, bad magic/version, or a truncated record section.
bool read_trace_file(const std::string& path, TraceFileHeader& header,
                     std::vector<TraceRecord>& records);

}  // namespace gt::trace
