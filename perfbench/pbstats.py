"""Accounting helpers of the benchmark: percentiles, open-loop latency and
ingest-to-visible freshness. Pure functions over plain lists, so the rules
that decide every reported number are unit-tested in tests/test_pbstats.py.
"""
from array import array
import bisect
import math
import statistics

# Percentiles a tail metric may report, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

# Record ops written by `perfbench_cpp serve-client` (see RecOp there).
OP_BATCH, OP_INGEST, OP_HEALTH, OP_METRICS, OP_STATS, OP_INGEST_TAIL = 1, 2, 3, 4, 5, 6
RECORD_FIELDS = 6  # op, conn, due_ns, sent_ns, recv_ns, value


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def interquartile_mean(values):
    """Mean of the middle half: the lowest and the highest quarter (n // 4
    samples each) are dropped. The count metrics use it: per-problem counts
    cluster in modes a whole gossip cycle apart, which the median jumps
    between, while a plain mean follows the rare problem that needs three
    times the rounds."""
    if not values:
        raise ValueError("interquartile mean of no samples")
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def rank(count, pct):
    """1-based nearest rank of the pct-th percentile among count samples.
    Rounded before the ceiling so 99.9 % of 1000 is rank 999, not 1000."""
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), pct) - 1]


def beyond(count, pct):
    """Samples strictly past the nearest-rank pct-th percentile of count."""
    return count - rank(count, pct)


def tail(values, cap=None):
    """Highest LADDER percentile (at most `cap`) that has at least ten
    samples beyond it. Returns (percentile, value, sample_count); the first
    two are None when no rung qualifies (fewer than 20 samples)."""
    best = None
    for pct in LADDER:
        if cap is not None and pct > cap:
            break
        if beyond(len(values), pct) >= 10:
            best = pct
    if best is None:
        return None, None, len(values)
    return best, percentile(values, best), len(values)


def read_records(path):
    """Reads serve-client records: a flat native-endian int64 array, one
    RECORD_FIELDS-wide row per request. Returns the RECORD_FIELDS columns."""
    raw = array("q")
    with open(path, "rb") as f:
        raw.frombytes(f.read())
    if len(raw) % RECORD_FIELDS:
        raise ValueError(f"{path}: truncated record file")
    return [raw[i::RECORD_FIELDS] for i in range(RECORD_FIELDS)]


def open_loop_latencies(requests):
    """Latency of each answered request, measured from the time it was
    *due*, not the time it was sent: when a stalled reply holds up the
    connection (or the generator itself falls behind), every request due
    during the stall is charged the wait. `requests` are (due, sent, recv)
    triples; recv <= 0 means no reply. Returns (latencies, lateness) where
    lateness = sent - due is how far behind schedule the generator ran."""
    latencies, lateness = [], []
    for due, sent, recv in requests:
        lateness.append(sent - due)
        if recv > 0:
            latencies.append(recv - due)
    return latencies, lateness


def freshness(ingests, health):
    """Ingest-to-visible time. `ingests` are (due, ack_total) pairs, where
    ack_total is the running INGEST count the daemon acknowledged; `health`
    are (recv, visible) pairs in reply order, visible being HEALTH's
    ingest_enqueued - staleness_frames. An ingest is visible at the first
    HEALTH reply whose visible count reaches its ack_total. Returns
    (fresh_times, invisible_count)."""
    recv_at, running = [], []
    top = -1
    for recv, visible in health:
        if visible > top:  # keep only replies that raise the visible count
            top = visible
            recv_at.append(recv)
            running.append(visible)
    fresh, invisible = [], 0
    for due, ack in ingests:
        i = bisect.bisect_left(running, ack)
        if i == len(running):
            invisible += 1
        else:
            fresh.append(recv_at[i] - due)
    return fresh, invisible


def rss_figure(samples, window=1.0):
    """Memory figure of a sampled process: the median over whole windows of
    each window's peak sample. `samples` are (seconds, value) pairs in time
    order; a run shorter than one window reports its overall peak."""
    if not samples:
        return 0.0
    whole = int(samples[-1][0] // window)
    peaks = {}
    for t, v in samples:
        w = int(t // window)
        if w < whole:
            peaks[w] = max(peaks.get(w, 0), v)
    if not peaks:
        return max(v for _, v in samples)
    return median(list(peaks.values()))
