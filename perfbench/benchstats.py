"""Arithmetic of the host-clock benchmark: percentiles, the tail rule,
derived self time, due-time latency and golden-digest comparison.

Pure functions over plain numbers; perfbench/run.py feeds them the raw
samples the C++ benchmark program writes.  Tested by perfbench/test_benchstats.py.
"""

import math
import zlib

# Percentiles the tail rule may pick from, highest last.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# A reported tail percentile needs this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, q):
    """The q-th percentile (0..100) of `values`, interpolating linearly
    between closest ranks (numpy's default).  Raises on an empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    if len(s) == 1:
        return float(s[0])
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def samples_beyond(n, q):
    """How many of `n` samples lie above the q-th percentile."""
    return n * (100.0 - q) / 100.0


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER that has at least
    TAIL_MIN_BEYOND of `n` samples beyond it, or None when even the median
    does not."""
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) + 1e-9 >= TAIL_MIN_BEYOND:
            best = q
    return best


def supports(n, q):
    """Whether `n` samples are enough to report the q-th percentile."""
    t = tail_percentile(n)
    return t is not None and t >= q


def self_time(parent, children):
    """A span's self time: its duration minus what its child spans cover,
    never negative (timer granularity can make the children's sum exceed
    the parent by a few nanoseconds)."""
    return max(0, parent - sum(c for c in children if c > 0))


def due_latency(due, received):
    """Latency of one open-loop request measured from when it was due to
    be sent, so a stall also charges the requests queued behind it.  None
    when no response arrived."""
    if received is None or received < 0:
        return None
    return received - due


def latencies_from_due(rows, missing_as):
    """Due-time latency of every (due, received) pair; a request without a
    response counts as `missing_as`, so it misses any latency limit."""
    out = []
    for due, received in rows:
        lat = due_latency(due, received)
        out.append(missing_as if lat is None else lat)
    return out


def digest(cycles, used, conf):
    """The golden digest of one run or response: virtual cycles, the
    guard-open flag and the final confidence (its exact %.17g spelling)."""
    text = "%d:%d:%s" % (int(cycles), 1 if used else 0, conf)
    return "%08x" % (zlib.crc32(text.encode()) & 0xFFFFFFFF)


DIGEST_WIDTH = 8


def split_digests(packed):
    """A lane's golden digests, stored concatenated."""
    return [packed[i:i + DIGEST_WIDTH]
            for i in range(0, len(packed), DIGEST_WIDTH)]


def compare_digests(observed, golden):
    """Counts mismatches of `observed` (lane -> list of (position, digest))
    against `golden` (lane -> list of digests).  A position the golden
    sequence does not cover, or a lane it does not know, is a mismatch:
    nothing unverified passes."""
    bad = 0
    for lane, items in observed.items():
        ref = golden.get(lane, [])
        for pos, d in items:
            if pos < 0 or pos >= len(ref) or ref[pos] != d:
                bad += 1
    return bad


def last_tenth(seq):
    """The last tenth of a lane's sequence (at least one element)."""
    k = max(1, len(seq) // 10)
    return seq[-k:]


def geomean(values):
    """Geometric mean of positive values: the average across programs
    whose times differ by orders of magnitude."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def lane_median_geomean(by_lane):
    """Geometric mean over lanes of each lane's median.  With one lane it
    is that lane's median; across lanes whose times differ by orders of
    magnitude it does not jump between them the way a pooled median does."""
    return geomean([median(v) for v in by_lane.values()])
