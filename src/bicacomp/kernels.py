"""Hot inner loops: the arithmetic coder and the quantizer assignment.

Each kernel is one plain Python/NumPy function that returns its output.
The coder loops are sequential by nature and run in the interpreter, so
their interval arithmetic uses Python ints (the cumulative counts are
converted once per call); the assignment is vectorized over chunks of
samples. Speed numbers are in ``pipebench/README.md``.
"""

from bisect import bisect_right

import numpy as np

STATE_BITS = 32
_TOP = 1 << STATE_BITS
_MASK = _TOP - 1
_HALF = _TOP >> 1
_QUARTER = _TOP >> 2
MAX_TOTAL = 1 << 30  # range/total must stay >= 1 during interval updates

# Samples x clusters distances held at once by ecvq_assign (8 bytes each).
ASSIGN_CHUNK_CELLS = 1 << 20

# Read by the benchmark's environment record: no kernel is compiled.
NUMBA_ACTIVE = False


def ac_encode(symbols, cum) -> np.ndarray:
    """Encode symbols against cumulative counts cum (len m+1, cum[0]=0);
    returns the 0/1 bits as uint8.

    Interval update is the classic integer low/high recurrence; carries
    surface as pending bits emitted on the next range split.
    """
    cum = cum.tolist()
    total = cum[-1]
    low = 0
    high = _MASK
    pending = 0
    out = bytearray()
    for s in memoryview(np.ascontiguousarray(symbols, dtype=np.int64)):
        span = high - low + 1
        high = low + (span * cum[s + 1]) // total - 1
        low = low + (span * cum[s]) // total
        while True:
            if high < _HALF:
                out.append(0)
                out += b"\x01" * pending
                pending = 0
            elif low >= _HALF:
                out.append(1)
                out += b"\x00" * pending
                pending = 0
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < 3 * _QUARTER:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low = low * 2
            high = high * 2 + 1
    pending += 1
    if low < _QUARTER:
        out.append(0)
        out += b"\x01" * pending
    else:
        out.append(1)
        out += b"\x00" * pending
    return np.frombuffer(out, dtype=np.uint8)


def ac_decode(bits, n, cum) -> np.ndarray:
    """Decode n symbols from a uint8 0/1 array; bits past the end read as 0."""
    cum = cum.tolist()
    total = cum[-1]
    m = len(cum) - 1
    bits = bytes(bits)
    nbits = len(bits)
    low = 0
    high = _MASK
    code = 0
    pos = 0
    for _ in range(STATE_BITS):
        code <<= 1
        if pos < nbits:
            code |= bits[pos]
        pos += 1
    out = np.empty(n, dtype=np.int64)
    symbols = memoryview(out)
    for t in range(n):
        span = high - low + 1
        target = ((code - low + 1) * total - 1) // span
        s = bisect_right(cum, target, 1, m) - 1  # largest s with cum[s] <= target
        symbols[t] = s
        high = low + (span * cum[s + 1]) // total - 1
        low = low + (span * cum[s]) // total
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < 3 * _QUARTER:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low = low * 2
            high = high * 2 + 1
            code <<= 1
            if pos < nbits:
                code |= bits[pos]
            pos += 1
    return out


def ecvq_assign(x, centroids, bias) -> np.ndarray:
    """Nearest-centroid assignment under squared distance plus a per-cluster
    bias. Retired clusters carry an inf bias and are never selected; a row
    whose clusters are all retired gets 0. Distances are summed one
    coordinate at a time and ties go to the lowest index, so the result
    matches a scalar loop over clusters with a strict ``<``."""
    n, dim = x.shape
    k = centroids.shape[0]
    assign = np.empty(n, dtype=np.int64)
    rows = max(1, ASSIGN_CHUNK_CELLS // k)
    for start in range(0, n, rows):
        xs = x[start:start + rows]
        v = np.repeat(bias[None, :], xs.shape[0], axis=0)
        for t in range(dim):
            v += (xs[:, t, None] - centroids[None, :, t]) ** 2
        assign[start:start + rows] = np.argmin(v, axis=1)
    return assign
