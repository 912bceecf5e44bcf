/**
 * @file
 * Compact binary serialization for generated traces and per-run results.
 * Backs the CONSTABLE_TRACE_DIR on-disk suite cache (generate a trace once,
 * load it on every later bench invocation) and the per-cell checkpoint files
 * of Experiment sweeps. The encoding is explicit little-endian field-by-field
 * (never raw struct memory), so files are byte-stable across compilers, and
 * every file carries a version tag plus a trailing checksum: corrupt or
 * truncated files are detected and the caller regenerates instead of
 * crashing or silently computing on garbage.
 */

#ifndef CONSTABLE_TRACE_SERIALIZE_HH
#define CONSTABLE_TRACE_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/run_result.hh"
#include "trace/generator.hh"
#include "trace/trace.hh"

namespace constable {

/** Version of the run-result, lease and spec-hash encodings. Bumped
 *  whenever one of them (or the hashed spec field set) changes. Traces
 *  carry their own kTraceVersion. */
inline constexpr uint32_t kSerializeVersion = 1;

// ------------------------------------------------------------------ traces

/** Version of the trace encoding. A cache file of another version fails
 *  to load and is regenerated under the same path (the spec hash does not
 *  cover it). 1: 40-byte op records with a branch target; 2: 32-byte op
 *  records. */
inline constexpr uint32_t kTraceVersion = 2;

/** Bytes per encoded micro-op: the MicroOp fields in declaration order,
 *  little-endian, the same 32 bytes the record occupies in memory. */
inline constexpr size_t kTraceOpRecordBytes = 32;

/** Largest chunk the streaming trace encoder hands a sink at once: the
 *  bound on the extra memory saving or hashing a trace takes. */
inline constexpr size_t kTraceChunkBytes = size_t { 1 } << 20;

/** Encode a trace (byte-stable: same trace -> same bytes). saveTrace and
 *  traceContentHash stream the same bytes without materialising them. */
std::vector<uint8_t> serializeTrace(const Trace& t);

/** Decode; returns false (leaving out untouched on header failures) on any
 *  corruption, truncation, or version mismatch. */
bool deserializeTrace(const std::vector<uint8_t>& bytes, Trace& out);

/** Decode from raw bytes (e.g. an mmap view) without an owning buffer. */
bool deserializeTrace(const uint8_t* bytes, size_t n, Trace& out);

/** Write atomically (tmp file + rename), so readers never observe a
 *  half-written cache entry. The encoding streams to the tmp file in
 *  chunks of at most kTraceChunkBytes, so saving holds no whole-file
 *  buffer. Returns false on I/O failure. */
bool saveTrace(const std::string& path, const Trace& t);

/**
 * The atomic-write primitive behind every save* helper: bytes go to a tmp
 * file named with a PID + per-process-random suffix (safe when many
 * processes write the same entry concurrently), and the rename is the
 * commit point. With durable=true the tmp file is fsync'd before the
 * rename (and the directory after it), so a renamed file survives a crash
 * with its full contents — the invariant the sharded-sweep merge relies
 * on: a visible cell file is either complete or fails its checksum.
 * This is the one-chunk case of the streaming writer saveTrace uses; both
 * pass the atomic.* fault points in the same order.
 */
bool writeFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes,
                     bool durable = false);

/** Read a whole file into @p bytes; false on missing/unreadable files.
 *  The read-side primitive behind every load* helper — and the only
 *  sanctioned way for sim/serve code to slurp a file (see the lint
 *  raw-io rule); an empty file reads as an empty buffer, not an error. */
bool readFileBytes(const std::string& path, std::vector<uint8_t>& bytes);

/** Read a whole file as text (same contract as readFileBytes). */
bool readFileText(const std::string& path, std::string& out);

/** Load and verify; false on missing/corrupt/truncated/mismatched files.
 *  Decodes from an mmap view of the file where the platform supports it
 *  (no intermediate whole-file heap buffer), falling back to a buffered
 *  read otherwise. */
bool loadTrace(const std::string& path, Trace& out);

// -------------------------------------------------------------- run results

/** Encode one simulation result, including the full named-stat map (doubles
 *  preserved bit-exactly, so a resumed sweep is bit-identical). */
std::vector<uint8_t> serializeRunResult(const RunResult& r);

bool deserializeRunResult(const std::vector<uint8_t>& bytes, RunResult& out);

/** @param durable fsync before the rename commit (checkpoint cells written
 *  by sharded workers; see writeFileAtomic). */
bool saveRunResult(const std::string& path, const RunResult& r,
                   bool durable = false);

bool loadRunResult(const std::string& path, RunResult& out);

// ------------------------------------------------- multi-process sweep files

/**
 * Identity of one sweep over the content-addressed cell store, written
 * once (atomically) as `manifest.sweep` into the sweep's own directory
 * under the checkpoint root. It resolves the sweep's row-major cell
 * indices to store keys (sim/shard.hh: cellFilePath), and every
 * cooperating process verifies it against its own sweep before claiming
 * cells. Experiment::merge() requires it, so assembling a sweep that
 * never started fails loudly.
 */
struct SweepManifest
{
    std::string experiment;
    bool smt = false;
    uint64_t numRows = 0;
    uint64_t numConfigs = 0;
    std::vector<std::string> configNames;
    /** Content key of every cell, row-major (sim/cell_key.hh); cells with
     *  equal keys are one stored result. */
    std::vector<uint64_t> cellKeys;

    uint64_t numCells() const { return numRows * numConfigs; }
    /** Hash over every field: names the sweep's directory. */
    uint64_t identity() const;
    bool operator==(const SweepManifest&) const = default;
};

std::vector<uint8_t> serializeManifest(const SweepManifest& m);
bool deserializeManifest(const std::vector<uint8_t>& bytes,
                         SweepManifest& out);
bool saveManifest(const std::string& path, const SweepManifest& m);
bool loadManifest(const std::string& path, SweepManifest& out);

/**
 * A worker's claim on one matrix cell, stored as `<cell>.lease` next to the
 * cell file. Creation is atomic (O_CREAT|O_EXCL semantics), which is the
 * whole claim protocol; expiry is judged from the lease file's mtime, not
 * from the timestamp written inside it, so a worker whose wall clock is
 * wrong cannot make its own leases look fresh or stale. Readers still
 * compare that mtime against their local clock (leaseAgeSeconds), so a
 * fleet's clocks must agree with the file server to well within the lease
 * TTL — run NTP, and size the TTL above worst cell time + clock error.
 */
struct LeaseRecord
{
    std::string owner;            ///< "<hostname>:<pid>" diagnostic tag
    uint64_t pid = 0;
    int64_t shardId = -1;
    uint64_t acquiredUnixSec = 0; ///< informational only (see mtime note)
};

/** "<hostname>:<pid>" of the calling process (lease ownership tag). */
std::string processOwnerTag();

/** Atomically create the lease file; false if it already exists (someone
 *  else holds the claim) or on I/O error. The write is fsync'd. */
bool tryAcquireLease(const std::string& path, const LeaseRecord& r);

/** Read a lease (diagnostics); false if missing or corrupt. */
bool readLease(const std::string& path, LeaseRecord& out);

/** Seconds since the lease file was last written; negative if missing. */
double leaseAgeSeconds(const std::string& path);

/** Remove a lease file (release after commit, or reclaim of a stale one). */
bool removeLease(const std::string& path);

// ------------------------------------------------------------- cache keying

/** FNV-1a content hash (the checksum/keying primitive of this format). */
uint64_t fnv1a(const uint8_t* data, size_t n);

/** FNV-1a over a string (config names, etc.). */
uint64_t fnv1a(const std::string& s);

// -------------------------------------------------------------- byte codec

/** Little-endian append-only encoder behind every binary file here and
 *  the fleet report fingerprint. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void u32(uint32_t v) { le(v, 4); }
    void u64(uint64_t v) { le(v, 8); }
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    /** u32 length, then the bytes. */
    void
    str(const std::string& s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Append the checksum of everything written so far. */
    void sealChecksum() { u64(fnv1a(buf_.data(), buf_.size())); }

    std::vector<uint8_t> take() { return std::move(buf_); }
    const std::vector<uint8_t>& bytes() const { return buf_; }

  private:
    void
    le(uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    std::vector<uint8_t> buf_;
};

/** Bounds-checked decoder; every read reports success so callers bail out
 *  cleanly on truncated input instead of reading past the end. */
class ByteReader
{
  public:
    ByteReader(const uint8_t* data, size_t n) : data_(data), n_(n) {}

    bool u8(uint8_t& v) { return le(v, 1); }
    bool u32(uint32_t& v) { return le(v, 4); }
    bool u64(uint64_t& v) { return le(v, 8); }

    bool
    f64(double& v)
    {
        uint64_t bits;
        if (!u64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    bool
    str(std::string& s)
    {
        uint32_t len;
        const uint8_t* p = nullptr;
        if (!u32(len) || !(p = take(len)))
            return false;
        s.assign(reinterpret_cast<const char*>(p), len);
        return true;
    }

    /** The next n bytes, or nullptr (consuming nothing) past the end. */
    const uint8_t*
    take(size_t n)
    {
        if (n > n_ - pos_)
            return nullptr;
        pos_ += n;
        return data_ + pos_ - n;
    }

    size_t remaining() const { return n_ - pos_; }

  private:
    template <typename T>
    bool
    le(T& v, size_t n)
    {
        const uint8_t* p = take(n);
        if (!p)
            return false;
        uint64_t acc = 0;
        for (size_t i = 0; i < n; ++i)
            acc |= static_cast<uint64_t>(p[i]) << (8 * i);
        v = static_cast<T>(acc);
        return true;
    }

    const uint8_t* data_;
    size_t n_;
    size_t pos_ = 0;
};

/** Split @p n bytes sealed by ByteWriter::sealChecksum into the payload
 *  length and verify the checksum; false when short or corrupt. */
bool checkedPayload(const uint8_t* bytes, size_t n, size_t& payload_len);

/** boost-style hash_combine over 64-bit values (key derivation). */
inline uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/** A key as 16 lowercase hex digits (cache and cell file names). */
std::string hex16(uint64_t v);

/** Replace filesystem-hostile characters with '_' (cache/checkpoint file
 *  and directory names). */
std::string sanitizeFileName(std::string name);

/** Content hash of a trace's serialized bytes (fnv1a of serializeTrace,
 *  computed while streaming, without the buffer): the checkpoint-key
 *  analogue of specHash() for hand-built (Suite::fromTraces) workloads. */
uint64_t traceContentHash(const Trace& t);

/**
 * Content hash over every WorkloadSpec field (and kSerializeVersion):
 * the trace-cache key. Two specs that would generate different
 * traces hash differently; in particular targetOps is covered, so changing
 * CONSTABLE_TRACE_OPS never serves a stale cached trace.
 */
uint64_t specHash(const WorkloadSpec& spec);

/** Cache file path for a spec under a cache directory:
 *  <dir>/<sanitized name>-<16-hex specHash>.trace */
std::string traceCachePath(const std::string& dir, const WorkloadSpec& spec);

// -------------------------------------------------------------- cache trim

/**
 * Age/LRU retention policy for a trace-cache directory. Both caps default
 * to 0 = unlimited, so trimming is strictly opt-in (long-lived CI cache
 * dirs set CONSTABLE_TRACE_CACHE_MAX_MB / _MAX_AGE_DAYS; see
 * ExperimentOptions).
 */
struct TraceCacheTrimPolicy
{
    uint64_t maxBytes = 0;      ///< total *.trace size cap; 0 = uncapped
    uint64_t maxAgeSeconds = 0; ///< per-file age cap; 0 = uncapped

    bool enabled() const { return maxBytes != 0 || maxAgeSeconds != 0; }
};

/**
 * Enforce a trim policy over the *.trace files of a cache directory:
 * first drop entries older than maxAgeSeconds, then drop
 * least-recently-modified entries until the directory fits maxBytes.
 * Non-trace files are never touched; a missing directory is a no-op.
 * @return number of files deleted.
 */
size_t trimTraceCache(const std::string& dir,
                      const TraceCacheTrimPolicy& policy);

} // namespace constable

#endif
