#include "trace/serialize.hh"

#include "common/faultio.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <system_error>

// mmap-backed trace loads: map the cache file instead of slurping it into a
// heap buffer (saves a full copy + allocation per warm-suite trace load).
// Platforms without POSIX mmap use the plain read path below.
#if defined(__unix__) || defined(__APPLE__)
#define CONSTABLE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#endif

namespace constable {

namespace {

// Magic numbers lead every file so a wrong-type or zero-length file is
// rejected before any payload parsing.
constexpr uint32_t kTraceMagic = 0x43545243;    // "CTRC"
constexpr uint32_t kResultMagic = 0x43525253;   // "CRRS"
constexpr uint32_t kManifestMagic = 0x464d5343; // "CSMF"
constexpr uint32_t kLeaseMagic = 0x534c5343;    // "CSLS"

/** Manifest encoding version, independent of kSerializeVersion so a
 *  manifest change never invalidates trace-cache entries. 2: per-cell
 *  store keys replaced the single suite hash. */
constexpr uint32_t kManifestVersion = 2;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** FNV-1a continued over n more bytes from running hash h. */
uint64_t
fnv1aExtend(uint64_t h, const uint8_t* data, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

// Fixed-width little-endian stores and loads at arbitrary byte offsets.
// They go through memcpy, never a reinterpret_cast: the buffer may be an
// mmap view at any offset (loadTrace), where a cast access is unaligned
// and UBSan rejects it. memcpy compiles to a single access on every target
// we build for, and the explicit byteswap keeps the format little-endian.
template <typename T>
T
swapToLe(T v)
{
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    if constexpr (std::endian::native == std::endian::little)
        return v;
    else if constexpr (sizeof(T) == 4)
        return __builtin_bswap32(v);
    else
        return __builtin_bswap64(v);
}

template <typename T>
void
storeLe(uint8_t* p, T v)
{
    v = swapToLe(v);
    std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T
loadLe(const uint8_t* p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return swapToLe(v);
}

} // namespace

bool
checkedPayload(const uint8_t* bytes, size_t n, size_t& payload_len)
{
    if (n < 8)
        return false;
    payload_len = n - 8;
    return fnv1a(bytes, payload_len) == loadLe<uint64_t>(bytes + payload_len);
}

namespace {

/** Per-write unique tmp suffix: pid + process-random nonce + counter.
 *  Sharded sweeps have many processes (and threads) writing into one
 *  directory, possibly targeting the same entry after a lease reclaim; a
 *  pid-only suffix would let two threads of one process collide. */
std::string
tmpSuffix()
{
    static const uint64_t nonce = [] {
        std::random_device rd;
        return (static_cast<uint64_t>(rd()) << 32) ^ rd();
    }();
    static std::atomic<uint64_t> counter { 0 };
    char buf[64];
    std::snprintf(buf, sizeof(buf), ".tmp.%llu.%08llx.%llu",
                  static_cast<unsigned long long>(::getpid()),
                  static_cast<unsigned long long>(nonce & 0xffffffffull),
                  static_cast<unsigned long long>(
                      counter.fetch_add(1, std::memory_order_relaxed)));
    return buf;
}

/** Flush a directory's metadata so a just-renamed entry survives a crash
 *  (best-effort: not every filesystem needs or supports it). */
void
fsyncDirOf(const std::string& path)
{
#if defined(__unix__) || defined(__APPLE__)
    std::string dir = std::filesystem::path(path).parent_path().string();
    if (dir.empty())
        dir = ".";
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
#else
    (void)path;
#endif
}

/**
 * Streaming atomic writer: write() appends chunks to a fresh tmp file and
 * commit() renames it over the destination. The atomic.* fault points fire
 * in writeFileAtomic's order: tmp.open and tmp.write before any byte is
 * written, tmp.fsync, commit.rename and dir.fsync at commit. A pending torn
 * write (armed at atomic.tmp.write or a higher-level point such as
 * ckpt.cell.commit:torn) commits only the first half of everything written:
 * the write and the rename both "succeed", and only the trailing checksum
 * can tell. Destroying an uncommitted writer removes its tmp file.
 */
class AtomicFileWriter
{
  public:
    AtomicFileWriter(const std::string& path, bool durable)
        : path_(path), durable_(durable)
    {
        if (faultFailed("atomic.tmp.open"))
            return;
        tmp_ = path + tmpSuffix();
        f_ = std::fopen(tmp_.c_str(), "wb");
        if (f_ && faultFailed("atomic.tmp.write"))
            abandon();
        if (f_)
            torn_ = faultConsumeTorn();
    }

    ~AtomicFileWriter() { abandon(); }

    AtomicFileWriter(const AtomicFileWriter&) = delete;
    AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

    bool
    write(const uint8_t* data, size_t n)
    {
        if (f_ && n != 0 && std::fwrite(data, 1, n, f_) != n)
            abandon();
        written_ += n;
        return f_ != nullptr;
    }

    bool
    commit()
    {
        if (!f_)
            return false;
        bool ok = true;
        if (torn_) {
            std::error_code ec;
            ok = std::fflush(f_) == 0;
            std::filesystem::resize_file(tmp_, written_ / 2, ec);
            ok = ok && !ec;
        }
        if (ok && durable_)
            ok = std::fflush(f_) == 0 && !faultFailed("atomic.tmp.fsync");
#if defined(__unix__) || defined(__APPLE__)
        if (ok && durable_)
            ok = ::fsync(::fileno(f_)) == 0;
#endif
        ok = std::fclose(f_) == 0 && ok;
        f_ = nullptr;
        // Crash at atomic.commit.rename models death just before the
        // commit (an orphaned tmp file); crash at atomic.dir.fsync models
        // death just after it (the file is committed but its dir entry not
        // yet synced).
        if (!ok || faultFailed("atomic.commit.rename")) {
            std::remove(tmp_.c_str());
            return false;
        }
        std::error_code ec;
        std::filesystem::rename(tmp_, path_, ec);
        if (ec) {
            std::remove(tmp_.c_str());
            return false;
        }
        if (durable_ && !faultFailed("atomic.dir.fsync"))
            fsyncDirOf(path_);
        return true;
    }

  private:
    /** Close and delete the tmp file; later calls report failure. */
    void
    abandon()
    {
        if (!f_)
            return;
        std::fclose(f_);
        f_ = nullptr;
        std::remove(tmp_.c_str());
    }

    std::string path_;
    std::string tmp_;
    bool durable_;
    std::FILE* f_ = nullptr;
    bool torn_ = false;
    uint64_t written_ = 0;
};

/** Receives the encoded bytes chunk by chunk; false aborts the encoding. */
using ByteSink = std::function<bool(const uint8_t*, size_t)>;

/** Exact encoded size of a trace (serializeTrace(t).size()). */
size_t
encodedTraceBytes(const Trace& t)
{
    return 4 + 4 + (4 + t.name.size()) + (4 + t.category.size()) + 4 + 8 +
           t.ops.size() * kTraceOpRecordBytes + 8 + t.snoops.size() * 16 +
           8;
}

/**
 * The one trace encoder: emits the encoding into a chunk buffer of at most
 * kTraceChunkBytes, hands each full chunk to the sink and folds it into a
 * running FNV-1a, which yields both the trailing checksum and the content
 * hash without a whole-file buffer.
 */
class TraceEncoder
{
  public:
    TraceEncoder(const ByteSink& sink, size_t total_bytes)
        : sink_(sink), cap_(std::min(kTraceChunkBytes, total_bytes)),
          buf_(new uint8_t[cap_])
    {
    }

    /** n <= kTraceOpRecordBytes contiguous bytes of the current chunk. */
    uint8_t*
    room(size_t n)
    {
        if (used_ + n > cap_)
            flush();
        uint8_t* p = buf_.get() + used_;
        used_ += n;
        return p;
    }

    void u32(uint32_t v) { storeLe(room(4), v); }
    void u64(uint64_t v) { storeLe(room(8), v); }

    void
    str(const std::string& s)
    {
        u32(static_cast<uint32_t>(s.size()));
        const auto* d = reinterpret_cast<const uint8_t*>(s.data());
        for (size_t n = s.size(); n != 0;) {
            if (used_ == cap_)
                flush();
            size_t k = std::min(n, cap_ - used_);
            std::memcpy(buf_.get() + used_, d, k);
            used_ += k;
            d += k;
            n -= k;
        }
    }

    void
    flush()
    {
        if (used_ == 0)
            return;
        hash_ = fnv1aExtend(hash_, buf_.get(), used_);
        ok_ = ok_ && sink_(buf_.get(), used_);
        used_ = 0;
    }

    /** Append the checksum of everything encoded so far and flush.
     *  @return FNV-1a over every byte, the checksum included. */
    uint64_t
    seal()
    {
        flush();
        u64(hash_);
        flush();
        return hash_;
    }

    bool ok() const { return ok_; }

  private:
    const ByteSink& sink_;
    size_t cap_;
    std::unique_ptr<uint8_t[]> buf_;
    size_t used_ = 0;
    uint64_t hash_ = kFnvOffset;
    bool ok_ = true;
};

void
putOp(uint8_t* p, const MicroOp& op)
{
    storeLe(p, op.pc);
    p[8] = static_cast<uint8_t>(op.cls);
    p[9] = static_cast<uint8_t>(op.addrMode);
    p[10] = op.src[0];
    p[11] = op.src[1];
    p[12] = op.src[2];
    p[13] = op.dst;
    p[14] = op.size;
    p[15] = op.taken ? 1 : 0;
    storeLe(p + 16, op.effAddr);
    storeLe(p + 24, op.value);
}

bool
validReg(uint8_t r)
{
    return r < kMaxArchRegs || r == kNoReg;
}

/** Decode one record, rejecting any field the core could not index or
 *  interpret (a resealed file passes the checksum, so this is the last
 *  line of defence before renameMap[src]). */
bool
getOp(const uint8_t* p, MicroOp& op)
{
    uint8_t cls = p[8], mode = p[9], size = p[14], taken = p[15];
    if (cls > static_cast<uint8_t>(OpClass::Nop) ||
        mode > static_cast<uint8_t>(AddrMode::RegRel) || !validReg(p[10]) ||
        !validReg(p[11]) || !validReg(p[12]) || !validReg(p[13]) ||
        size == 0 || size > 8 || taken > 1)
        return false;
    op.pc = loadLe<uint64_t>(p);
    op.cls = static_cast<OpClass>(cls);
    op.addrMode = static_cast<AddrMode>(mode);
    op.src = { p[10], p[11], p[12] };
    op.dst = p[13];
    op.size = size;
    op.taken = taken != 0;
    op.effAddr = loadLe<uint64_t>(p + 16);
    op.value = loadLe<uint64_t>(p + 24);
    return true;
}

/** Stream t's encoding into sink. @return false when the sink failed;
 *  @p content_hash (optional) receives FNV-1a over all encoded bytes. */
bool
encodeTrace(const Trace& t, const ByteSink& sink,
            uint64_t* content_hash = nullptr)
{
    TraceEncoder e(sink, encodedTraceBytes(t));
    e.u32(kTraceMagic);
    e.u32(kTraceVersion);
    e.str(t.name);
    e.str(t.category);
    e.u32(t.numArchRegs);
    e.u64(t.ops.size());
    for (const MicroOp& op : t.ops) {
        putOp(e.room(kTraceOpRecordBytes), op);
        if (!e.ok())
            return false;
    }
    e.u64(t.snoops.size());
    for (const SnoopEvent& s : t.snoops) {
        e.u64(s.beforeSeq);
        e.u64(s.addr);
    }
    uint64_t h = e.seal();
    if (content_hash)
        *content_hash = h;
    return e.ok();
}

} // namespace

bool
writeFileAtomic(const std::string& path, const std::vector<uint8_t>& bytes,
                bool durable)
{
    AtomicFileWriter w(path, durable);
    return w.write(bytes.data(), bytes.size()) && w.commit();
}

bool
readFileBytes(const std::string& path, std::vector<uint8_t>& bytes)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    if (sz < 0) {
        std::fclose(f);
        return false;
    }
    std::fseek(f, 0, SEEK_SET);
    bytes.resize(static_cast<size_t>(sz));
    // A 0-byte file (a touched-but-never-written cell) must read as an
    // empty buffer, not fread into a null data() pointer.
    size_t got =
        bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    return got == bytes.size();
}

bool
readFileText(const std::string& path, std::string& out)
{
    std::vector<uint8_t> bytes;
    if (!readFileBytes(path, bytes))
        return false;
    out.assign(bytes.begin(), bytes.end());
    return true;
}

uint64_t
fnv1a(const uint8_t* data, size_t n)
{
    return fnv1aExtend(kFnvOffset, data, n);
}

uint64_t
fnv1a(const std::string& s)
{
    return fnv1a(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
sanitizeFileName(std::string name)
{
    for (char& c : name) {
        bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
        if (!keep)
            c = '_';
    }
    return name;
}

uint64_t
traceContentHash(const Trace& t)
{
    uint64_t h = 0;
    encodeTrace(t, [](const uint8_t*, size_t) { return true; }, &h);
    return h;
}

// ---------------------------------------------------------------- traces

std::vector<uint8_t>
serializeTrace(const Trace& t)
{
    std::vector<uint8_t> bytes;
    bytes.reserve(encodedTraceBytes(t));
    encodeTrace(t, [&bytes](const uint8_t* d, size_t n) {
        bytes.insert(bytes.end(), d, d + n);
        return true;
    });
    return bytes;
}

bool
deserializeTrace(const uint8_t* bytes, size_t n, Trace& out)
{
    size_t payload;
    if (!checkedPayload(bytes, n, payload))
        return false;
    ByteReader r(bytes, payload);
    uint32_t magic, version;
    if (!r.u32(magic) || magic != kTraceMagic || !r.u32(version) ||
        version != kTraceVersion)
        return false;
    Trace t;
    uint32_t regs;
    uint64_t nOps, nSnoops;
    if (!r.str(t.name) || !r.str(t.category) || !r.u32(regs) || !r.u64(nOps))
        return false;
    t.numArchRegs = regs;
    // Reject absurd counts before allocating.
    if (nOps > r.remaining() / kTraceOpRecordBytes)
        return false;
    t.ops.resize(nOps);
    for (MicroOp& op : t.ops) {
        if (!getOp(r.take(kTraceOpRecordBytes), op))
            return false;
    }
    if (!r.u64(nSnoops) || nSnoops > r.remaining() / 16 + 1)
        return false;
    t.snoops.resize(nSnoops);
    for (SnoopEvent& s : t.snoops) {
        if (!r.u64(s.beforeSeq) || !r.u64(s.addr))
            return false;
    }
    if (r.remaining() != 0)
        return false;
    out = std::move(t);
    return true;
}

bool
deserializeTrace(const std::vector<uint8_t>& bytes, Trace& out)
{
    return deserializeTrace(bytes.data(), bytes.size(), out);
}

bool
saveTrace(const std::string& path, const Trace& t)
{
    if (faultFailed("trace.cache.write"))
        return false;
    AtomicFileWriter w(path, /*durable=*/false);
    return encodeTrace(t, [&w](const uint8_t* d, size_t n) {
        return w.write(d, n);
    }) && w.commit();
}

bool
loadTrace(const std::string& path, Trace& out)
{
    if (faultFailed("trace.cache.read"))
        return false;
#ifdef CONSTABLE_HAVE_MMAP
    // Fast path: decode straight out of a read-only mapping. Any failure
    // (open, stat, empty file, mmap) falls back to the buffered read below
    // rather than reporting an error of its own.
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        struct stat st;
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            size_t n = static_cast<size_t>(st.st_size);
            void* map = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);
            if (map != MAP_FAILED) {
                bool ok = deserializeTrace(
                    static_cast<const uint8_t*>(map), n, out);
                ::munmap(map, n);
                ::close(fd);
                return ok;
            }
        }
        ::close(fd);
    }
#endif
    std::vector<uint8_t> bytes;
    return readFileBytes(path, bytes) && deserializeTrace(bytes, out);
}

// ------------------------------------------------------------ run results

std::vector<uint8_t>
serializeRunResult(const RunResult& r)
{
    ByteWriter w;
    w.u32(kResultMagic);
    w.u32(kSerializeVersion);
    w.u64(r.cycles);
    w.u64(r.instructions);
    for (uint64_t v : r.threadInstructions)
        w.u64(v);
    for (Cycle v : r.threadFinishCycle)
        w.u64(v);
    w.u8(r.goldenCheckFailed ? 1 : 0);
    w.str(r.goldenCheckMessage);
    // std::map iterates name-ordered, so the encoding is deterministic.
    w.u64(r.stats.all().size());
    for (const auto& [name, value] : r.stats.all()) {
        w.str(name);
        w.f64(value);
    }
    w.sealChecksum();
    return w.take();
}

bool
deserializeRunResult(const std::vector<uint8_t>& bytes, RunResult& out)
{
    size_t payload;
    if (!checkedPayload(bytes.data(), bytes.size(), payload))
        return false;
    ByteReader r(bytes.data(), payload);
    uint32_t magic, version;
    if (!r.u32(magic) || magic != kResultMagic || !r.u32(version) ||
        version != kSerializeVersion)
        return false;
    RunResult res;
    uint8_t failed;
    uint64_t nStats;
    if (!r.u64(res.cycles) || !r.u64(res.instructions) ||
        !r.u64(res.threadInstructions[0]) ||
        !r.u64(res.threadInstructions[1]) ||
        !r.u64(res.threadFinishCycle[0]) ||
        !r.u64(res.threadFinishCycle[1]) || !r.u8(failed) ||
        !r.str(res.goldenCheckMessage) || !r.u64(nStats))
        return false;
    res.goldenCheckFailed = failed != 0;
    for (uint64_t i = 0; i < nStats; ++i) {
        std::string name;
        double value;
        if (!r.str(name) || !r.f64(value))
            return false;
        res.stats.set(name, value);
    }
    if (r.remaining() != 0)
        return false;
    out = std::move(res);
    return true;
}

bool
saveRunResult(const std::string& path, const RunResult& r, bool durable)
{
    if (faultFailed("ckpt.cell.commit"))
        return false;
    return writeFileAtomic(path, serializeRunResult(r), durable);
}

bool
loadRunResult(const std::string& path, RunResult& out)
{
    if (faultFailed("ckpt.cell.read"))
        return false;
    std::vector<uint8_t> bytes;
    return readFileBytes(path, bytes) && deserializeRunResult(bytes, out);
}

// ------------------------------------------------- multi-process sweep files

std::vector<uint8_t>
serializeManifest(const SweepManifest& m)
{
    ByteWriter w;
    w.u32(kManifestMagic);
    w.u32(kManifestVersion);
    w.str(m.experiment);
    w.u8(m.smt ? 1 : 0);
    w.u64(m.numRows);
    w.u64(m.numConfigs);
    w.u64(m.configNames.size());
    for (const std::string& n : m.configNames)
        w.str(n);
    w.u64(m.cellKeys.size());
    for (uint64_t k : m.cellKeys)
        w.u64(k);
    w.sealChecksum();
    return w.take();
}

bool
deserializeManifest(const std::vector<uint8_t>& bytes, SweepManifest& out)
{
    size_t payload;
    if (!checkedPayload(bytes.data(), bytes.size(), payload))
        return false;
    ByteReader r(bytes.data(), payload);
    uint32_t magic, version;
    if (!r.u32(magic) || magic != kManifestMagic || !r.u32(version) ||
        version != kManifestVersion)
        return false;
    SweepManifest m;
    uint8_t smt;
    uint64_t nNames;
    if (!r.str(m.experiment) || !r.u8(smt) || !r.u64(m.numRows) ||
        !r.u64(m.numConfigs) || !r.u64(nNames) ||
        nNames > r.remaining() / 4 + 1)
        return false;
    m.smt = smt != 0;
    m.configNames.resize(nNames);
    for (std::string& n : m.configNames) {
        if (!r.str(n))
            return false;
    }
    uint64_t nKeys;
    if (!r.u64(nKeys) || nKeys != r.remaining() / 8)
        return false;
    m.cellKeys.resize(nKeys);
    for (uint64_t& k : m.cellKeys) {
        if (!r.u64(k))
            return false;
    }
    if (r.remaining() != 0)
        return false;
    out = std::move(m);
    return true;
}

uint64_t
SweepManifest::identity() const
{
    auto bytes = serializeManifest(*this);
    return fnv1a(bytes.data(), bytes.size());
}

bool
saveManifest(const std::string& path, const SweepManifest& m)
{
    if (faultFailed("sweep.manifest.write"))
        return false;
    return writeFileAtomic(path, serializeManifest(m), /*durable=*/true);
}

bool
loadManifest(const std::string& path, SweepManifest& out)
{
    if (faultFailed("sweep.manifest.read"))
        return false;
    std::vector<uint8_t> bytes;
    return readFileBytes(path, bytes) && deserializeManifest(bytes, out);
}

std::string
processOwnerTag()
{
    char host[256] = "unknown-host";
#if defined(__unix__) || defined(__APPLE__)
    if (::gethostname(host, sizeof(host)) != 0)
        std::snprintf(host, sizeof(host), "unknown-host");
    host[sizeof(host) - 1] = '\0';
#endif
    return std::string(host) + ":" + std::to_string(::getpid());
}

bool
tryAcquireLease(const std::string& path, const LeaseRecord& r)
{
    // An injected failure here looks exactly like "someone else holds the
    // claim"; the claim loop re-scans every pass, so it self-heals.
    if (faultFailed("lease.acquire"))
        return false;
    // "x" (C11): O_CREAT|O_EXCL — creation atomically decides the claim.
    std::FILE* f = std::fopen(path.c_str(), "wbx");
    if (!f)
        return false;
    ByteWriter w;
    w.u32(kLeaseMagic);
    w.u32(kSerializeVersion);
    w.str(r.owner);
    w.u64(r.pid);
    w.u64(static_cast<uint64_t>(r.shardId));
    w.u64(r.acquiredUnixSec);
    w.sealChecksum();
    const auto& bytes = w.bytes();
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (ok)
        ok = std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
    if (ok)
        ::fsync(::fileno(f)); // best-effort: the claim itself is the open
#endif
    ok = (std::fclose(f) == 0) && ok;
    if (!ok)
        std::remove(path.c_str());
    return ok;
}

bool
readLease(const std::string& path, LeaseRecord& out)
{
    if (faultFailed("lease.read"))
        return false;
    std::vector<uint8_t> bytes;
    if (!readFileBytes(path, bytes))
        return false;
    size_t payload;
    if (!checkedPayload(bytes.data(), bytes.size(), payload))
        return false;
    ByteReader r(bytes.data(), payload);
    uint32_t magic, version;
    if (!r.u32(magic) || magic != kLeaseMagic || !r.u32(version) ||
        version != kSerializeVersion)
        return false;
    LeaseRecord l;
    uint64_t shard;
    if (!r.str(l.owner) || !r.u64(l.pid) || !r.u64(shard) ||
        !r.u64(l.acquiredUnixSec) || r.remaining() != 0)
        return false;
    l.shardId = static_cast<int64_t>(shard);
    out = std::move(l);
    return true;
}

double
leaseAgeSeconds(const std::string& path)
{
    std::error_code ec;
    auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec)
        return -1.0;
    auto now = std::filesystem::file_time_type::clock::now();
    return std::chrono::duration<double>(now - mtime).count();
}

bool
removeLease(const std::string& path)
{
    if (faultFailed("lease.release"))
        return false;
    std::error_code ec;
    return std::filesystem::remove(path, ec) && !ec;
}

// ----------------------------------------------------------- cache keying

uint64_t
specHash(const WorkloadSpec& s)
{
    // Serialize every field in declaration order and hash the bytes. New
    // WorkloadSpec fields must be appended here — kSerializeVersion guards
    // encoding changes, and test_experiment locks the field count.
    ByteWriter w;
    w.u32(kSerializeVersion);
    w.str(s.name);
    w.str(s.category);
    w.u64(s.seed);
    w.u64(s.targetOps);
    w.u32(s.numArchRegs);
    w.u32(s.nGlobalConst);
    w.u32(s.globalsPerFrag);
    w.u32(s.globalMutatePeriod);
    w.u32(s.globalBursts);
    w.u32(s.nInlinedOnce);
    w.u32(s.nInlinedSilent);
    w.u32(s.nInlinedChanging);
    w.u32(s.inlinedArgs);
    w.u32(s.inlinedBodyOps);
    w.u32(s.inlinedBursts);
    w.u32(s.nObject);
    w.u32(s.objectFields);
    w.u32(s.objectIters);
    w.u32(s.objectBursts);
    w.u32(s.objectRewritePeriod);
    w.u8(s.objectAccum ? 1 : 0);
    w.u32(s.nCall);
    w.u32(s.callParams);
    w.u8(static_cast<uint8_t>(s.callMode));
    w.u32(s.callBursts);
    w.u32(s.nStream);
    w.u32(s.streamElems);
    w.u32(s.streamBursts);
    w.u32(s.nStrided);
    w.u32(s.stridedElems);
    w.u32(s.nChase);
    w.u32(s.chaseSteps);
    w.u32(s.chaseFootprintKB);
    w.u32(s.nPredChase);
    w.u32(s.predChaseSteps);
    w.u32(s.predChaseFootprintKB);
    w.u32(s.nAccum);
    w.u32(s.accumCounters);
    w.u32(s.accumBursts);
    w.u32(s.nBranchy);
    w.u32(s.branchBranches);
    w.f64(s.branchRandomFrac);
    w.u32(s.footprintKB);
    w.f64(s.snoopPerKilOp);
    const auto& bytes = w.bytes();
    return fnv1a(bytes.data(), bytes.size());
}

std::string
traceCachePath(const std::string& dir, const WorkloadSpec& spec)
{
    return dir + "/" + sanitizeFileName(spec.name) + "-" +
           hex16(specHash(spec)) + ".trace";
}

// ---------------------------------------------------------------- cache trim

size_t
trimTraceCache(const std::string& dir, const TraceCacheTrimPolicy& policy)
{
    namespace fs = std::filesystem;
    if (!policy.enabled())
        return 0;
    std::error_code ec;
    if (!fs::is_directory(dir, ec) || ec)
        return 0;

    struct CacheFile
    {
        fs::path path;
        uint64_t size = 0;
        fs::file_time_type mtime;
    };
    std::vector<CacheFile> files;
    uint64_t totalBytes = 0;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (ec)
            return 0;
        if (!entry.is_regular_file(ec) ||
            entry.path().extension() != ".trace")
            continue;
        CacheFile f;
        f.path = entry.path();
        f.size = entry.file_size(ec);
        if (ec)
            continue;
        f.mtime = entry.last_write_time(ec);
        if (ec)
            continue;
        totalBytes += f.size;
        files.push_back(std::move(f));
    }

    size_t deleted = 0;
    auto remove = [&](const CacheFile& f) {
        std::error_code rec;
        if (fs::remove(f.path, rec) && !rec) {
            totalBytes -= f.size;
            ++deleted;
            return true;
        }
        return false;
    };

    // Age cap: anything older than maxAgeSeconds goes, regardless of size.
    if (policy.maxAgeSeconds != 0) {
        auto cutoff = fs::file_time_type::clock::now() -
                      std::chrono::seconds(policy.maxAgeSeconds);
        std::vector<CacheFile> kept;
        kept.reserve(files.size());
        for (CacheFile& f : files) {
            if (f.mtime < cutoff)
                remove(f);
            else
                kept.push_back(std::move(f));
        }
        files = std::move(kept);
    }

    // Size cap: evict least-recently-modified first (the generate-or-load
    // path rewrites entries it regenerates, so mtime tracks usefulness).
    if (policy.maxBytes != 0 && totalBytes > policy.maxBytes) {
        std::sort(files.begin(), files.end(),
                  [](const CacheFile& a, const CacheFile& b) {
                      return a.mtime < b.mtime;
                  });
        for (const CacheFile& f : files) {
            if (totalBytes <= policy.maxBytes)
                break;
            remove(f);
        }
    }
    return deleted;
}

} // namespace constable
