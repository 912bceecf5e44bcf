#include "common/obs.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/faultio.hh"
#include "common/json.hh"
#include "common/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace constable {

namespace {

/** Spans per thread lane before overflow starts dropping (and counting). */
constexpr size_t kRingCap = 4096;

/** One recorded slice. Names/cats point at string literals or interned
 *  strings (stable for the process lifetime). */
struct SpanRec
{
    const char* name;
    const char* cat;
    uint64_t startUs;
    uint64_t durUs;
};

/** A trace lane: one real thread's ring buffer, or a synthetic lane
 *  (fleet machine classes). */
struct Lane
{
    std::string name;
    std::vector<SpanRec> spans;
    uint64_t dropped = 0;
};

struct Registry
{
    std::mutex mu;
    std::map<std::string, std::unique_ptr<ObsCounter>> counters;
    std::map<std::string, std::unique_ptr<ObsGauge>> gauges;
    std::map<std::string, std::unique_ptr<ObsHistogram>> histograms;
    /** Thread lanes in registration order, then synthetic lanes; lanes
     *  are never destroyed (thread_local pointers outlive their thread's
     *  useful life only until process exit). */
    std::vector<std::unique_ptr<Lane>> lanes;
    /** Interned span names/cats for spans not backed by literals. */
    std::set<std::string> intern;
    std::string traceOut;
    std::string metricsOut;
    bool atexitRegistered = false;
    uint64_t threadLaneCount = 0;
};

/** Immortal: pool worker threads and static destructors may still touch
 *  the registry after static destruction has begun, so it is never
 *  destroyed (the lanes' thread_local pointers rely on that too). */
Registry&
reg()
{
    static Registry& r = *new Registry;
    return r;
}

uint64_t
processId()
{
#if defined(__unix__) || defined(__APPLE__)
    return static_cast<uint64_t>(::getpid());
#else
    return 1;
#endif
}

const char*
internString(Registry& r, const std::string& s)
{
    return r.intern.insert(s).first->c_str();
}

Lane&
laneForThisThread()
{
    // Registration is once per thread; afterwards the pointer is reused.
    // All mutation of a lane's spans happens under reg().mu (spans are
    // coarse — cells, cache preps, backoffs — so the lock is cold).
    thread_local Lane* tl = nullptr;
    if (!tl) {
        Registry& r = reg();
        std::lock_guard<std::mutex> lk(r.mu);
        auto lane = std::make_unique<Lane>();
        lane->name = r.threadLaneCount == 0
                         ? "main"
                         : "thread-" + std::to_string(r.threadLaneCount);
        ++r.threadLaneCount;
        lane->spans.reserve(kRingCap);
        tl = lane.get();
        r.lanes.push_back(std::move(lane));
    }
    return *tl;
}

Lane&
namedLaneLocked(Registry& r, const std::string& name)
{
    for (auto& l : r.lanes) {
        if (l->name == name)
            return *l;
    }
    auto lane = std::make_unique<Lane>();
    lane->name = name;
    Lane& ref = *lane;
    r.lanes.push_back(std::move(lane));
    return ref;
}

void
appendSpanLocked(Lane& lane, const SpanRec& s)
{
    if (lane.spans.size() >= kRingCap) {
        ++lane.dropped;
        return;
    }
    lane.spans.push_back(s);
}

/** Atomic whole-file write: tmp + rename. This is src/common, below the
 *  faultio shim's clients — obs output is diagnostics, not simulated
 *  state, so it deliberately does not route through fault injection. */
bool
writeAtomic(const std::string& path, const std::string& content)
{
    std::string tmp =
        path + ".tmp." + std::to_string(processId());
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    size_t put = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = put == content.size() && std::fclose(f) == 0;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readAll(const std::string& path, std::string& out)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, got);
    bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

void
writeOutputsAtExit()
{
    Registry& r = reg();
    std::string traceOut, metricsOut;
    {
        std::lock_guard<std::mutex> lk(r.mu);
        traceOut = r.traceOut;
        metricsOut = r.metricsOut;
    }
    if (!metricsOut.empty() && !obsWriteMetrics(metricsOut))
        warn("cannot write metrics snapshot '" + metricsOut + "'");
    if (!traceOut.empty() && !obsWriteTrace(traceOut))
        warn("cannot write trace '" + traceOut + "'");
}

// ---------------------------------------------------------- progress

struct ProgressState
{
    std::mutex mu;
    std::string label;
    std::string statusPath;
    size_t total = 0;
    size_t doneLocal = 0;
    size_t doneExternal = 0;
    /** Cells served from the cell store instead of simulated. */
    size_t reused = 0;
    uint64_t ops = 0;
    unsigned intervalSec = 10;
    uint64_t beginUs = 0;
    uint64_t lastReportUs = 0;
    uint64_t lastReportOps = 0;
    uint64_t lastStatusUs = 0;
    bool reported = false;
};

std::atomic<bool> progressActive { false };

ProgressState&
progress()
{
    static ProgressState p;
    return p;
}

/** Seconds since the unix epoch, for status.json consumers on other
 *  machines (steady_clock has no cross-process meaning as a date).
 *  Diagnostics only — never feeds simulated state. lint:wallclock */
uint64_t
unixNowSec()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            // lint:wallclock status.json freshness stamp, never sim state
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** Emit the stderr line and/or rewrite status.json when their intervals
 *  have elapsed (or unconditionally when `final`). Caller holds p.mu. */
void
progressEmitLocked(ProgressState& p, bool final)
{
    uint64_t nowUs = obsdetail::obsNowUs();
    size_t done = std::max(p.doneLocal, p.doneExternal);
    size_t computed = done > p.reused ? done - p.reused : 0;
    double elapsedSec =
        static_cast<double>(nowUs - p.beginUs) / 1e6;

    // Rolling Mops/s over the window since the last report; overall
    // average when the window carries no ops (e.g. external-scan ticks).
    auto mopsOver = [&](uint64_t ops, double sec) {
        return sec > 0.0 ? static_cast<double>(ops) / sec / 1e6 : 0.0;
    };
    double rollingMops =
        p.ops > p.lastReportOps && nowUs > p.lastReportUs
            ? mopsOver(p.ops - p.lastReportOps,
                       static_cast<double>(nowUs - p.lastReportUs) / 1e6)
            : mopsOver(p.ops, elapsedSec);

    // Observed-cost ETA: remaining cells at the average per-cell
    // wall-clock so far (the same model the sharded claim order uses).
    uint64_t etaSec = 0;
    if (done > 0 && done < p.total) {
        etaSec = static_cast<uint64_t>(
            elapsedSec / static_cast<double>(done) *
            static_cast<double>(p.total - done));
    }

    // The closing summary only prints when a periodic line preceded it:
    // runs shorter than one interval stay completely silent on stderr
    // (unit tests, smoke benches) while long sweeps always end with a
    // final "done" line even if the last interval was cut short.
    if (p.intervalSec > 0 &&
        (final ? p.reported
               : nowUs - p.lastReportUs >=
                     static_cast<uint64_t>(p.intervalSec) * 1'000'000ull)) {
        double pct = p.total > 0
                         ? 100.0 * static_cast<double>(done) /
                               static_cast<double>(p.total)
                         : 0.0;
        if (final) {
            std::fprintf(stderr,
                         "progress: %s done, %zu/%zu cells (%zu computed, "
                         "%zu reused), %.2f Mops/s, %.1fs elapsed\n",
                         p.label.c_str(), done, p.total, computed, p.reused,
                         rollingMops, elapsedSec);
        } else {
            std::fprintf(stderr,
                         "progress: %s %zu/%zu cells (%.1f%%), %.2f "
                         "Mops/s, eta %llus\n",
                         p.label.c_str(), done, p.total, pct, rollingMops,
                         static_cast<unsigned long long>(etaSec));
        }
        p.lastReportUs = nowUs;
        p.lastReportOps = p.ops;
        p.reported = true;
    }

    // status.json is throttled to ~1/s so pollers never starve writers;
    // the atomic rename means a concurrent reader sees old or new bytes,
    // never a torn file.
    if (!p.statusPath.empty() &&
        (final || nowUs - p.lastStatusUs >= 1'000'000ull)) {
        JsonWriter w;
        w.beginObject()
            .key("experiment").str(p.label)
            .key("state").str(final ? "done" : "running")
            .key("cells_done").u64(done)
            .key("cells_total").u64(p.total)
            .key("cells_computed").u64(computed)
            .key("cells_reused").u64(p.reused)
            .key("mops").f64(rollingMops, 3)
            .key("eta_sec").u64(etaSec)
            .key("elapsed_sec").f64(elapsedSec, 1)
            .key("owner").str("pid-" + std::to_string(processId()))
            .key("updated_unix_sec").u64(unixNowSec())
            .endObject();
        writeAtomic(p.statusPath, w.take());
        p.lastStatusUs = nowUs;
    }
}

} // namespace

namespace obsdetail {

std::atomic<bool> obsArmedFlag { false };

uint64_t
obsNowUs()
{
    // The epoch is pinned at static init (g_obsEpochPinned below), so
    // span timestamps count from process start, not from the first span.
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

void
obsRecordSpan(const char* name, const char* cat, uint64_t start_us,
              uint64_t dur_us)
{
    Lane& lane = laneForThisThread();
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    appendSpanLocked(lane, SpanRec { name, cat, start_us, dur_us });
}

} // namespace obsdetail

namespace {

/** Pin the span epoch before main(). */
const uint64_t g_obsEpochPinned = obsdetail::obsNowUs();

/** Retry observer: counts faultio backoff sleeps and reconstructs each
 *  as a span on the sleeping thread's lane (the sleep already happened,
 *  so the span is synthesized as [now - ms, now]). */
void
faultRetryObserved(const char* point, unsigned ms)
{
    static ObsCounter& retries = obsCounter("faultio.retries");
    static ObsHistogram& backoff = obsHistogram("faultio.backoff_ms");
    retries.add();
    backoff.record(ms);
    uint64_t nowUs = obsdetail::obsNowUs();
    uint64_t durUs = static_cast<uint64_t>(ms) * 1000;
    obsEmitSpan("", std::string("fault.backoff:") + point, "faultio",
                nowUs >= durUs ? nowUs - durUs : 0, durUs);
}

} // namespace

void
obsArm()
{
    (void)g_obsEpochPinned;
    obsdetail::obsArmedFlag.store(true, std::memory_order_relaxed);
    setFaultRetryObserver(&faultRetryObserved);
}

void
obsConfigureOutputs(const std::string& trace_out,
                    const std::string& metrics_out)
{
    Registry& r = reg();
    bool arm = false;
    {
        std::lock_guard<std::mutex> lk(r.mu);
        r.traceOut = trace_out;
        r.metricsOut = metrics_out;
        arm = !trace_out.empty() || !metrics_out.empty();
        if (arm && !r.atexitRegistered) {
            std::atexit(writeOutputsAtExit);
            r.atexitRegistered = true;
        }
    }
    if (arm)
        obsArm();
}

void
obsReset()
{
    obsdetail::obsArmedFlag.store(false, std::memory_order_relaxed);
    progressActive.store(false, std::memory_order_relaxed);
    setFaultRetryObserver(nullptr);
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    // Counter/gauge/histogram objects must survive (call sites hold
    // static references), so values reset in place.
    for (auto& kv : r.counters)
        kv.second->reset();
    for (auto& kv : r.gauges)
        kv.second->reset();
    for (auto& kv : r.histograms)
        kv.second->reset();
    for (auto& l : r.lanes) {
        l->spans.clear();
        l->dropped = 0;
    }
    r.traceOut.clear();
    r.metricsOut.clear();
}

ObsCounter&
obsCounter(const std::string& name)
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    auto& slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<ObsCounter>();
    return *slot;
}

ObsGauge&
obsGauge(const std::string& name)
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    auto& slot = r.gauges[name];
    if (!slot)
        slot = std::make_unique<ObsGauge>();
    return *slot;
}

ObsHistogram&
obsHistogram(const std::string& name)
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    auto& slot = r.histograms[name];
    if (!slot)
        slot = std::make_unique<ObsHistogram>();
    return *slot;
}

void
obsSetThreadLane(const std::string& lane)
{
    Lane& l = laneForThisThread();
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    l.name = lane;
}

void
obsEmitSpan(const std::string& lane, const std::string& name,
            const std::string& cat, uint64_t start_us, uint64_t dur_us)
{
    if (!obsArmed())
        return;
    if (lane.empty()) {
        Lane& l = laneForThisThread();
        Registry& r = reg();
        std::lock_guard<std::mutex> lk(r.mu);
        appendSpanLocked(l, SpanRec { internString(r, name),
                                      internString(r, cat), start_us,
                                      dur_us });
        return;
    }
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    Lane& l = namedLaneLocked(r, lane);
    appendSpanLocked(l, SpanRec { internString(r, name),
                                  internString(r, cat), start_us, dur_us });
}

uint64_t
obsSpansDropped()
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    uint64_t total = 0;
    for (const auto& l : r.lanes)
        total += l->dropped;
    return total;
}

uint64_t
obsSpanCount()
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    uint64_t total = 0;
    for (const auto& l : r.lanes)
        total += l->spans.size();
    return total;
}

bool
obsWriteMetrics(const std::string& path)
{
    Registry& r = reg();
    JsonWriter w(2);
    {
        std::lock_guard<std::mutex> lk(r.mu);
        w.beginObject().key("counters").beginObject();
        for (const auto& [name, c] : r.counters)
            w.key(name).u64(c->value());
        w.endObject().key("gauges").beginObject();
        for (const auto& [name, g] : r.gauges)
            w.key(name).u64(g->value());
        w.endObject().key("histograms").beginObject();
        for (const auto& [name, h] : r.histograms) {
            w.key(name).beginObject().key("count").u64(h->count());
            w.key("sum").u64(h->sum()).key("buckets").beginArray();
            for (size_t b = 0; b < ObsHistogram::kBuckets; ++b)
                w.u64(h->bucket(b));
            w.endArray().endObject();
        }
        uint64_t buffered = 0, dropped = 0;
        for (const auto& l : r.lanes) {
            buffered += l->spans.size();
            dropped += l->dropped;
        }
        w.endObject().key("spans").beginObject().key("buffered").u64(buffered);
        w.key("dropped").u64(dropped).endObject().endObject();
    }
    return writeAtomic(path, w.take());
}

bool
obsWriteTrace(const std::string& path)
{
    Registry& r = reg();
    JsonWriter w(2);
    {
        std::lock_guard<std::mutex> lk(r.mu);
        uint64_t pid = processId();
        uint64_t tid = 1;
        w.beginObject().key("traceEvents").beginArray();
        for (const auto& l : r.lanes) {
            w.beginObject().key("ph").str("M").key("name").str("thread_name");
            w.key("pid").u64(pid).key("tid").u64(tid).key("args");
            w.beginObject().key("name").str(l->name).endObject().endObject();
            for (const SpanRec& s : l->spans) {
                w.beginObject().key("ph").str("X").key("pid").u64(pid);
                w.key("tid").u64(tid).key("ts").u64(s.startUs);
                w.key("dur").u64(s.durUs).key("name").str(s.name);
                w.key("cat").str(s.cat).endObject();
            }
            ++tid;
        }
        w.endArray().endObject();
    }
    return writeAtomic(path, w.take());
}

// ----------------------------------------------------------- progress

void
obsProgressBegin(const ObsProgressConfig& cfg)
{
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    p.label = cfg.label;
    p.statusPath = cfg.statusPath;
    p.total = cfg.total;
    p.intervalSec = cfg.intervalSec;
    p.doneLocal = 0;
    p.doneExternal = 0;
    p.reused = 0;
    p.ops = 0;
    p.beginUs = obsdetail::obsNowUs();
    p.lastReportUs = p.beginUs;
    p.lastReportOps = 0;
    p.lastStatusUs = 0;
    p.reported = false;
    bool active = cfg.total > 0 &&
                  (cfg.intervalSec > 0 || !cfg.statusPath.empty());
    progressActive.store(active, std::memory_order_relaxed);
    if (active && !p.statusPath.empty())
        progressEmitLocked(p, /*final=*/false);
}

void
obsProgressCellDone(uint64_t ops)
{
    if (!progressActive.load(std::memory_order_relaxed))
        return;
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    ++p.doneLocal;
    p.ops += ops;
    progressEmitLocked(p, /*final=*/false);
}

void
obsProgressUpdate(size_t done)
{
    if (!progressActive.load(std::memory_order_relaxed))
        return;
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    p.doneExternal = std::max(p.doneExternal, done);
    progressEmitLocked(p, /*final=*/false);
}

void
obsProgressNoteReused(size_t cells)
{
    if (!progressActive.load(std::memory_order_relaxed) || cells == 0)
        return;
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    p.reused += cells;
    p.doneLocal += cells;
    progressEmitLocked(p, /*final=*/false);
}

void
obsProgressNoteOps(uint64_t ops)
{
    if (!progressActive.load(std::memory_order_relaxed))
        return;
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    p.ops += ops;
}

void
obsProgressEnd()
{
    if (!progressActive.load(std::memory_order_relaxed))
        return;
    progressActive.store(false, std::memory_order_relaxed);
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    size_t done = std::max(p.doneLocal, p.doneExternal);
    p.doneExternal = std::max(done, p.total);
    progressEmitLocked(p, /*final=*/true);
}

std::string
obsReadStatus(const std::string& path)
{
    std::string text;
    if (!readAll(path, text))
        return "";
    return text;
}

std::string
obsFormatStatus(const std::string& json)
{
    JsonValue doc;
    std::string experiment, state, owner;
    double done = 0, total = 0, mops = 0, eta = 0, elapsed = 0;
    double computed = -1, reused = -1;
    if (!parseJson(json, doc) || !doc.get("experiment", experiment) ||
        !doc.get("state", state) || !doc.get("cells_done", done) ||
        !doc.get("cells_total", total))
        return "";
    doc.get("mops", mops);
    doc.get("eta_sec", eta);
    doc.get("elapsed_sec", elapsed);
    doc.get("cells_computed", computed);
    doc.get("cells_reused", reused);
    doc.get("owner", owner);
    char split[96] = "";
    if (computed >= 0 && reused >= 0) {
        std::snprintf(split, sizeof(split), " (%.0f computed, %.0f reused)",
                      computed, reused);
    }

    double pct = total > 0 ? 100.0 * done / total : 0.0;
    char buf[512];
    if (state == "done") {
        std::snprintf(buf, sizeof(buf),
                      "sweep '%s': done — %.0f/%.0f cells%s, %.2f Mops/s, "
                      "%.1fs elapsed%s%s",
                      experiment.c_str(), done, total, split, mops, elapsed,
                      owner.empty() ? "" : ", owner ", owner.c_str());
    } else {
        std::snprintf(buf, sizeof(buf),
                      "sweep '%s': %s — %.0f/%.0f cells (%.1f%%), %.2f "
                      "Mops/s, eta %.0fs, %.1fs elapsed%s%s",
                      experiment.c_str(), state.c_str(), done, total, pct,
                      mops, eta, elapsed, owner.empty() ? "" : ", owner ",
                      owner.c_str());
    }
    return buf;
}

} // namespace constable
