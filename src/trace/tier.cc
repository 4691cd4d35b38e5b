#include "trace/tier.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace sieve::trace {

namespace {

// ---------------------------------------------------------------
// LZSS frame
//
//   "SVZ1" magic (4 bytes) | raw size varint | token stream
//
// Token stream: control bytes of 8 flags, LSB first. Flag 1 = one
// literal byte; flag 0 = a match of two bytes: 12-bit backward
// offset (1..4095) in the low bits, 4-bit (length - kMinMatch) in
// the high bits. Greedy matcher over a last-occurrence hash of
// 3-byte prefixes — deterministic, no allocation beyond the output.
// ---------------------------------------------------------------

constexpr uint8_t kBlobMagic[4] = {'S', 'V', 'Z', '1'};
constexpr size_t kWindow = 4095;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = kMinMatch + 15;
constexpr size_t kHashSize = 1 << 13;

size_t
hash3(const uint8_t *p)
{
    uint32_t v = static_cast<uint32_t>(p[0]) |
                 (static_cast<uint32_t>(p[1]) << 8) |
                 (static_cast<uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> 19 & (kHashSize - 1);
}

} // namespace

std::vector<uint8_t>
compressBytes(const uint8_t *data, size_t size)
{
    std::vector<uint8_t> out;
    out.reserve(size / 2 + 16);
    out.insert(out.end(), kBlobMagic, kBlobMagic + 4);
    detail::putVarint(out, size);

    // Last position each 3-byte-prefix hash was seen at (+1; 0 = never).
    std::vector<size_t> head(kHashSize, 0);

    size_t pos = 0;
    size_t control_at = 0; // index of the active control byte
    int flag = 8;          // flags used in the active control byte

    auto emit_flag = [&](bool literal) {
        if (flag == 8) {
            control_at = out.size();
            out.push_back(0);
            flag = 0;
        }
        if (literal)
            out[control_at] |= static_cast<uint8_t>(1u << flag);
        ++flag;
    };

    while (pos < size) {
        size_t best_len = 0;
        size_t best_off = 0;
        if (size - pos >= kMinMatch) {
            size_t h = hash3(data + pos);
            size_t cand = head[h];
            head[h] = pos + 1;
            if (cand != 0 && pos + 1 - cand <= kWindow) {
                size_t start = cand - 1;
                size_t limit = std::min(kMaxMatch, size - pos);
                size_t len = 0;
                while (len < limit &&
                       data[start + len] == data[pos + len])
                    ++len;
                if (len >= kMinMatch) {
                    best_len = len;
                    best_off = pos - start;
                }
            }
        }

        if (best_len >= kMinMatch) {
            emit_flag(false);
            uint16_t token = static_cast<uint16_t>(
                best_off |
                (static_cast<uint16_t>(best_len - kMinMatch) << 12));
            out.push_back(static_cast<uint8_t>(token));
            out.push_back(static_cast<uint8_t>(token >> 8));
            // Index the skipped positions so later matches can
            // still land inside this match.
            for (size_t i = 1;
                 i < best_len && pos + i + kMinMatch <= size; ++i)
                head[hash3(data + pos + i)] = pos + i + 1;
            pos += best_len;
        } else {
            emit_flag(true);
            out.push_back(data[pos]);
            ++pos;
        }
    }
    return out;
}

Expected<std::vector<uint8_t>>
tryDecompressBytes(const uint8_t *data, size_t size,
                   const std::string &source)
{
    size_t pos = 0;
    auto err = [&](ErrorKind kind, std::string msg) {
        return ingestError(kind,
                           "compressed blob: " + std::move(msg) +
                               " (offset " + std::to_string(pos) + ")",
                           source);
    };

    if (size < 5)
        return err(ErrorKind::Parse, "shorter than frame header");
    if (std::memcmp(data, kBlobMagic, 4) != 0)
        return err(ErrorKind::Parse, "bad magic");
    pos = 4;

    uint64_t raw_size = 0;
    unsigned shift = 0;
    for (int i = 0;; ++i) {
        if (pos >= size || i >= 10)
            return err(ErrorKind::Parse, "malformed raw size");
        uint8_t b = data[pos++];
        if (i == 9 && b > 1)
            return err(ErrorKind::Parse, "raw size overflows 64 bits");
        raw_size |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            break;
        shift += 7;
    }
    // A frame cannot legitimately expand to more than 8x its token
    // bytes (1 control bit + >= 1 byte per literal): reject absurd
    // raw sizes before allocating.
    if (raw_size > (size - pos + 1) * 18)
        return err(ErrorKind::Validation,
                   "raw size " + std::to_string(raw_size) +
                       " impossible for " +
                       std::to_string(size - pos) + " token bytes");

    std::vector<uint8_t> out;
    out.reserve(static_cast<size_t>(raw_size));

    while (out.size() < raw_size) {
        if (pos >= size)
            return err(ErrorKind::Parse, "truncated token stream");
        uint8_t control = data[pos++];
        for (int f = 0; f < 8 && out.size() < raw_size; ++f) {
            if (control & (1u << f)) {
                if (pos >= size)
                    return err(ErrorKind::Parse,
                               "truncated literal");
                out.push_back(data[pos++]);
            } else {
                if (pos + 2 > size)
                    return err(ErrorKind::Parse, "truncated match");
                uint16_t token = static_cast<uint16_t>(
                    data[pos] |
                    (static_cast<uint16_t>(data[pos + 1]) << 8));
                pos += 2;
                size_t off = token & 0xfff;
                size_t len = (token >> 12) + kMinMatch;
                if (off == 0 || off > out.size())
                    return err(ErrorKind::Validation,
                               "match offset " + std::to_string(off) +
                                   " outside decoded prefix of " +
                                   std::to_string(out.size()));
                if (out.size() + len > raw_size)
                    return err(ErrorKind::Validation,
                               "match overruns raw size");
                size_t start = out.size() - off;
                for (size_t i = 0; i < len; ++i)
                    out.push_back(out[start + i]);
            }
        }
    }
    if (pos != size)
        return err(ErrorKind::Parse,
                   std::to_string(size - pos) +
                       " trailing bytes after token stream");
    return out;
}

std::vector<uint8_t>
hibernate(const ColumnarTrace &trace)
{
    std::vector<uint8_t> raw = encodeColumnar(trace);
    return compressBytes(raw.data(), raw.size());
}

Expected<ColumnarTrace>
tryRehydrate(const uint8_t *data, size_t size,
             const std::string &source)
{
    auto raw = tryDecompressBytes(data, size, source);
    if (!raw)
        return raw.error();
    return tryDecodeColumnar(raw.value().data(), raw.value().size(),
                             source);
}

TierConfig
TierConfig::fromEnv()
{
    TierConfig config;
    if (auto mb = envUint64("SIEVE_TRACE_BUDGET_MB", 0, kMaxBudgetMb))
        config.budgetBytes = static_cast<size_t>(*mb) << 20;
    return config;
}

// ---------------------------------------------------------------
// Tier pool
// ---------------------------------------------------------------

namespace {

/**
 * Current hot bytes across every live pool. The Stable counter
 * trace.bytes_resident is monotonic (bytes ever made resident); the
 * telemetry timeline wants the *instantaneous* residency, so the
 * pools mirror every hot-bytes transition into this atomic.
 */
std::atomic<int64_t> &
residentNow()
{
    static std::atomic<int64_t> bytes{0};
    return bytes;
}

/** Register the residency track once a pool exists (not earlier, so
 * runs without tiered traces never grow a track). */
void
registerResidencyProbe()
{
    static const bool once = [] {
        obs::registerTelemetryProbe("trace.tier.resident_bytes", [] {
            return residentNow().load(std::memory_order_relaxed);
        });
        return true;
    }();
    (void)once;
}

} // namespace

namespace detail {

struct TraceSlot
{
    /**
     * Non-owning: every code path that reaches a slot does so
     * through a TraceHandle or Pin, both of which co-own the
     * PoolState — an owning pointer here would close a
     * state -> slot -> state reference cycle and leak every pool.
     */
    PoolState *pool = nullptr;
    std::vector<uint8_t> blob;  //!< private cold form (legacy path)
    std::optional<ColumnarTrace> hot;
    size_t hotBytes = 0;    //!< residentBytes() of the decoded form
    size_t blobSize = 0;    //!< compressed cold-form size (either path)
    uint64_t instructions = 0;
    uint32_t pins = 0;
    uint64_t lruTick = 0;   //!< last touch (0 = never resident)
    bool storeBacked = false; //!< cold form lives in the shard store
    BlobDigest digest;        //!< store key (storeBacked only)

    /**
     * Identity fields of a store-backed trace. The store key is the
     * gpusim *simulation-equivalence* digest, which deliberately
     * excludes kernelName and invocationId so content-identical
     * traces dedup to one blob; the slot keeps its own identity
     * resident (a few bytes) and re-stamps it after rehydration, so
     * a pin always observes the exact trace that was inserted.
     */
    std::string kernelName;
    uint64_t invocationId = 0;
};

struct PoolState
{
    PoolState() { registerResidencyProbe(); }

    ~PoolState()
    {
        // Whatever is still hot leaves residency with the pool.
        residentNow().fetch_sub(static_cast<int64_t>(residentBytes),
                                std::memory_order_relaxed);
    }

    mutable std::mutex mutex;
    // Shared handle: keeps the store state alive for as long as any
    // handle can still rehydrate from it.
    std::optional<ShardStore> store;
    size_t budgetBytes = 0;
    size_t residentBytes = 0; //!< sum of hot slots' hotBytes
    uint64_t tick = 0;
    std::vector<std::shared_ptr<TraceSlot>> slots;

    /**
     * Drop hot forms, least-recently-used first, until the budget
     * holds. Pinned slots are skipped. Caller holds `mutex`.
     */
    void
    enforceBudget()
    {
        while (residentBytes > budgetBytes) {
            TraceSlot *victim = nullptr;
            for (const auto &slot : slots) {
                if (!slot->hot || slot->pins != 0)
                    continue;
                if (!victim || slot->lruTick < victim->lruTick)
                    victim = slot.get();
            }
            if (!victim)
                return; // everything left is pinned
            victim->hot.reset();
            residentBytes -= victim->hotBytes;
            residentNow().fetch_sub(
                static_cast<int64_t>(victim->hotBytes),
                std::memory_order_relaxed);
        }
    }
};

} // namespace detail

namespace {

obs::Counter &
rehydrationCounter()
{
    static obs::Counter &c = obs::counter("trace.rehydrations");
    return c;
}

obs::Counter &
bytesResidentCounter()
{
    static obs::Counter &c = obs::counter("trace.bytes_resident");
    return c;
}

obs::Counter &
bytesPerInstCounter()
{
    static obs::Counter &c =
        obs::counter("trace.bytes_per_instruction");
    return c;
}

} // namespace

void
TraceHandle::Pin::release()
{
    if (!_slot)
        return;
    {
        std::lock_guard<std::mutex> lock(_state->mutex);
        SIEVE_ASSERT(_slot->pins != 0, "unbalanced trace pin");
        --_slot->pins;
    }
    _slot.reset();
    _state.reset();
}

TraceHandle::Pin &
TraceHandle::Pin::operator=(Pin &&other) noexcept
{
    if (this != &other) {
        release();
        _state = std::move(other._state);
        _slot = std::move(other._slot);
    }
    return *this;
}

TraceHandle::Pin::~Pin()
{
    release();
}

const ColumnarTrace &
TraceHandle::Pin::operator*() const
{
    SIEVE_ASSERT(_slot && _slot->hot,
                 "dereferencing an empty trace pin");
    return *_slot->hot;
}

TraceHandle::Pin
TraceHandle::pin() const
{
    SIEVE_ASSERT(_slot, "pin() on an empty TraceHandle");
    detail::PoolState &pool = *_state;
    std::lock_guard<std::mutex> lock(pool.mutex);
    if (!_slot->hot) {
        // Rehydrate. The cold form was produced in-process by
        // hibernate() (directly, or via the shard store), so failure
        // means corruption: fatal.
        Expected<ColumnarTrace> trace =
            _slot->storeBacked
                ? pool.store->tryGet(_slot->digest)
                : tryRehydrate(_slot->blob.data(),
                               _slot->blob.size(), "<tier-pool>");
        if (!trace)
            fatal(_slot->storeBacked ? "corrupt shard-store trace: "
                                     : "corrupt hibernated trace: ",
                  trace.error().message);
        if (_slot->storeBacked) {
            // The store deduplicates by content digest; restore this
            // slot's own identity over the shared body.
            trace.value().kernelName = _slot->kernelName;
            trace.value().invocationId = _slot->invocationId;
        }
        _slot->hot.emplace(std::move(trace.value()));
        pool.residentBytes += _slot->hotBytes;
        residentNow().fetch_add(static_cast<int64_t>(_slot->hotBytes),
                                std::memory_order_relaxed);
        rehydrationCounter().add();
        bytesResidentCounter().add(_slot->hotBytes);
    }
    _slot->lruTick = ++pool.tick;
    ++_slot->pins;
    Pin pinned(_state, _slot);
    pool.enforceBudget();
    return pinned;
}

bool
TraceHandle::resident() const
{
    SIEVE_ASSERT(_slot, "resident() on an empty TraceHandle");
    std::lock_guard<std::mutex> lock(_state->mutex);
    return _slot->hot.has_value();
}

size_t
TraceHandle::blobBytes() const
{
    SIEVE_ASSERT(_slot, "blobBytes() on an empty TraceHandle");
    return _slot->blobSize;
}

size_t
TraceHandle::hotBytes() const
{
    SIEVE_ASSERT(_slot, "hotBytes() on an empty TraceHandle");
    return _slot->hotBytes;
}

uint64_t
TraceHandle::instructions() const
{
    SIEVE_ASSERT(_slot, "instructions() on an empty TraceHandle");
    return _slot->instructions;
}

TraceTierPool::TraceTierPool(TierConfig config)
    : _state(std::make_shared<detail::PoolState>())
{
    _state->budgetBytes = config.budgetBytes;
}

TraceTierPool::TraceTierPool(TierConfig config, ShardStore store)
    : TraceTierPool(config)
{
    _state->store.emplace(std::move(store));
}

TraceHandle
TraceTierPool::insert(ColumnarTrace trace)
{
    auto slot = std::make_shared<detail::TraceSlot>();
    slot->pool = _state.get();
    slot->blob = hibernate(trace);
    slot->blobSize = slot->blob.size();
    slot->hotBytes = trace.residentBytes();
    slot->instructions = trace.numInstructions();

    std::lock_guard<std::mutex> lock(_state->mutex);
    slot->hot.emplace(std::move(trace));
    slot->lruTick = ++_state->tick;
    _state->residentBytes += slot->hotBytes;
    residentNow().fetch_add(static_cast<int64_t>(slot->hotBytes),
                            std::memory_order_relaxed);
    _state->slots.push_back(slot);

    bytesResidentCounter().add(slot->hotBytes);
    // Milli-bytes-per-instruction of this trace's resident form,
    // summed per inserted trace (see DESIGN.md §10).
    uint64_t insts = std::max<uint64_t>(slot->instructions, 1);
    bytesPerInstCounter().add(
        (static_cast<uint64_t>(slot->hotBytes) * 1000 + insts / 2) /
        insts);

    _state->enforceBudget();
    return TraceHandle(_state, slot);
}

TraceHandle
TraceTierPool::insert(ColumnarTrace trace, const BlobDigest &digest)
{
    SIEVE_ASSERT(_state->store.has_value(),
                 "digest insert() on a pool without a shard store");
    auto slot = std::make_shared<detail::TraceSlot>();
    slot->pool = _state.get();
    slot->storeBacked = true;
    slot->digest = digest;
    slot->kernelName = trace.kernelName;
    slot->invocationId = trace.invocationId;
    slot->hotBytes = trace.residentBytes();
    slot->instructions = trace.numInstructions();

    // The store is this process's own output directory; failure to
    // append is unrecoverable for the pipeline, like an unwritable
    // trace export.
    auto put = _state->store->tryPut(digest, trace);
    if (!put)
        fatal("shard store put failed: ", put.error().message);
    slot->blobSize = put.value().blobBytes;

    std::lock_guard<std::mutex> lock(_state->mutex);
    slot->hot.emplace(std::move(trace));
    slot->lruTick = ++_state->tick;
    _state->residentBytes += slot->hotBytes;
    residentNow().fetch_add(static_cast<int64_t>(slot->hotBytes),
                            std::memory_order_relaxed);
    _state->slots.push_back(slot);

    bytesResidentCounter().add(slot->hotBytes);
    uint64_t insts = std::max<uint64_t>(slot->instructions, 1);
    bytesPerInstCounter().add(
        (static_cast<uint64_t>(slot->hotBytes) * 1000 + insts / 2) /
        insts);

    _state->enforceBudget();
    return TraceHandle(_state, slot);
}

TraceTierPool::Occupancy
TraceTierPool::occupancy() const
{
    Occupancy occ;
    std::lock_guard<std::mutex> lock(_state->mutex);
    for (const auto &slot : _state->slots) {
        // Store-backed slots report their at-rest size; shared blobs
        // are counted once per referencing slot (logical census).
        occ.blobBytes += slot->blobSize;
        if (slot->hot) {
            ++occ.hotTraces;
            occ.hotBytes += slot->hotBytes;
        } else {
            ++occ.coldTraces;
        }
    }
    return occ;
}

size_t
TraceTierPool::budgetBytes() const
{
    return _state->budgetBytes;
}

size_t
TraceTierPool::size() const
{
    std::lock_guard<std::mutex> lock(_state->mutex);
    return _state->slots.size();
}

} // namespace sieve::trace
