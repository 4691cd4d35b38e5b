/**
 * @file
 * Tiered residency for columnar traces: hot / hibernated strata.
 *
 * A sampling run keeps one representative trace per stratum alive,
 * but the simulator only ever looks at a few of them at a time. The
 * tier layer exploits that: every trace inserted into a
 * `TraceTierPool` is eagerly serialized to a compressed blob (the
 * cold form, always kept), while the decoded `ColumnarTrace` (the
 * hot form) lives under an LRU byte budget. When the budget
 * overflows, the least-recently-used unpinned trace *hibernates* —
 * its decoded form is dropped, leaving only the blob. `TraceHandle`
 * is the stable reference: `pin()` rehydrates a hibernated trace on
 * demand (decompress + decode) and protects it from eviction for the
 * pin's lifetime.
 *
 * Compression is a self-contained LZSS variant (no external deps):
 * greedy byte matcher with a 4 KiB window, 12-bit offsets and match
 * lengths 3..18, framed with magic, raw size, and the columnar
 * payload's own checksum downstream. `tryDecompressBytes` is fully
 * bounds-checked and returns a structured Error on any malformed
 * input; combined with `tryDecodeColumnar`'s validation, corruption
 * of a hibernated blob can never produce a silently-wrong trace.
 *
 * Budget knob: `--trace-budget-mb` on the CLIs, or the
 * `SIEVE_TRACE_BUDGET_MB` environment variable (default 64 MiB; 0
 * hibernates everything that is not pinned).
 *
 * Determinism contract: the Stable counters `trace.bytes_resident`,
 * `trace.bytes_per_instruction`, and `trace.rehydrations` (see
 * DESIGN.md §7) are driven purely by the insert/pin sequence of a
 * pool. Pools are therefore *per pipeline instance* (one per
 * workload), never shared across concurrently-scheduled tasks, so a
 * `--jobs N` fan-out replays each pool's access sequence identically
 * and the counters stay jobs-invariant.
 */

#ifndef SIEVE_TRACE_TIER_HH
#define SIEVE_TRACE_TIER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hh"
#include "trace/columnar.hh"
#include "trace/shard_store.hh"

namespace sieve::trace {

/** Tier-layer tuning. */
struct TierConfig
{
    /** LRU budget for decoded (hot) traces, in bytes. */
    size_t budgetBytes = size_t{64} << 20;

    /**
     * TierConfig with the budget taken from SIEVE_TRACE_BUDGET_MB
     * (common/env.hh: unset, malformed or above kMaxBudgetMb keeps
     * the default; a bad value is warned about).
     */
    static TierConfig fromEnv();
};

/**
 * LZSS-compress a byte buffer (framed: magic, raw size, tokens).
 */
std::vector<uint8_t> compressBytes(const uint8_t *data, size_t size);

/**
 * Decompress a compressBytes() frame. Fully bounds-checked: any
 * malformed frame (bad magic, out-of-window match, length mismatch,
 * trailing bytes) is a structured Error.
 */
Expected<std::vector<uint8_t>> tryDecompressBytes(
    const uint8_t *data, size_t size,
    const std::string &source = "<blob>");

/** Compress the canonical columnar bytes of `trace` (cold form). */
std::vector<uint8_t> hibernate(const ColumnarTrace &trace);

/**
 * Decompress + decode a hibernate() blob. Structured Error on any
 * corruption (never a crash, never a silently-wrong trace).
 */
Expected<ColumnarTrace> tryRehydrate(
    const uint8_t *data, size_t size,
    const std::string &source = "<blob>");

namespace detail {
struct TraceSlot;
struct PoolState;
} // namespace detail

/**
 * Reference to a trace owned by a TraceTierPool. Copyable, cheap,
 * and stable across hibernation; outlives the pool object itself
 * (the shared pool state is kept alive by its handles).
 */
class TraceHandle
{
  public:
    TraceHandle() = default;

    /**
     * RAII access to the decoded trace: rehydrates if hibernated and
     * blocks eviction while alive.
     */
    class Pin
    {
      public:
        Pin() = default;
        Pin(Pin &&other) noexcept
            : _state(std::move(other._state)),
              _slot(std::move(other._slot))
        {
        }
        Pin &operator=(Pin &&other) noexcept;
        Pin(const Pin &) = delete;
        Pin &operator=(const Pin &) = delete;
        ~Pin();

        const ColumnarTrace &operator*() const;
        const ColumnarTrace *operator->() const { return &**this; }

      private:
        friend class TraceHandle;
        Pin(std::shared_ptr<detail::PoolState> state,
            std::shared_ptr<detail::TraceSlot> slot)
            : _state(std::move(state)), _slot(std::move(slot))
        {
        }

        /** Unpin and drop the references (used by dtor and move). */
        void release();

        std::shared_ptr<detail::PoolState> _state;
        std::shared_ptr<detail::TraceSlot> _slot;
    };

    /** True once attached to a pool slot. */
    bool valid() const { return _slot != nullptr; }

    /** Rehydrate if needed and pin the decoded trace. */
    Pin pin() const;

    /** True while the decoded (hot) form is resident. */
    bool resident() const;

    /** Size of the compressed cold form. */
    size_t blobBytes() const;

    /** residentBytes() of the decoded form (resident or not). */
    size_t hotBytes() const;

    /** Instruction count (available without rehydrating). */
    uint64_t instructions() const;

  private:
    friend class TraceTierPool;
    TraceHandle(std::shared_ptr<detail::PoolState> state,
                std::shared_ptr<detail::TraceSlot> slot)
        : _state(std::move(state)), _slot(std::move(slot))
    {
    }

    // Handles (and pins) co-own the pool state alongside their slot;
    // slots themselves only point back non-owningly. This is what
    // breaks the state <-> slot ownership cycle while still letting
    // a handle outlive the TraceTierPool object.
    std::shared_ptr<detail::PoolState> _state;
    std::shared_ptr<detail::TraceSlot> _slot;
};

/**
 * Owner of a set of tiered traces. insert() compresses the cold form
 * eagerly and keeps the trace hot under the LRU budget. Thread-safe,
 * but see the determinism contract in the file comment: use one pool
 * per pipeline instance, not one shared pool across parallel tasks.
 */
class TraceTierPool
{
  public:
    explicit TraceTierPool(TierConfig config = TierConfig::fromEnv());

    /**
     * Store-backed pool: cold forms live in `store` (content
     * addressed, deduplicated at rest) instead of private per-slot
     * blobs. Insert via the digest overload; `store` is a shared
     * handle, so the pool keeps the underlying store state alive.
     */
    TraceTierPool(TierConfig config, ShardStore store);

    /** Take ownership of a trace; returns its stable handle. */
    TraceHandle insert(ColumnarTrace trace);

    /**
     * Store-backed insert: the cold form is put into the shard store
     * under `digest` (a repeat digest writes nothing — dedup at
     * rest) and the slot rehydrates from the store on demand. The
     * digest excludes the trace's identity fields (kernelName,
     * invocationId); the slot keeps them resident and re-stamps them
     * on rehydration, so pins always observe the inserted trace
     * exactly even when several identities share one blob. Only
     * valid on a pool constructed with a store.
     */
    TraceHandle insert(ColumnarTrace trace, const BlobDigest &digest);

    /** Point-in-time tier census. */
    struct Occupancy
    {
        size_t hotTraces = 0;  //!< decoded traces
        size_t coldTraces = 0; //!< hibernated (blob-only) traces
        size_t hotBytes = 0;   //!< resident bytes of decoded traces
        size_t blobBytes = 0;  //!< compressed bytes (all traces)
    };

    Occupancy occupancy() const;

    size_t budgetBytes() const;
    size_t size() const;

  private:
    std::shared_ptr<detail::PoolState> _state;
};

} // namespace sieve::trace

#endif // SIEVE_TRACE_TIER_HH
