// Common interface for every tag-queue structure compared in Table I.
//
// Each implementation counts its *memory accesses* the way the paper
// does for the hardware options ("the worst case number of memory
// accesses required per lookup"): touching one stored word — an array
// element, a list node, a bucket head, a CAM probe — is one access.
// The Table I bench measures worst/average accesses per operation over
// identical workloads instead of quoting the analytic columns on faith.
//
// The `model()` tag records which of the two §II-C architectures the
// structure follows: "sort" (work at insert, O(1) service) or "search"
// (cheap insert, lookup at service time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace wfqs::hw {
class Simulation;
}

namespace wfqs::baselines {

struct QueueEntry {
    std::uint64_t tag = 0;
    std::uint32_t payload = 0;

    friend bool operator==(const QueueEntry&, const QueueEntry&) = default;
};

struct QueueStats {
    std::uint64_t inserts = 0;
    std::uint64_t pops = 0;
    std::uint64_t accesses_total = 0;
    std::uint64_t worst_insert_accesses = 0;
    std::uint64_t worst_pop_accesses = 0;

    double avg_accesses_per_op() const {
        const std::uint64_t ops = inserts + pops;
        return ops == 0 ? 0.0 : static_cast<double>(accesses_total) /
                                    static_cast<double>(ops);
    }
};

class TagQueue {
public:
    virtual ~TagQueue() = default;

    /// The sorter-backed queues throw std::overflow_error when full and
    /// std::invalid_argument on a tag that would stretch their wrap
    /// window (Fig. 6), both before the stored set changes.
    ///
    /// Payload width: the ffs backend and the software baselines keep all
    /// 32 bits. The model backend packs the payload into the tag-store
    /// word beside the tag and the next pointer, so its field is
    /// min(32, 64 - tag bits - pointer bits) wide, at least 16 (18 bits
    /// for a 32-bit tree over 8,192 slots; 32 bits at the paper's 12-bit
    /// tree). A wider payload throws std::out_of_range, also before the
    /// stored set changes.
    virtual void insert(std::uint64_t tag, std::uint32_t payload) = 0;
    virtual std::optional<QueueEntry> pop_min() = 0;
    virtual std::optional<QueueEntry> peek_min() = 0;

    virtual std::size_t size() const = 0;
    bool empty() const { return size() == 0; }

    virtual std::string name() const = 0;
    virtual std::string model() const = 0;       ///< "sort" or "search"
    virtual std::string complexity() const = 0;  ///< Table I analytic column

    /// Binning is deliberately approximate (§II-B: "inherently
    /// inaccurate"); everything else returns the exact minimum.
    virtual bool exact() const { return true; }

    /// After an operation threw fault::FaultError: restore internal
    /// consistency (scrub/repair/rebuild) so the caller may retry.
    /// Returns false when this structure has no recovery story (the
    /// software baselines — std containers don't get SEUs).
    virtual bool recover() { return false; }

    /// The cycle-level memory inventory behind this queue, when it has
    /// one (the sorter-backed queues); nullptr for software baselines.
    /// Lets harnesses attach fault injectors and ECC without knowing the
    /// concrete type.
    virtual hw::Simulation* simulation() { return nullptr; }

    const QueueStats& stats() const { return stats_; }
    void reset_stats() { stats_ = {}; }

protected:
    /// RAII op bracket: accumulates accesses into the right counters. It
    /// commits in its destructor, during unwinding too, so open it only
    /// once the op can no longer be refused: a refused insert is not an
    /// insert. (Telling unwinding apart would take std::uncaught_exceptions,
    /// ~6 ns a call: more than a whole ffs-backed op.)
    class OpScope {
    public:
        enum class Kind { Insert, Pop };
        OpScope(TagQueue& q, Kind kind);
        ~OpScope();
        OpScope(const OpScope&) = delete;
        OpScope& operator=(const OpScope&) = delete;

    private:
        TagQueue& q_;
        Kind kind_;
        std::uint64_t start_;
    };

    /// Record `n` memory accesses for the current operation.
    void touch(std::uint64_t n = 1) { stats_.accesses_total += n; }

private:
    QueueStats stats_;
};

inline TagQueue::OpScope::OpScope(TagQueue& q, Kind kind)
    : q_(q), kind_(kind), start_(q.stats_.accesses_total) {}

inline TagQueue::OpScope::~OpScope() {
    const std::uint64_t used = q_.stats_.accesses_total - start_;
    if (kind_ == Kind::Insert) {
        ++q_.stats_.inserts;
        if (used > q_.stats_.worst_insert_accesses)
            q_.stats_.worst_insert_accesses = used;
    } else {
        ++q_.stats_.pops;
        if (used > q_.stats_.worst_pop_accesses)
            q_.stats_.worst_pop_accesses = used;
    }
}

}  // namespace wfqs::baselines
