// FlightRecorder: a fixed-size ring of the last K structured events —
// sorter ops, faults, scrub outcomes, recoveries, reshard steps,
// conformance divergences — dumped as a post-mortem artifact when
// something goes wrong (fault escalation, divergence, crash).
//
// The dump is a *replayable* `.ops` file. Op events (insert/pop/combined,
// with the tag delta against the reference minimum captured at record
// time) are emitted as `i <delta>` / `p` / `c <delta>` lines in ring
// order, so `wfqs_fuzz --replay` re-executes the recorded tail directly.
// Every event — ops included — is also emitted as a
//
//   # ev <seq> <kind> t=<t> a=<a> b=<b>
//
// comment line, which `parse_ops` ignores but `wfqs_top --replay`
// renders as an annotated timeline. One file, two consumers.
//
// Installation is process-global, like obs::Tracer: components record
// through current() with a single pointer test when no recorder is
// installed. Recording takes an internal mutex so wfqs_fuzz's soak
// workers can share one ring. arm_crash_dump() registers std::terminate
// and fatal-signal hooks that write the ring before the process dies;
// the signal path skips the mutex (best effort beats a deadlocked
// handler).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace wfqs::obs {

enum class FlightEventKind : std::uint8_t {
    // Replayable sorter ops (a = tag delta vs the reference minimum).
    kInsert,
    kPop,
    kCombined,
    // Annotations (a/b are kind-specific, see event_kind_name()).
    kFault,       ///< injected/detected fault (a = bank or flow, b = detail)
    kScrub,       ///< scrub pass (a = ScrubAction, b = repaired count)
    kRecovery,    ///< recovery completed (a = 1-based retry attempt)
    kDivergence,  ///< conformance divergence detected (a = op index)
    kReshard,     ///< online reshard step (a = 0 add / 1 fence / 2 detach /
                  ///<   3 rebalance trigger, b = bank index)
    kNote,        ///< free-form marker (a/b caller-defined)
};

const char* event_kind_name(FlightEventKind k);

struct FlightEvent {
    std::uint64_t seq = 0;  ///< monotonically increasing record index
    FlightEventKind kind = FlightEventKind::kNote;
    double t = 0.0;         ///< caller timebase (hw cycles or wall seconds)
    std::int64_t a = 0;
    std::int64_t b = 0;
};

class FlightRecorder {
public:
    explicit FlightRecorder(std::size_t capacity = 4096);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// Process-global current recorder (null = recording off). install(this)
    /// activates; the destructor deactivates if still current.
    static FlightRecorder* current() { return current_; }
    static void install(FlightRecorder* r) { current_ = r; }

    // -- recording ---------------------------------------------------------
    void record(FlightEventKind kind, double t, std::int64_t a = 0,
                std::int64_t b = 0);

    // -- inspection --------------------------------------------------------
    std::size_t capacity() const { return capacity_; }
    std::size_t size() const;
    std::uint64_t total_recorded() const;
    /// Ring contents, oldest first.
    std::vector<FlightEvent> snapshot() const;

    // -- post-mortem dump --------------------------------------------------
    /// Write the replayable `.ops` artifact described above. `reason`
    /// lines become leading `#` comments.
    void dump(std::ostream& os, const std::string& reason) const;
    void dump_to_file(const std::string& path, const std::string& reason) const;

    /// Arm process-death hooks (std::terminate, SIGSEGV/SIGABRT/SIGFPE):
    /// whatever recorder is current when the process dies is dumped to
    /// `path`. Call once; later calls just update the path.
    static void arm_crash_dump(const std::string& path);
    /// The death-hook dump path itself: no locking (the mutex holder may
    /// be the thread that died). Public for the signal handlers.
    static void crash_dump();

private:
    std::vector<FlightEvent> ordered_unlocked() const;
    void dump_unlocked(std::ostream& os, const std::string& reason) const;

    static FlightRecorder* current_;

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::vector<FlightEvent> ring_;  ///< grows to capacity_, then wraps
    std::size_t head_ = 0;           ///< next write slot once full
    std::uint64_t seq_ = 0;
};

/// Record against the installed recorder; one pointer test when none is.
inline void flight_record(FlightEventKind kind, double t, std::int64_t a = 0,
                          std::int64_t b = 0) {
    if (FlightRecorder* r = FlightRecorder::current()) r->record(kind, t, a, b);
}

}  // namespace wfqs::obs
