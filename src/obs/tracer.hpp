// Cycle-level event tracer emitting Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Timebase. The simulated circuit's hw::Clock is the interesting axis, so
// spans are stamped in *clock cycles* and rendered with one cycle per
// trace microsecond (track "circuit"); host wall time for each span is
// kept alongside in the event's args. Instant events carry an explicit
// caller-supplied timestamp — the simulation driver uses packet time in
// nanoseconds on its own track.
//
// Cost discipline. Instrumented hot paths go through the WFQS_TRACE_*
// macros, which compile to nothing when WFQS_DISABLE_TRACING is defined
// and otherwise reduce to a single pointer test while no tracer is
// installed — an idle simulation pays one predictable branch per span.
// Installation is process-global.
//
// Threads. Recording is serialized by an internal mutex, so callers on
// different threads can share one installed tracer without corrupting
// the event log. Span begin/end pairs still form a single process-wide
// stack, so nesting attribution is only meaningful per emitting thread;
// the simulation's cycle-stamped spans all come from the one thread that
// owns the hw::Clock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace wfqs::hw {
class Clock;
}

namespace wfqs::obs {

class JsonWriter;

class Tracer {
public:
    /// `clock`: spans are stamped from it; null stamps spans from wall time.
    explicit Tracer(const hw::Clock* clock = nullptr) : clock_(clock) {}
    ~Tracer();

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Process-global current tracer (null = tracing off). install(this)
    /// activates; the destructor deactivates if still current.
    static Tracer* current() { return current_; }
    static void install(Tracer* t) { current_ = t; }

    // -- recording ---------------------------------------------------------
    /// Open a span at the current clock cycle. Spans nest (a stack).
    void begin_span(const char* name, const char* category);
    /// Close the innermost open span.
    void end_span();
    /// Point event at an explicit timestamp (trace microseconds).
    void instant(const char* name, const char* category, double ts_us);
    /// Counter-track sample (rendered as a little area chart).
    void counter(const char* name, double ts_us, double value);

    // -- export ------------------------------------------------------------
    std::size_t event_count() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return events_.size();
    }
    std::size_t open_spans() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return open_.size();
    }
    void clear();

    /// {"traceEvents":[...],"displayTimeUnit":"ns"} — open spans are
    /// closed at the current clock before writing.
    void write_json(std::ostream& os);
    std::string to_json();
    void save(const std::string& path);

private:
    struct Event {
        const char* name;
        const char* category;
        char phase;          ///< 'X' complete, 'i' instant, 'C' counter
        double ts_us;
        double dur_us;       ///< 'X' only
        std::uint64_t wall_ns;      ///< span begin, host clock
        std::uint64_t wall_dur_ns;  ///< 'X' only
        double value;        ///< 'C' only
    };
    struct OpenSpan {
        const char* name;
        const char* category;
        std::uint64_t begin_cycle;
        std::uint64_t begin_wall_ns;
    };

    std::uint64_t now_cycles() const;
    static std::uint64_t wall_ns();

    static Tracer* current_;
    const hw::Clock* clock_;
    mutable std::mutex mutex_;  ///< serializes recording across stage threads
    std::vector<Event> events_;
    std::vector<OpenSpan> open_;
};

/// RAII span against the installed tracer; ~free when none is installed.
class TraceSpan {
public:
    TraceSpan(const char* name, const char* category) {
        if (Tracer* t = Tracer::current()) {
            t->begin_span(name, category);
            tracer_ = t;
        }
    }
    ~TraceSpan() {
        if (tracer_) tracer_->end_span();
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

private:
    Tracer* tracer_ = nullptr;
};

}  // namespace wfqs::obs

#ifdef WFQS_DISABLE_TRACING
#define WFQS_TRACE_CONCAT_(a, b) a##b
#define WFQS_TRACE_SPAN(name, category) \
    do {                                \
    } while (0)
#define WFQS_TRACE_INSTANT(name, category, ts_us) \
    do {                                          \
    } while (0)
#else
#define WFQS_TRACE_CONCAT_IMPL_(a, b) a##b
#define WFQS_TRACE_CONCAT_(a, b) WFQS_TRACE_CONCAT_IMPL_(a, b)
/// Scoped span covering the rest of the enclosing block.
#define WFQS_TRACE_SPAN(name, category) \
    ::wfqs::obs::TraceSpan WFQS_TRACE_CONCAT_(wfqs_trace_span_, __COUNTER__)(name, category)
/// Point event at an explicit trace-microsecond timestamp.
#define WFQS_TRACE_INSTANT(name, category, ts_us)                         \
    do {                                                                  \
        if (::wfqs::obs::Tracer* wfqs_trace_t_ = ::wfqs::obs::Tracer::current()) \
            wfqs_trace_t_->instant(name, category, ts_us);                \
    } while (0)
#endif
