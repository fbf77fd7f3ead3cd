#include "obs/flight_recorder.hpp"

#include <csignal>
#include <exception>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"

namespace wfqs::obs {

FlightRecorder* FlightRecorder::current_ = nullptr;

const char* event_kind_name(FlightEventKind k) {
    switch (k) {
        case FlightEventKind::kInsert: return "insert";
        case FlightEventKind::kPop: return "pop";
        case FlightEventKind::kCombined: return "combined";
        case FlightEventKind::kFault: return "fault";
        case FlightEventKind::kScrub: return "scrub";
        case FlightEventKind::kRecovery: return "recovery";
        case FlightEventKind::kDivergence: return "divergence";
        case FlightEventKind::kReshard: return "reshard";
        case FlightEventKind::kNote: return "note";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
    WFQS_REQUIRE(capacity > 0, "flight recorder needs a non-empty ring");
    ring_.reserve(capacity);
}

FlightRecorder::~FlightRecorder() {
    if (current_ == this) current_ = nullptr;
}

void FlightRecorder::record(FlightEventKind kind, double t, std::int64_t a,
                            std::int64_t b) {
    std::lock_guard<std::mutex> lock(mutex_);
    FlightEvent ev{seq_++, kind, t, a, b};
    if (ring_.size() < capacity_) {
        ring_.push_back(ev);
    } else {
        ring_[head_] = ev;
        head_ = (head_ + 1) % capacity_;
    }
}

std::size_t FlightRecorder::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

std::uint64_t FlightRecorder::total_recorded() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

std::vector<FlightEvent> FlightRecorder::ordered_unlocked() const {
    std::vector<FlightEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ordered_unlocked();
}

void FlightRecorder::dump_unlocked(std::ostream& os,
                                   const std::string& reason) const {
    os << "# wfqs-ops v1\n";
    os << "# flight-recorder dump\n";
    if (!reason.empty()) {
        std::istringstream lines(reason);
        std::string line;
        while (std::getline(lines, line)) os << "# " << line << "\n";
    }
    const std::vector<FlightEvent> events = ordered_unlocked();
    os << "# events " << events.size() << " of " << seq_
       << " recorded, capacity " << capacity_ << "\n";
    for (const FlightEvent& ev : events)
        os << "# ev " << ev.seq << " " << event_kind_name(ev.kind)
           << " t=" << ev.t << " a=" << ev.a << " b=" << ev.b << "\n";
    // Replayable tail: op events in ring order, `.ops` grammar.
    for (const FlightEvent& ev : events) {
        switch (ev.kind) {
            case FlightEventKind::kInsert: os << "i " << ev.a << "\n"; break;
            case FlightEventKind::kPop: os << "p\n"; break;
            case FlightEventKind::kCombined: os << "c " << ev.a << "\n"; break;
            default: break;
        }
    }
}

void FlightRecorder::dump(std::ostream& os, const std::string& reason) const {
    std::lock_guard<std::mutex> lock(mutex_);
    dump_unlocked(os, reason);
}

void FlightRecorder::dump_to_file(const std::string& path,
                                  const std::string& reason) const {
    std::ofstream out(path);
    WFQS_REQUIRE(static_cast<bool>(out),
                 "cannot write flight-recorder dump: " + path);
    dump(out, reason);
}

// ------------------------------------------------------- crash-dump hooks

namespace {

std::string g_crash_path;                      // set once by arm_crash_dump
std::terminate_handler g_prev_terminate = nullptr;
bool g_armed = false;

}  // namespace

void FlightRecorder::crash_dump() {
    // Fatal path: the mutex holder may be the thread that just died, so
    // read the ring without locking. A torn event in the dump beats a
    // handler that never returns.
    const FlightRecorder* r = current_;
    if (r == nullptr || g_crash_path.empty()) return;
    std::ofstream out(g_crash_path);
    if (!out) return;
    r->dump_unlocked(out, "crash dump (terminate/fatal signal)");
}

namespace {

[[noreturn]] void on_fatal_signal(int sig) {
    FlightRecorder::crash_dump();
    std::signal(sig, SIG_DFL);
    std::raise(sig);
    std::_Exit(128 + sig);  // unreachable unless raise is blocked
}

[[noreturn]] void on_terminate() {
    FlightRecorder::crash_dump();
    if (g_prev_terminate != nullptr) g_prev_terminate();
    std::abort();
}

}  // namespace

void FlightRecorder::arm_crash_dump(const std::string& path) {
    g_crash_path = path;
    if (g_armed) return;
    g_armed = true;
    g_prev_terminate = std::set_terminate(on_terminate);
    std::signal(SIGSEGV, on_fatal_signal);
    std::signal(SIGABRT, on_fatal_signal);
    std::signal(SIGFPE, on_fatal_signal);
}

}  // namespace wfqs::obs
