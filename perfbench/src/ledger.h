// Exclusive-time ledger for the traced benchmark mode. The benchmark wraps
// each call it makes into a library layer in a Scope; the ledger keeps a
// stack of open spans so a span's self time is its duration minus the time
// its child spans cover. Per-layer totals (calls, inclusive, self) are kept
// for every span; the full (name, start, end, parent) record is kept in
// memory only for spans up to kRecordDepth deep (the per-cell skeleton —
// the per-request spans would be millions) and written out at exit.
//
// Accounting identity: the self times of all layers sum to the time covered
// by top-level spans, so (wall − Σ self) is exactly the unattributed rest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host clock in nanoseconds (std::chrono::steady_clock).
std::uint64_t steady_ns();

class Ledger {
 public:
  using NowFn = std::uint64_t (*)();

  struct Layer {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t inclusive_ns = 0;
    std::uint64_t self_ns = 0;
  };

  struct SpanRecord {
    std::size_t layer = 0;
    std::uint64_t start_ns = 0;  ///< relative to the ledger's construction
    std::uint64_t end_ns = 0;
    /// Index into spans() of the enclosing recorded span; -1 for a root.
    std::int64_t parent = -1;
  };

  explicit Ledger(NowFn now = steady_ns);

  /// Registers (or finds) a layer by name and returns its id.
  std::size_t layer(const std::string& name);

  void begin(std::size_t layer);
  void end();

  const std::vector<Layer>& layers() const { return layers_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of a layer by name (0 when never entered).
  std::uint64_t self_ns(const std::string& name) const;
  std::uint64_t inclusive_ns(const std::string& name) const;
  std::uint64_t calls(const std::string& name) const;
  std::uint64_t total_self_ns() const;

  /// Reads the ledger's clock (so callers time the wall on the same clock).
  std::uint64_t now() const { return now_(); }
  std::size_t open_spans() const { return stack_.size(); }

  /// The recorded spans as one JSON object {"spans": [...]}.
  std::string spans_json() const;

 private:
  struct Frame {
    std::size_t layer;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::int64_t record;  ///< index into spans_, or -1 when not recorded
  };

  const Layer* find(const std::string& name) const;

  NowFn now_;
  std::uint64_t origin_;
  std::vector<Layer> layers_;
  std::vector<Frame> stack_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: begin on construction, end on destruction.
class Scope {
 public:
  Scope(Ledger& ledger, std::size_t layer) : ledger_(ledger) {
    ledger_.begin(layer);
  }
  ~Scope() { ledger_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger& ledger_;
};

}  // namespace perfbench
