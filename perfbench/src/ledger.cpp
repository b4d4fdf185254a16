#include "ledger.h"

#include <chrono>
#include <stdexcept>

namespace perfbench {
namespace {

// Full span records are kept for the per-cell skeleton only: exp.cell and
// its direct children. Deeper spans go into the per-layer totals.
constexpr std::size_t kRecordDepth = 2;

}  // namespace

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Ledger::Ledger(NowFn now) : now_(now), origin_(now()) {}

std::size_t Ledger::layer(const std::string& name) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) return i;
  }
  layers_.push_back(Layer{name, 0, 0, 0});
  return layers_.size() - 1;
}

void Ledger::begin(std::size_t layer) {
  const std::uint64_t t = now_();
  std::int64_t record = -1;
  if (stack_.size() < kRecordDepth) {
    std::int64_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    spans_.push_back(SpanRecord{layer, t - origin_, t - origin_, parent});
    record = static_cast<std::int64_t>(spans_.size() - 1);
  }
  stack_.push_back(Frame{layer, t, 0, record});
}

void Ledger::end() {
  if (stack_.empty()) throw std::logic_error("Ledger::end without begin");
  const std::uint64_t t = now_();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = t - frame.start;
  Layer& layer = layers_[frame.layer];
  ++layer.calls;
  layer.inclusive_ns += duration;
  layer.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.record >= 0) {
    spans_[static_cast<std::size_t>(frame.record)].end_ns = t - origin_;
  }
}

const Ledger::Layer* Ledger::find(const std::string& name) const {
  for (const Layer& l : layers_) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

std::uint64_t Ledger::self_ns(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr ? 0 : l->self_ns;
}

std::uint64_t Ledger::inclusive_ns(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr ? 0 : l->inclusive_ns;
}

std::uint64_t Ledger::calls(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr ? 0 : l->calls;
}

std::uint64_t Ledger::total_self_ns() const {
  std::uint64_t sum = 0;
  for (const Layer& l : layers_) sum += l.self_ns;
  return sum;
}

std::string Ledger::spans_json() const {
  std::string out = "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + layers_[s.layer].name +
           "\", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) +
           ", \"parent\": " + std::to_string(s.parent) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
