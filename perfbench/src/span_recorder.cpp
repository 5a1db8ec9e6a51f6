#include "span_recorder.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder()
    : round_name_(intern("cloud.round")),
      untraced_round_name_(intern("cloud.round.untraced")),
      slice_name_(intern("core.slice")) {}

std::uint16_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  if (names_.size() >= 0xFFFF) throw std::length_error("too many span names");
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint32_t SpanRecorder::open(std::uint16_t name) {
  Span span;
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  span.round = round_;
  span.name = name;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void SpanRecorder::close(std::uint32_t index) {
  const std::int64_t end = now_ns();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("SpanRecorder: spans closed out of order");
  }
  stack_.pop_back();
  spans_[index].end_ns = end;
}

void SpanRecorder::begin_round(std::uint32_t round, RoundMode mode) {
  round_ = round;
  enabled_ = mode == RoundMode::Traced;
  if (mode == RoundMode::Off) return;
  round_span_ = open(enabled_ ? round_name_ : untraced_round_name_);
}

void SpanRecorder::end_round() {
  if (slice_span_ != kNoParent) {
    close(slice_span_);
    slice_span_ = kNoParent;
  }
  slice_tenant_ = nullptr;
  if (round_span_ != kNoParent) close(round_span_);
  round_span_ = kNoParent;
  enabled_ = false;
}

void SpanRecorder::enter_tenant(const void* tenant) {
  if (!enabled_ || tenant == slice_tenant_) return;
  if (slice_span_ != kNoParent) close(slice_span_);
  slice_tenant_ = tenant;
  slice_span_ = open(slice_name_);
}

std::map<std::string, std::int64_t> SpanRecorder::self_ns_by_name() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != kNoParent) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]] += self[i];
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "# round id parent name start_ns end_ns\n") > 0;
  for (std::size_t i = 0; ok && i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    ok = std::fprintf(f, "%u %zu %lld %s %lld %lld\n", s.round, i, parent,
                      names_[s.name].c_str(),
                      static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns)) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
